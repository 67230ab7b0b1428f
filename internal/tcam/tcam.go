// Package tcam is a vendor-CLI dataplane backend and the first consumer
// of the backend API v2: instead of rendering the IR's symbolic
// Match.Pred one-to-one, it declares a per-device-class table model
// (codegen.TableModeler) and receives the compiler's expanded ternary
// tables (codegen.TernaryEmitter) — real value/mask TCAM entries with
// port ranges expanded to their prefix covers, counted against each
// switch's table budget before emission. The rendered artifact is a
// deterministic per-device CLI script in the style of merchant-silicon
// vendor shells: `tcam entry add ...` lines for the match table and
// `scheduler port ...` lines for the queue reservations.
//
// Like p4, the host-side IR sections (caps, host functions) are
// not rendered here — they configure end hosts, so a caps-only update
// leaves the tcam artifact untouched and rides the incremental
// compiler's artifact-sharing fast path.
package tcam

import (
	"fmt"
	"strings"

	"merlin/internal/codegen"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// Name is the backend's registry key.
const Name = "tcam"

// Switch table model: a merchant-silicon ingress TCAM slice — a few
// thousand ternary entries over the full canonical header key, with no
// native range matching (ranges cost their prefix cover).
const SwitchMaxEntries = 4096

type backend struct{}

// Name implements codegen.Backend.
func (backend) Name() string { return Name }

// TableModel implements codegen.TableModeler: only switches carry a
// TCAM; hosts and middleboxes are unconstrained (they hold no entries).
func (backend) TableModel(class topo.Kind) (codegen.TableModel, bool) {
	if class != topo.Switch {
		return codegen.TableModel{}, false
	}
	return codegen.TableModel{
		MaxEntries:    SwitchMaxEntries,
		SupportsRange: false,
	}, true
}

// Emit implements codegen.Backend. The compiler normally calls
// EmitTernary with pre-expanded (and budget-checked) tables; Emit makes
// the backend usable standalone by running the expansion itself under
// its own table model.
func (b backend) Emit(t *topo.Topology, prog *codegen.Program) (codegen.Artifact, error) {
	tables, err := codegen.ExpandProgram(t, prog, ternary.Options{SupportsRange: false})
	if err != nil {
		return nil, err
	}
	return b.EmitTernary(t, prog, tables)
}

// EmitTernary implements codegen.TernaryEmitter: each ternary entry
// renders as one CLI line on its device, in table order; queue
// reservations follow as scheduler lines.
func (backend) EmitTernary(t *topo.Topology, prog *codegen.Program, tables *codegen.TernaryTables) (codegen.Artifact, error) {
	art := &Artifact{
		Lines:     make([]codegen.Entry, 0, tables.Total+len(prog.Queues)),
		PerDevice: make(map[topo.NodeID]int, len(tables.PerDevice)),
	}
	for _, e := range tables.Entries {
		art.Lines = append(art.Lines, codegen.Entry{Device: e.Device, Text: renderEntry(e)})
		art.PerDevice[e.Device]++
	}
	for _, q := range prog.Queues {
		art.Lines = append(art.Lines, codegen.Entry{
			Device: q.Switch,
			Text:   fmt.Sprintf("scheduler port %d queue %d min-rate-bps %.0f", q.Port, q.Queue, q.MinBps),
		})
	}
	return art, nil
}

// Diff implements codegen.Backend.
func (backend) Diff(old, new codegen.Artifact) codegen.ArtifactDiff {
	return codegen.DiffArtifacts(Name, old, new)
}

// renderEntry formats one expanded entry as a vendor-CLI line. The
// structural keys (ingress port, path tag) print first, then the header
// value/mask row in canonical field order, then the action and owning
// statement.
func renderEntry(e codegen.TernaryEntry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tcam entry add priority %d key port=%s tag=%s", e.Priority, portKey(e.InPort), tagKey(e.Tag))
	for _, m := range e.Match {
		sb.WriteByte(' ')
		sb.WriteString(m.String())
	}
	fmt.Fprintf(&sb, " action %q stmt %s", e.Ops, e.Stmt)
	return sb.String()
}

func portKey(p topo.LinkID) string {
	if p == codegen.AnyPort {
		return "any"
	}
	return fmt.Sprintf("%d", p)
}

func tagKey(tag int) string {
	switch tag {
	case codegen.TagAny:
		return "any"
	case codegen.TagNone:
		return "none"
	default:
		return fmt.Sprintf("%d", tag)
	}
}

// Artifact is the tcam backend's emitted configuration: rendered CLI
// lines per device, plus per-device entry counts for capacity audits.
type Artifact struct {
	Lines []codegen.Entry
	// PerDevice counts match-table entries per device (scheduler lines
	// excluded — they live in the scheduler, not the TCAM).
	PerDevice map[topo.NodeID]int
}

// Backend implements codegen.Artifact.
func (a *Artifact) Backend() string { return Name }

// Entries implements codegen.Artifact.
func (a *Artifact) Entries() []codegen.Entry { return a.Lines }

// Count reports the number of rendered CLI lines.
func (a *Artifact) Count() int { return len(a.Lines) }

func init() {
	codegen.Register(backend{})
}
