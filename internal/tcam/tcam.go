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
	"strconv"

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
	var buf []byte
	for _, e := range tables.Entries {
		buf = appendEntry(buf[:0], e)
		art.Lines = append(art.Lines, codegen.Entry{Device: e.Device, Text: string(buf)})
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

// appendEntry appends one expanded entry's vendor-CLI line to b. The
// structural keys (ingress port, path tag) print first, then the header
// value/mask row in canonical field order, then the action and owning
// statement.
func appendEntry(b []byte, e codegen.TernaryEntry) []byte {
	b = append(b, "tcam entry add priority "...)
	b = strconv.AppendInt(b, int64(e.Priority), 10)
	b = append(b, " key port="...)
	if e.InPort == codegen.AnyPort {
		b = append(b, "any"...)
	} else {
		b = strconv.AppendInt(b, int64(e.InPort), 10)
	}
	b = append(b, " tag="...)
	switch e.Tag {
	case codegen.TagAny:
		b = append(b, "any"...)
	case codegen.TagNone:
		b = append(b, "none"...)
	default:
		b = strconv.AppendInt(b, int64(e.Tag), 10)
	}
	for _, m := range e.Match {
		b = append(b, ' ')
		b = m.AppendTo(b)
	}
	b = append(b, " action "...)
	b = strconv.AppendQuote(b, e.Ops)
	b = append(b, " stmt "...)
	return append(b, e.Stmt...)
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
