// Package p4 is a dataplane backend emitting P4 match-action table
// entries from the compiler's target-neutral IR — the runtime
// configuration (in P4Runtime spirit) a controller would push into a
// fixed merlin.p4 pipeline: an ingress classifier table mapping untagged
// traffic onto path tags, a tag-forwarding table pinning provisioned
// paths, and an egress queue table carrying the bandwidth reservations.
// It exists to prove the backend seam: it consumes exactly the same
// lowered Program as the OpenFlow/Click/tc built-ins and plugs in through
// codegen.Register, so any policy the compiler accepts can target P4
// hardware by adding "p4" to Options.Targets.
//
// Host-side sections of the IR (rate caps, end-host
// functions) are deliberately not rendered here: they configure end
// hosts, not P4 switches, and remain the tc/host backends' business. A
// caps-only policy update therefore leaves the P4 artifact untouched.
package p4

import (
	"fmt"
	"strconv"
	"strings"

	"merlin/internal/codegen"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// Name is the backend's registry key.
const Name = "p4"

// Pipeline table names.
const (
	TableClassifier = "MerlinIngress.classifier"
	TableForward    = "MerlinIngress.tag_forward"
	TableQueue      = "MerlinEgress.port_queue"
)

// TableEntry is one match-action entry on one device.
type TableEntry struct {
	Device   topo.NodeID
	Table    string
	Priority int
	// Match holds "field=value" keys; ternary fields absent from the
	// list are don't-care.
	Match []string
	// Action names the pipeline action; Params its "name=value"
	// arguments.
	Action string
	Params []string
	// Stmt is the policy statement the entry was lowered from.
	Stmt string
}

// String renders the entry in a stable, human-auditable form.
func (e TableEntry) String() string { return string(e.AppendTo(nil)) }

// AppendTo appends the String form of the entry to b.
func (e TableEntry) AppendTo(b []byte) []byte {
	b = append(b, "table="...)
	b = append(b, e.Table...)
	b = append(b, " prio="...)
	b = strconv.AppendInt(b, int64(e.Priority), 10)
	b = append(b, " match={"...)
	b = appendJoined(b, e.Match)
	b = append(b, "} action="...)
	b = append(b, e.Action...)
	b = append(b, '(')
	b = appendJoined(b, e.Params)
	return append(b, ')')
}

// appendJoined appends the comma-joined list to b.
func appendJoined(b []byte, list []string) []byte {
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return b
}

// Artifact is the p4 backend's emitted configuration.
type Artifact struct {
	TableEntries []TableEntry
}

// Backend implements codegen.Artifact.
func (a *Artifact) Backend() string { return Name }

// Entries implements codegen.Artifact.
func (a *Artifact) Entries() []codegen.Entry {
	out := make([]codegen.Entry, len(a.TableEntries))
	var buf []byte
	for i, e := range a.TableEntries {
		buf = e.AppendTo(buf[:0])
		out[i] = codegen.Entry{Device: e.Device, Text: string(buf)}
	}
	return out
}

// Count reports the number of emitted table entries.
func (a *Artifact) Count() int { return len(a.TableEntries) }

type backend struct{}

// Name implements codegen.Backend.
func (backend) Name() string { return Name }

// Emit implements codegen.Backend: IR rules become classifier or
// tag-forwarding entries, queue reservations become egress queue entries.
// Emission order follows the Program, so the artifact is deterministic.
func (backend) Emit(t *topo.Topology, prog *codegen.Program) (codegen.Artifact, error) {
	art := &Artifact{TableEntries: make([]TableEntry, 0, len(prog.Rules)+len(prog.Queues))}
	for _, r := range prog.Rules {
		e := TableEntry{
			Device:   r.Device,
			Table:    tableFor(r),
			Priority: r.Priority,
			Match:    matchKeys(r.Match),
			Stmt:     r.Stmt,
		}
		e.Action, e.Params = actionFor(r.Ops)
		art.TableEntries = append(art.TableEntries, e)
	}
	for _, q := range prog.Queues {
		art.TableEntries = append(art.TableEntries, TableEntry{
			Device: q.Switch,
			Table:  TableQueue,
			Match: []string{
				"egress_port=" + strconv.Itoa(int(q.Port)),
				"queue_id=" + strconv.Itoa(q.Queue),
			},
			Action: "set_min_rate",
			Params: []string{fmt.Sprintf("bps=%.0f", q.MinBps)},
		})
	}
	return art, nil
}

// Diff implements codegen.Backend.
func (b backend) Diff(old, new codegen.Artifact) codegen.ArtifactDiff {
	return codegen.DiffArtifacts(Name, old, new)
}

// tableFor routes a rule to its pipeline table: untagged traffic is
// classified, tagged traffic forwarded.
func tableFor(r codegen.Rule) string {
	if r.Match.Tag == codegen.TagNone {
		return TableClassifier
	}
	return TableForward
}

// matchKeys renders the IR match as ternary keys in a fixed field order.
// The predicate key carries the compiler's classifier abstraction intact
// (the same treatment OpenFlow gives openflow.Match.Predicate): a real
// pipeline would expand it into header-field ternary entries, and the
// entries here are already single positive cubes for classification
// rules.
func matchKeys(m codegen.Match) []string {
	var buf [6]string // the most keys a match renders
	keys := buf[:0]
	if m.InPort != codegen.AnyPort {
		keys = append(keys, "ingress_port="+strconv.Itoa(int(m.InPort)))
	}
	switch m.Tag {
	case codegen.TagAny:
		// don't-care
	case codegen.TagNone:
		keys = append(keys, "tag_valid=0")
	default:
		keys = append(keys, "tag_valid=1", "tag="+strconv.Itoa(m.Tag))
	}
	if m.SrcMAC != "" {
		keys = append(keys, "eth_src="+m.SrcMAC)
	}
	if m.DstMAC != "" {
		keys = append(keys, "eth_dst="+m.DstMAC)
	}
	if m.Pred != nil {
		keys = append(keys, "cls="+pred.Format(m.Pred))
	}
	return append([]string(nil), keys...)
}

// actionFor folds an IR op sequence into one pipeline action name plus
// parameters: [set_tag, forward] becomes push_tag_forward(tag, port), a
// queued forward becomes forward_queue(port, queue), and so on. The fold
// is generic, so any op sequence the lowerer can produce (including
// retag-over-clear chains) maps to a well-formed compound action.
func actionFor(ops []codegen.Op) (string, []string) {
	var buf [4]string // the names only feed the Join below
	names := buf[:0]
	var params []string
	for _, op := range ops {
		switch op.Kind {
		case codegen.OpForward:
			names = append(names, "forward")
			params = append(params, "port="+strconv.Itoa(int(op.Port)))
		case codegen.OpForwardQueue:
			names = append(names, "forward_queue")
			params = append(params, "port="+strconv.Itoa(int(op.Port)), "queue="+strconv.Itoa(op.Queue))
		case codegen.OpSetTag:
			names = append(names, "push_tag")
			params = append(params, "tag="+strconv.Itoa(op.Tag))
		case codegen.OpClearTag:
			names = append(names, "pop_tag")
		}
	}
	if len(names) == 0 {
		return "nop", nil
	}
	return strings.Join(names, "_"), params
}

func init() {
	codegen.Register(backend{})
}
