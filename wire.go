package merlin

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Journal record kinds merlind writes (journal.Record.Kind). The payload
// formats are part of the on-disk contract: a journal written by one
// build must replay on the next.
const (
	// RecPolicy is a full policy in canonical concrete syntax — the
	// genesis record, and every policy a negotiation hub commits (ticks
	// and accepted proposals), journaled as the complete post-commit
	// policy because hub session state is volatile across restarts.
	RecPolicy byte = 1
	// RecDelta is a JSON WireDelta.
	RecDelta byte = 2
	// RecTopo is a JSON array of WireTopoEvents — one applied batch.
	RecTopo byte = 3
)

// WireDelta is the JSON form of a policy Delta — what merlind accepts
// over HTTP and journals. Statements travel as concrete syntax so the
// journal stays readable and build-independent.
type WireDelta struct {
	// Add lists statements to append, each in concrete syntax
	// ("id : (pred) -> path", optionally with an "at min(...)" rate
	// clause, which conjoins into the formula as in a full policy).
	Add []string `json:"add,omitempty"`
	// Remove lists statement IDs to drop.
	Remove []string `json:"remove,omitempty"`
	// Formula, if non-empty, replaces the bandwidth formula (concrete
	// syntax; "true" clears it).
	Formula string `json:"formula,omitempty"`
	// Place, if non-nil, replaces the function placement table.
	Place Placement `json:"place,omitempty"`
}

// WireTopoEvent is the JSON form of a TopoEvent.
type WireTopoEvent struct {
	// Kind is the TopoEventKind name: "link-down", "link-up",
	// "switch-down", "switch-up", or "set-capacity".
	Kind string `json:"kind"`
	// A and B name the cable endpoints (A alone for switch events).
	A string `json:"a"`
	B string `json:"b,omitempty"`
	// CapacityBps is the new per-direction capacity for "set-capacity".
	CapacityBps float64 `json:"capacity_bps,omitempty"`
}

// Event converts the wire form to a TopoEvent.
func (w WireTopoEvent) Event() (TopoEvent, error) {
	kinds := map[string]TopoEventKind{
		LinkDown.String():    LinkDown,
		LinkUp.String():      LinkUp,
		SwitchDown.String():  SwitchDown,
		SwitchUp.String():    SwitchUp,
		SetCapacity.String(): SetCapacity,
	}
	k, ok := kinds[w.Kind]
	if !ok {
		return TopoEvent{}, fmt.Errorf("merlin: unknown topology event kind %q", w.Kind)
	}
	return TopoEvent{Kind: k, A: w.A, B: w.B, Capacity: w.CapacityBps}, nil
}

// WireTopoEvents converts a batch of TopoEvents to wire form.
func WireTopoEvents(events []TopoEvent) []WireTopoEvent {
	out := make([]WireTopoEvent, len(events))
	for i, ev := range events {
		out[i] = WireTopoEvent{Kind: ev.Kind.String(), A: ev.A, B: ev.B, CapacityBps: ev.Capacity}
	}
	return out
}

// DecodeDelta materializes a WireDelta against the compiler's current
// policy: added statements and the replacement formula are parsed in the
// context of the kept statements (so formulas may reference existing
// IDs, and "at" rate clauses on added statements conjoin correctly),
// yielding a Delta for Update. It does not apply anything — Update still
// validates (duplicate adds, unknown removes) at application time.
func (c *Compiler) DecodeDelta(w WireDelta) (Delta, error) {
	c.mu.Lock()
	src := c.source
	c.mu.Unlock()
	if src == nil {
		return Delta{}, fmt.Errorf("merlin: Compiler.DecodeDelta called before the first Compile")
	}

	removed := make(map[string]bool, len(w.Remove))
	for _, id := range w.Remove {
		removed[id] = true
	}
	current := make(map[string]bool, len(src.Statements))
	var stmts []string
	for _, s := range src.Statements {
		current[s.ID] = true
		if !removed[s.ID] {
			stmts = append(stmts, s.String())
		}
	}
	stmts = append(stmts, w.Add...)

	var sb strings.Builder
	sb.WriteString("[")
	sb.WriteString(strings.Join(stmts, ";\n "))
	sb.WriteString("]")
	formulaChanged := w.Formula != ""
	if formulaChanged {
		sb.WriteString(",\n")
		sb.WriteString(w.Formula)
	} else if src.Formula != nil {
		if f := src.Formula.String(); f != "true" {
			sb.WriteString(",\n")
			sb.WriteString(f)
		}
	}
	pol, err := ParsePolicy(sb.String(), c.t)
	if err != nil {
		return Delta{}, fmt.Errorf("merlin: delta does not parse against the current policy: %w", err)
	}

	d := Delta{Remove: w.Remove, Place: w.Place}
	for _, s := range pol.Statements {
		if !current[s.ID] {
			d.Add = append(d.Add, s)
		}
	}
	if len(d.Add) != len(w.Add) {
		return Delta{}, fmt.Errorf("merlin: delta adds %d statements but %d parsed as new — an added ID collides with a kept statement", len(w.Add), len(d.Add))
	}
	// "at" clauses on added statements conjoin into the parsed formula,
	// so the formula also changes when any add carried one. Compare
	// canonical renderings; identical formulas stay nil to preserve
	// Update's identity fast path.
	if !formulaChanged {
		oldF := "true"
		if src.Formula != nil {
			oldF = src.Formula.String()
		}
		formulaChanged = pol.Formula != nil && pol.Formula.String() != oldF
	}
	if formulaChanged {
		d.Formula = pol.Formula
	}
	return d, nil
}

// ApplyJournalRecord replays one journal record into the compiler —
// the restart path merlind drives after loading a snapshot. Topology
// records tolerate a failing recompile exactly as the live path does
// (the events are facts and have stuck; the next successful record
// converges the compiled state), so replaying a journal reproduces the
// live compiler's state even across compile failures it survived.
func ApplyJournalRecord(c *Compiler, kind byte, data []byte) error {
	switch kind {
	case RecPolicy:
		pol, err := ParsePolicy(string(data), c.t)
		if err != nil {
			return fmt.Errorf("merlin: replay policy record: %w", err)
		}
		if _, err := c.Compile(pol); err != nil {
			return fmt.Errorf("merlin: replay policy record: %w", err)
		}
	case RecDelta:
		var w WireDelta
		if err := json.Unmarshal(data, &w); err != nil {
			return fmt.Errorf("merlin: replay delta record: %w", err)
		}
		d, err := c.DecodeDelta(w)
		if err != nil {
			return err
		}
		if _, err := c.Update(d); err != nil {
			return fmt.Errorf("merlin: replay delta record: %w", err)
		}
	case RecTopo:
		var ws []WireTopoEvent
		if err := json.Unmarshal(data, &ws); err != nil {
			return fmt.Errorf("merlin: replay topology record: %w", err)
		}
		events := make([]TopoEvent, len(ws))
		for i, w := range ws {
			ev, err := w.Event()
			if err != nil {
				return err
			}
			events[i] = ev
		}
		// Journaled events were checked when accepted; an invalid one
		// means the journal does not match the topology it is replayed
		// onto.
		if _, errs := c.CheckTopo(events); errs != nil {
			return fmt.Errorf("merlin: replay topology record: %w", errors.Join(errs...))
		}
		// A recompile failure is not a replay error: the live compiler
		// hit (and survived) the same failure when it accepted this
		// record.
		_, _ = c.Update(Delta{Topo: events})
	default:
		return fmt.Errorf("merlin: unknown journal record kind %d", kind)
	}
	return nil
}
