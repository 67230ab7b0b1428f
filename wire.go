package merlin

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"merlin/internal/policy"
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
	// A parse error names a position in the delta's own text, where
	// Add[k] starts on line k+1 one column in (adds hold no newlines):
	// an error at line L, column C lies in Add[L-1] at column C-1.
	// Added statements append after every kept one, so an explicit
	// catch-all ("zall : true -> .*") shadows them (see Delta.Add).
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
// policy, yielding a Delta for Update. It parses only the delta's own
// text — "[" + the adds joined by ";\n " + "]", then ",\n" + the formula
// when one is sent — and joins the parsed adds to the kept statements
// as they are, so its cost does not grow with the policy. The joined
// policy is validated once: an added ID that collides with any current
// statement, kept or removed, or with another add is an error, and so
// is a formula naming a removed or unknown statement. "at" rate clauses
// on added statements conjoin into the sent formula, or into the current
// one when none is sent. A delta that leaves the formula as it is
// decodes with a nil Formula, and one that neither adds nor removes with
// nil Add and Remove, preserving Update's identity fast paths. It does
// not apply anything; Update still rejects unknown removes.
func (c *Compiler) DecodeDelta(w WireDelta) (Delta, error) {
	c.mu.Lock()
	src := c.source
	c.mu.Unlock()
	if src == nil {
		return Delta{}, fmt.Errorf("merlin: Compiler.DecodeDelta called before the first Compile")
	}

	text := "[" + strings.Join(w.Add, ";\n ") + "]"
	if w.Formula != "" {
		text += ",\n" + w.Formula
	}
	f, err := policy.ParseFile(text)
	if err != nil {
		return Delta{}, fmt.Errorf("merlin: delta does not parse: %w", err)
	}
	// Only foreach reads the environment, whose "hosts" set costs a walk
	// of the topology's identity table.
	var env policy.Env
	for _, it := range f.Items {
		if _, ok := it.(policy.ForeachItem); ok {
			env = policyEnv(c.t)
			break
		}
	}
	adds, rates, err := f.Desugar(env)
	if err != nil {
		return Delta{}, fmt.Errorf("merlin: delta does not parse: %w", err)
	}
	if len(adds) != len(w.Add) {
		return Delta{}, fmt.Errorf("merlin: delta lists %d added statements but its text holds %d", len(w.Add), len(adds))
	}

	// The joined policy: kept statements, then the adds. A formula-only
	// delta shares the current statement slice.
	post := &Policy{Statements: src.Statements, Formula: src.Formula}
	if len(w.Remove) > 0 || len(adds) > 0 {
		removed := make(map[string]bool, len(w.Remove)) // ID → names a current statement
		for _, id := range w.Remove {
			removed[id] = false
		}
		post.Statements = make([]Statement, 0, len(src.Statements)+len(adds))
		for _, s := range src.Statements {
			if _, ok := removed[s.ID]; ok {
				removed[s.ID] = true
				continue
			}
			post.Statements = append(post.Statements, s)
		}
		for _, s := range adds {
			if removed[s.ID] {
				return Delta{}, fmt.Errorf("merlin: delta adds %q, which collides with a removed statement", s.ID)
			}
		}
		post.Statements = append(post.Statements, adds...)
	}
	// The formula changes when one is sent, or when the adds' rate
	// terms (or a formula written into an add's text) conjoin onto the
	// current one. The fold matches a full policy's: formulas in text
	// order, then the rate terms in statement order.
	d := Delta{Add: adds, Remove: w.Remove, Place: w.Place}
	if _, nothing := policy.ConjFormula(append([]policy.Formula{f.Formula}, rates...)...).(policy.FTrue); w.Formula != "" || !nothing {
		base := f.Formula
		if w.Formula == "" {
			base = policy.ConjFormula(base, src.Formula)
		}
		d.Formula = policy.ConjFormula(append([]policy.Formula{base}, rates...)...)
		post.Formula = d.Formula
	}
	if err := post.Validate(); err != nil {
		return Delta{}, fmt.Errorf("merlin: delta does not apply to the current policy: %w", err)
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
