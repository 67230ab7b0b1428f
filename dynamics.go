package merlin

import (
	"errors"
	"fmt"

	"merlin/internal/logical"
	"merlin/internal/topo"
)

// TopoEventKind classifies a topology event.
type TopoEventKind int

// Topology event kinds. Down events remove connectivity, Up events restore
// it, and SetCapacity re-dimensions a cable without touching the graph
// structure.
const (
	LinkDown TopoEventKind = iota
	LinkUp
	SwitchDown
	SwitchUp
	SetCapacity
)

// String returns the event kind's name.
func (k TopoEventKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case SetCapacity:
		return "set-capacity"
	default:
		return fmt.Sprintf("topo-event(%d)", int(k))
	}
}

// TopoEvent is one topology change — the §6 dynamic-adaptation events a
// long-running controller receives from its failure detector. Unlike
// policy deltas, topology events are facts about the world: Update applies
// them (and invalidates the caches they stale) even when the rest of the
// delta is rejected, so a failed recompile never resurrects a dead link.
type TopoEvent struct {
	Kind TopoEventKind
	// A and B name the cable's endpoints for LinkDown/LinkUp/SetCapacity;
	// A alone names the element for SwitchDown/SwitchUp (any node kind is
	// accepted — failing a host models a dead server).
	A, B string
	// Capacity is the new per-direction capacity in bits/s (SetCapacity).
	Capacity float64
}

// Event constructors, for readable call sites.

// LinkFailure fails the cable between two named nodes.
func LinkFailure(a, b string) TopoEvent { return TopoEvent{Kind: LinkDown, A: a, B: b} }

// LinkRecovery restores the cable between two named nodes.
func LinkRecovery(a, b string) TopoEvent { return TopoEvent{Kind: LinkUp, A: a, B: b} }

// SwitchFailure fails a named node and every incident link.
func SwitchFailure(name string) TopoEvent { return TopoEvent{Kind: SwitchDown, A: name} }

// SwitchRecovery restores a named node (links failed independently stay down).
func SwitchRecovery(name string) TopoEvent { return TopoEvent{Kind: SwitchUp, A: name} }

// CapacityChange sets the cable between two named nodes to a new
// per-direction capacity.
func CapacityChange(a, b string, capacity float64) TopoEvent {
	return TopoEvent{Kind: SetCapacity, A: a, B: b, Capacity: capacity}
}

// ApplyTopo applies topology events and incrementally recompiles, exactly
// like Update(Delta{Topo: events}): the device-level diff is the reroute —
// the rules to install and remove so traffic avoids failed elements (or
// reclaims restored ones).
func (c *Compiler) ApplyTopo(events ...TopoEvent) (*Diff, error) {
	return c.Update(Delta{Topo: events})
}

// ApplyTopoBatch applies one coalesced batch of topology events as a
// single Update: one invalidation sweep and one recompile. A batch that
// up-front validation rejects is retried one event at a time, so one
// malformed event cannot discard the valid failures alongside it; each
// retried event gets exactly one onDiff or onErr call, in order, where an
// unretried batch gets one call. It returns the events actually applied
// to the topology — the durability hook merlind journals: the whole batch
// on success or on a post-apply recompile failure (events are facts and
// are never rolled back), and on a validation rejection the
// individually-accepted subset. onDiff and onErr may be nil.
func (c *Compiler) ApplyTopoBatch(batch []TopoEvent, onDiff func(*Diff), onErr func(error)) []TopoEvent {
	diff, err := c.Update(Delta{Topo: batch})
	if err == nil {
		if onDiff != nil {
			onDiff(diff)
		}
		return batch
	}
	if len(batch) > 1 && isTopoValidationError(err) {
		// The batch was rejected up front by a malformed event, before
		// anything mutated; the rest are still facts. Re-apply
		// individually. (A post-apply recompile failure takes the plain
		// error path instead: the events already stuck, so per-event
		// retries would only repeat the same failing recompile.)
		var applied []TopoEvent
		for _, ev := range batch {
			if diff, err := c.Update(Delta{Topo: []TopoEvent{ev}}); err != nil {
				if onErr != nil {
					onErr(err)
				}
				if !isTopoValidationError(err) {
					applied = append(applied, ev) // stuck; only the recompile failed
				}
			} else {
				applied = append(applied, ev)
				if onDiff != nil {
					onDiff(diff)
				}
			}
		}
		return applied
	}
	if onErr != nil {
		onErr(err)
	}
	if isTopoValidationError(err) {
		return nil // single malformed event: rejected before any mutation
	}
	return batch // events stuck; only the recompile failed
}

// topoEventError marks a batch rejected during up-front validation —
// before any mutation — so ApplyTopoBatch can distinguish "nothing was
// applied, retry the valid events individually" from "the events stuck
// but the recompile failed".
type topoEventError struct{ err error }

func (e *topoEventError) Error() string { return e.err.Error() }
func (e *topoEventError) Unwrap() error { return e.err }

// isTopoValidationError reports whether an Update error was an up-front
// topology-event validation rejection (nothing mutated) as opposed to a
// failure after the events were applied.
func isTopoValidationError(err error) bool {
	var ve *topoEventError
	return errors.As(err, &ve)
}

// applyTopoEvents validates all events, applies them to the bound
// topology, and invalidates every cached artifact the mutations can have
// staled. Callers hold c.mu. Validation happens up front so a bad event
// in a batch rejects the whole batch before anything mutates; once
// application starts it cannot fail.
//
// Invalidation policy, per event:
//
//   - SetCapacity: graph structure is intact, so no artifact is dropped;
//     the cable lands in the dirty set and provisioning re-solves exactly
//     the shards whose product graphs can ride it, warm-started from
//     their cached bases (the model shape is unchanged).
//   - LinkDown/SwitchDown/LinkUp/SwitchUp: every cached product graph is
//     its full-fabric form cut by the links down now, so a failure and a
//     recovery are one rule (applyOutage): re-cut the graphs the event can
//     change — on a failure those with an edge on a failed cable, on a
//     recovery those whose full form has an edge on a restored one. The
//     rest are untouched, and nothing is rebuilt: a recovery builds no
//     automaton. After a failure a re-cut graph's sink trees survive
//     unless a used path crossed a failed cable; after a recovery they
//     fall with it. Shard-local re-provisioning follows from the graph
//     identity checks: re-cut graphs force a cold shard solve, untouched
//     shards are served from the previous solution.
func (c *Compiler) applyTopoEvents(events []TopoEvent) error {
	type resolved struct {
		ev   TopoEvent
		a, b topo.NodeID
	}
	rs := make([]resolved, len(events))
	for i, ev := range events {
		a, ok := c.t.Lookup(ev.A)
		if !ok {
			return &topoEventError{fmt.Errorf("merlin: topology event %d (%s): unknown node %q", i, ev.Kind, ev.A)}
		}
		r := resolved{ev: ev, a: a}
		switch ev.Kind {
		case LinkDown, LinkUp, SetCapacity:
			b, ok := c.t.Lookup(ev.B)
			if !ok {
				return &topoEventError{fmt.Errorf("merlin: topology event %d (%s): unknown node %q", i, ev.Kind, ev.B)}
			}
			if _, ok := c.t.CableBetween(a, b); !ok {
				return &topoEventError{fmt.Errorf("merlin: topology event %d (%s): no link between %q and %q", i, ev.Kind, ev.A, ev.B)}
			}
			if ev.Kind == SetCapacity && ev.Capacity <= 0 {
				return &topoEventError{fmt.Errorf("merlin: topology event %d: capacity must be positive, got %g", i, ev.Capacity)}
			}
			r.b = b
		case SwitchDown, SwitchUp:
		default:
			return &topoEventError{fmt.Errorf("merlin: topology event %d: unknown kind %d", i, int(ev.Kind))}
		}
		rs[i] = r
	}
	for _, r := range rs {
		var im topo.Impact
		var err error
		up := false
		switch r.ev.Kind {
		case LinkDown, LinkUp:
			up = r.ev.Kind == LinkUp
			im, err = c.t.SetLinkState(r.a, r.b, up)
		case SwitchDown, SwitchUp:
			up = r.ev.Kind == SwitchUp
			im, err = c.t.SetNodeState(r.a, up)
		case SetCapacity:
			im, err = c.t.SetCableCapacity(r.a, r.b, r.ev.Capacity)
		}
		if err != nil {
			// Defensive: validation above should have caught everything.
			return fmt.Errorf("merlin: topology event (%s): %w", r.ev.Kind, err)
		}
		c.stats.TopoEvents++
		if len(im.Cables) == 0 && !im.ConnectivityChanged {
			continue // no-op (element already in the requested state)
		}
		if c.dirtyCables == nil {
			c.dirtyCables = map[topo.LinkID]bool{}
		}
		for _, cb := range im.Cables {
			c.dirtyCables[cb] = true
		}
		if !im.ConnectivityChanged {
			continue
		}
		c.tainted = true
		cables := make(map[topo.LinkID]bool, len(im.Cables))
		for _, cb := range im.Cables {
			cables[cb] = true
		}
		// One rule for both product-graph caches (applyOutage). A sink
		// tree falls with its graph on recovery; after a failure it is kept
		// unless one of its used paths crossed a failed cable — only such a
		// path could change the reverse BFS's distances or tie-breaks
		// (sinktree.Tree.RidesLinks).
		ride := func(l topo.LinkID) bool { return cables[c.t.Cable(l)] }
		down := func(l topo.LinkID) bool { return !c.t.LinkIsUp(l) }
		c.stats.AnchoredInvalidated += len(applyOutage(c.anchored, up, ride, down))
		touched := applyOutage(c.graphs, up, ride, down)
		if up {
			c.stats.GraphsInvalidated += len(touched)
		} else {
			c.stats.GraphsPatched += len(touched)
		}
		if touched == nil {
			continue
		}
		for tk, tr := range c.trees {
			switch {
			case !touched[tk.key]:
			case up || tr.RidesLinks(ride):
				delete(c.trees, tk)
				c.stats.TreesInvalidated++
			default:
				c.stats.TreesKept++
			}
		}
	}
	return nil
}

// applyOutage applies one connectivity event to a product-graph cache
// and returns the keys whose graph it re-cut against the links down now
// (logical.Graph.Cut), byte-identical to a cold build on the current
// topology. A failure re-cuts every graph with an edge on a failed cable
// (ride); a recovery every graph whose full-fabric form has an edge on a
// restored one. No other graph can change: it rides no failed cable, or
// its full form none of the restored ones. A graph that is its own full
// form rides no down link, so no recovery touches it.
func applyOutage[K comparable](m map[K]*logical.Graph, up bool, ride, down func(topo.LinkID) bool) map[K]bool {
	var touched map[K]bool
	for k, g := range m {
		probe := g
		if up {
			probe = g.Full
		}
		if probe == nil || !probe.Rides(ride) {
			continue
		}
		m[k] = g.Cut(down)
		if touched == nil {
			touched = map[K]bool{}
		}
		touched[k] = true
	}
	return touched
}
