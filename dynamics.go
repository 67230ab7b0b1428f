package merlin

import (
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

// ApplyTopoBatch applies one coalesced batch of topology events: CheckTopo
// sets the malformed events aside, and the valid rest go through a single
// Update — one invalidation sweep and one recompile, however many
// malformed events rode along. onErr gets each check error in order, then
// the Update's error if it fails; onDiff gets its diff. It returns the
// valid events, which are what reached the topology — the durability hook
// merlind journals — even when the recompile fails (events are facts and
// are never rolled back). onDiff and onErr may be nil.
func (c *Compiler) ApplyTopoBatch(batch []TopoEvent, onDiff func(*Diff), onErr func(error)) []TopoEvent {
	valid, errs := c.CheckTopo(batch)
	if len(valid) > 0 {
		diff, err := c.Update(Delta{Topo: valid})
		if err != nil {
			errs = append(errs, err)
		} else if onDiff != nil {
			onDiff(diff)
		}
	}
	if onErr != nil {
		for _, err := range errs {
			onErr(err)
		}
	}
	return valid
}

// CheckTopo splits topology events into the valid ones, in order, and one
// error for each of the rest. An event is judged only by its own value and
// the topology's node and cable set, which no event changes: its nodes
// and cable must exist, its kind must be known and a capacity it sets
// must be positive. So a valid event is valid in any batch, alongside any
// other events. Update runs the same check and rejects a batch holding an
// invalid event before anything mutates.
func (c *Compiler) CheckTopo(events []TopoEvent) (valid []TopoEvent, errs []error) {
	for i, ev := range events {
		if _, _, err := c.endpoints(ev); err != nil {
			errs = append(errs, fmt.Errorf("merlin: topology event %d (%s): %w", i, ev.Kind, err))
			continue
		}
		valid = append(valid, ev)
	}
	return valid, errs
}

// endpoints resolves the nodes an event names (b only for the cable
// events), or reports why the event is invalid. It reads only the fixed
// node and cable set, so it needs no lock.
func (c *Compiler) endpoints(ev TopoEvent) (a, b topo.NodeID, err error) {
	a, ok := c.t.Lookup(ev.A)
	if !ok {
		return 0, 0, fmt.Errorf("unknown node %q", ev.A)
	}
	switch ev.Kind {
	case SwitchDown, SwitchUp:
		return a, 0, nil
	case LinkDown, LinkUp, SetCapacity:
	default:
		return 0, 0, fmt.Errorf("unknown kind %d", int(ev.Kind))
	}
	if b, ok = c.t.Lookup(ev.B); !ok {
		return 0, 0, fmt.Errorf("unknown node %q", ev.B)
	}
	if _, ok := c.t.CableBetween(a, b); !ok {
		return 0, 0, fmt.Errorf("no link between %q and %q", ev.A, ev.B)
	}
	if ev.Kind == SetCapacity && ev.Capacity <= 0 {
		return 0, 0, fmt.Errorf("capacity must be positive, got %g", ev.Capacity)
	}
	return a, b, nil
}

// applyTopoEvents applies events that passed CheckTopo to the bound
// topology and invalidates every cached artifact the mutations can have
// staled. Callers hold c.mu.
//
// Invalidation policy, per event:
//
//   - SetCapacity: graph structure is intact, so no artifact is dropped.
//     The last provisioning solution and its shards record the capacity
//     of every cable their requests can ride: only the shards whose
//     graphs can ride the cable re-solve, warm-started from their cached
//     bases (the model shape is unchanged), and a cable no request can
//     ride re-solves nothing and keeps the solution — so the pass patches
//     caps instead of lowering again.
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
	for _, ev := range events {
		// Defensive: CheckTopo rules out every error endpoints and the
		// mutators report.
		a, b, err := c.endpoints(ev)
		if err != nil {
			return fmt.Errorf("merlin: topology event (%s): %w", ev.Kind, err)
		}
		var im topo.Impact
		up := false
		switch ev.Kind {
		case LinkDown, LinkUp:
			up = ev.Kind == LinkUp
			im, err = c.t.SetLinkState(a, b, up)
		case SwitchDown, SwitchUp:
			up = ev.Kind == SwitchUp
			im, err = c.t.SetNodeState(a, up)
		case SetCapacity:
			im, err = c.t.SetCableCapacity(a, b, ev.Capacity)
		}
		if err != nil {
			return fmt.Errorf("merlin: topology event (%s): %w", ev.Kind, err)
		}
		c.stats.TopoEvents++
		if !im.ConnectivityChanged {
			continue // a no-op, or a capacity change (see above)
		}
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
