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
//   - LinkDown/SwitchDown: anchored and minimized product graphs with an
//     edge on an affected cable are patched in place (applyOutage); the
//     rest are untouched. A patched graph's sink trees survive unless a
//     used path crossed an affected cable. Shard-local re-provisioning
//     follows from the graph identity checks: patched graphs force a cold
//     shard solve, untouched shards are served from the previous solution.
//   - LinkUp/SwitchUp: every product graph records the cables that were
//     down when it was built or last patched, and a recovery evicts
//     exactly the graphs whose stamp contains a restored cable, with their
//     sink trees. The others cannot gain edges from the restoration. The
//     provisioning artifact is kept: surviving graphs have no edges on
//     restored cables, so their shards reuse outright, and rebuilt graphs
//     force cold shard solves. A recovery tick thus costs what the
//     matching failure tick cost, not a near-full recompile.
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
		// Maintain the down-cable set copy-on-write: artifacts stamped with
		// the old map must keep seeing the outage as it was at their build.
		next := make(map[topo.LinkID]bool, len(c.downCables)+len(im.Cables))
		for cb := range c.downCables {
			if !up || !cables[cb] {
				next[cb] = true
			}
		}
		if !up {
			for _, cb := range im.Cables {
				next[cb] = true
			}
		}
		if len(next) == 0 {
			next = nil
		}
		c.downCables = next
		// One rule for both product-graph caches (applyOutage). A sink
		// tree falls with its graph on recovery; after a patch it is kept
		// unless one of its used paths crossed an affected cable — only such
		// a path could change the reverse BFS's distances or tie-breaks
		// (sinktree.Tree.RidesLinks).
		ride := func(l topo.LinkID) bool { return cables[c.t.Cable(l)] }
		c.stats.AnchoredInvalidated += len(applyOutage(c.anchored, up, cables, ride, c.downCables))
		touched := applyOutage(c.graphs, up, cables, ride, c.downCables)
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
// and returns the keys it touched. A failure patches every graph with an
// edge on an affected cable (ride) in place — dropping those edges and
// re-pruning equals a cold build on the degraded topology byte for byte
// (logical.Graph.WithoutLinks) — and re-stamps it with the current outage.
// A recovery evicts every graph whose outage stamp holds a restored cable:
// only those can gain edges from the restoration. Any other graph saw the
// cable live when it was built and either never rides it or was patched
// (and stamped) by the failure.
func applyOutage[K comparable](m map[K]*graphArtifact, up bool, cables map[topo.LinkID]bool, ride func(topo.LinkID) bool, outage map[topo.LinkID]bool) map[K]bool {
	var touched map[K]bool
	for k, ga := range m {
		if up {
			if !outageIntersects(ga.outage, cables) {
				continue
			}
			delete(m, k)
		} else {
			if !graphRides(ga.g, ride) {
				continue
			}
			ga.g = ga.g.WithoutLinks(ride)
			ga.outage = outage
		}
		if touched == nil {
			touched = map[K]bool{}
		}
		touched[k] = true
	}
	return touched
}

// outageIntersects reports whether an artifact's outage stamp contains any
// of the restored cables. Iterates the stamp — outages are small — rather
// than the impact, whose cable list a switch recovery can make long.
func outageIntersects(outage, restored map[topo.LinkID]bool) bool {
	for cb := range outage {
		if restored[cb] {
			return true
		}
	}
	return false
}

// graphRides reports whether any edge of the product graph rides a link
// satisfying ride.
func graphRides(g *logical.Graph, ride func(topo.LinkID) bool) bool {
	for i := range g.Edges {
		if l := g.Edges[i].Link; l >= 0 && ride(l) {
			return true
		}
	}
	return false
}
