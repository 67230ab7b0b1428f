// Topology dynamics: link and switch failure, recovery, and capacity
// changes (§6's dynamic-adaptation story). Node and link identifiers are
// stable across events — a failed element keeps its ID and is merely
// filtered out of the adjacency structure — so artifacts built against
// the topology (product graphs, provisioning solutions, generated
// configuration) remain addressable while the incremental compiler
// decides which of them the event actually invalidated.
//
// Every mutator returns an Impact naming the physical cables whose state
// or capacity changed and whether connectivity moved. The incremental
// compiler's cache invalidation keys off the Impact rather than
// re-deriving it.
package topo

import (
	"fmt"
	"slices"
)

// Impact reports what a topology mutation affected.
type Impact struct {
	// Cables lists the canonical cable IDs (lower directed link ID of each
	// pair) whose state or capacity the mutation changed.
	Cables []LinkID
	// ConnectivityChanged reports that links were taken down or restored —
	// paths may have appeared or vanished. Capacity-only changes leave it
	// false: the graph structure is intact and only provisioning headroom
	// moved.
	ConnectivityChanged bool
}

// LinkIsUp reports whether a directed link is live: neither administratively
// down nor incident to a down node.
func (t *Topology) LinkIsUp(id LinkID) bool {
	l := t.links[id]
	return !t.linkState(id) && !t.nodeState(l.Src) && !t.nodeState(l.Dst)
}

// NodeIsUp reports whether a node is live.
func (t *Topology) NodeIsUp(id NodeID) bool { return !t.nodeState(id) }

// LinkFlaggedDown reports whether a link carries the administrative down
// flag, independent of its endpoints' node state (which LinkIsUp folds
// in). SetLinkState records the flag even when an endpoint node is down,
// so snapshot capture needs this raw view to reproduce the state
// machine exactly: a flagged cable stays down when its node recovers.
func (t *Topology) LinkFlaggedDown(id LinkID) bool { return t.linkState(id) }

func (t *Topology) linkState(id LinkID) bool {
	return len(t.linkDown) > int(id) && t.linkDown[id]
}

func (t *Topology) nodeState(id NodeID) bool {
	return len(t.nodeDown) > int(id) && t.nodeDown[id]
}

// Cable canonicalizes a directed link to its cable: the lower of the two
// directed link IDs (both directions share one physical capacity).
func (t *Topology) Cable(l LinkID) LinkID {
	if r := t.links[l].Reverse; r < l {
		return r
	}
	return l
}

// CableBetween locates the cable between two nodes regardless of its
// current state (FindLink only sees live adjacency).
func (t *Topology) CableBetween(a, b NodeID) (LinkID, bool) { return t.findCable(a, b) }

// findCable locates the cable between two nodes, including cables whose
// links are currently down (FindLink only sees live adjacency). It scans
// the full link table: mutations are rare control-plane events, not a
// compile hot path, so the scan is not worth a second (failure-inclusive)
// adjacency structure.
func (t *Topology) findCable(a, b NodeID) (LinkID, bool) {
	for i := range t.links {
		l := &t.links[i]
		if (l.Src == a && l.Dst == b) || (l.Src == b && l.Dst == a) {
			return t.Cable(l.ID), true
		}
	}
	return 0, false
}

// SetLinkState fails (up == false) or restores (up == true) the cable
// between a and b: both directed links change state together, mirroring a
// physical cable cut. Setting the current state again is a no-op that
// reports an empty impact; so is flipping the flag of a cable whose
// liveness cannot change because an endpoint node is down — the flag is
// recorded (the cable stays down when the node recovers) but no
// connectivity changed, so consumers need not invalidate anything.
func (t *Topology) SetLinkState(a, b NodeID, up bool) (Impact, error) {
	c, ok := t.findCable(a, b)
	if !ok {
		return Impact{}, fmt.Errorf("topo: no link between %s and %s", t.nodes[a].Name, t.nodes[b].Name)
	}
	r := t.links[c].Reverse
	if t.linkState(c) == !up {
		return Impact{}, nil
	}
	if t.linkDown == nil {
		t.linkDown = make([]bool, len(t.links))
	}
	t.linkDown[c] = !up
	t.linkDown[r] = !up
	t.rebuildAdjacency()
	if t.nodeState(t.links[c].Src) || t.nodeState(t.links[c].Dst) {
		return Impact{}, nil
	}
	return Impact{Cables: []LinkID{c}, ConnectivityChanged: true}, nil
}

// SetNodeState fails or restores a node — typically a switch, taking every
// incident link with it. Links that were independently failed via
// SetLinkState stay down when the node comes back. Setting the current
// state again is a no-op.
func (t *Topology) SetNodeState(n NodeID, up bool) (Impact, error) {
	if int(n) >= len(t.nodes) {
		return Impact{}, fmt.Errorf("topo: unknown node %d", n)
	}
	if t.nodeState(n) == !up {
		return Impact{}, nil
	}
	if t.nodeDown == nil {
		t.nodeDown = make([]bool, len(t.nodes))
	}
	// The incident cables whose liveness actually flips with this node:
	// skip those already (or still) dead through their own flag or the
	// far endpoint. If nothing flips (every incident cable was already
	// failed independently), the event changed no connectivity and
	// consumers need not invalidate anything — matching SetLinkState's
	// handling of the mirror case.
	var im Impact
	for i := range t.links {
		l := &t.links[i]
		if l.Src != n {
			continue // visit each incident cable once, from its n-sourced side
		}
		if t.linkState(l.ID) || t.nodeState(l.Dst) {
			continue
		}
		im.Cables = append(im.Cables, t.Cable(l.ID))
	}
	im.ConnectivityChanged = len(im.Cables) > 0
	t.nodeDown[n] = !up
	t.rebuildAdjacency()
	return im, nil
}

// SetCableCapacity changes the capacity of the cable between a and b, in
// both directions. The graph structure is untouched — only provisioning
// headroom moves — so Impact.ConnectivityChanged stays false.
func (t *Topology) SetCableCapacity(a, b NodeID, capacity float64) (Impact, error) {
	if capacity <= 0 {
		return Impact{}, fmt.Errorf("topo: capacity must be positive (got %g); use SetLinkState to fail the link", capacity)
	}
	c, ok := t.findCable(a, b)
	if !ok {
		return Impact{}, fmt.Errorf("topo: no link between %s and %s", t.nodes[a].Name, t.nodes[b].Name)
	}
	r := t.links[c].Reverse
	if t.links[c].Capacity == capacity && t.links[r].Capacity == capacity {
		return Impact{}, nil
	}
	t.links[c].Capacity = capacity
	t.links[r].Capacity = capacity
	return Impact{Cables: []LinkID{c}}, nil
}

// rebuildAdjacency recomputes the live adjacency lists from the link table
// and the down flags. Links are visited in ID order — the order AddLink
// appended them — so a restored topology reproduces the original adjacency
// byte for byte, and with it every downstream deterministic choice.
func (t *Topology) rebuildAdjacency() {
	if t.from == nil {
		// Until the first failure the live adjacency listed every link:
		// keep those lists as the full-fabric adjacency.
		t.from, t.into = slices.Clone(t.out), slices.Clone(t.in)
	}
	// Fresh slices, not truncation: Out/In hand out the underlying slices
	// and earlier callers may still be iterating them.
	for i := range t.out {
		t.out[i] = nil
		t.in[i] = nil
	}
	for i := range t.links {
		l := &t.links[i]
		if !t.LinkIsUp(l.ID) {
			continue
		}
		t.out[l.Src] = append(t.out[l.Src], l.ID)
		t.in[l.Dst] = append(t.in[l.Dst], l.ID)
	}
}
