package corpus

import (
	"sort"

	"merlin/internal/topo"
)

// A region is one node-disjoint slice of the topology: a connected ball
// of switches grown breadth-first around a host-attachment seed, plus the
// hosts attached inside it. Regions generalize the fat-tree pod: a path
// expression alternating a region's node names confines a tenant to it,
// and because distinct regions share no nodes they share no cables, so
// provisioning decomposes into one shard per region.
type region struct {
	// names is the sorted node-name set (switches and hosts) — the
	// alternation the path expression is built from.
	names []string
	// hosts is the sorted host-name subset, the tenant's endpoint pool.
	hosts []string
	// set holds every member node for confinement checks.
	set map[topo.NodeID]bool
}

// partitionRegions grows up to want node-disjoint regions over the
// topology's switches by round-robin multi-source BFS from evenly spaced
// host-attachment seeds, then drops regions with fewer than two hosts
// (no intra-region pair exists). Growth claims every switch, each one by
// the region that reaches it first, so regions are connected by
// construction. Deterministic: seeds, queue order, and neighbor order
// all derive from node-ID order.
func partitionRegions(t *topo.Topology, want int) []*region {
	var attach []topo.NodeID
	for _, s := range t.Switches() {
		for _, n := range t.Neighbors(s) {
			if t.Node(n).Kind == topo.Host {
				attach = append(attach, s)
				break
			}
		}
	}
	if len(attach) == 0 {
		return nil
	}
	if want < 1 {
		want = 1
	}
	if want > len(attach) {
		want = len(attach)
	}
	// Evenly spaced seeds over the attachment switches (ID order spreads
	// them across the graph for every generator in internal/topo).
	owner := map[topo.NodeID]int{}
	queues := make([][]topo.NodeID, 0, want)
	for i := 0; i < want; i++ {
		seed := attach[i*len(attach)/want]
		if _, taken := owner[seed]; taken {
			continue
		}
		owner[seed] = len(queues)
		queues = append(queues, []topo.NodeID{seed})
	}
	// Round-robin frontier expansion: each region claims one node's
	// unowned switch-neighbors per round, keeping ball sizes balanced.
	for {
		progress := false
		for r := range queues {
			if len(queues[r]) == 0 {
				continue
			}
			n := queues[r][0]
			queues[r] = queues[r][1:]
			progress = true
			for _, m := range t.Neighbors(n) {
				if t.Node(m).Kind != topo.Switch {
					continue
				}
				if _, taken := owner[m]; taken {
					continue
				}
				owner[m] = r
				queues[r] = append(queues[r], m)
			}
		}
		if !progress {
			break
		}
	}
	regions := make([]*region, len(queues))
	for i := range regions {
		regions[i] = &region{set: map[topo.NodeID]bool{}}
	}
	for _, s := range t.Switches() {
		r, ok := owner[s]
		if !ok {
			continue
		}
		regions[r].set[s] = true
		regions[r].names = append(regions[r].names, t.Node(s).Name)
	}
	for _, h := range t.Hosts() {
		a, ok := t.Attachment(h)
		if !ok {
			continue
		}
		r, ok := owner[a]
		if !ok {
			continue
		}
		name := t.Node(h).Name
		regions[r].set[h] = true
		regions[r].names = append(regions[r].names, name)
		regions[r].hosts = append(regions[r].hosts, name)
	}
	kept := regions[:0]
	for _, r := range regions {
		if len(r.hosts) < 2 {
			continue
		}
		sort.Strings(r.names)
		sort.Strings(r.hosts)
		kept = append(kept, r)
	}
	return kept
}

// reachable reports whether src reaches dst over live links, treating
// cables in skip as down, node down (pass -1 for none) as failed, and —
// when allowed is non-nil — refusing to traverse nodes outside allowed
// (src and dst are always admitted).
func reachable(t *topo.Topology, src, dst topo.NodeID, skip map[topo.LinkID]bool, down topo.NodeID, allowed map[topo.NodeID]bool) bool {
	if src == down || dst == down {
		return false
	}
	if src == dst {
		return true
	}
	seen := map[topo.NodeID]bool{src: true}
	frontier := []topo.NodeID{src}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, l := range t.Out(n) {
			if !t.LinkIsUp(l) || skip[t.Cable(l)] {
				continue
			}
			m := t.Link(l).Dst
			if m == down || seen[m] {
				continue
			}
			if m == dst {
				return true
			}
			if allowed != nil && !allowed[m] {
				continue
			}
			seen[m] = true
			frontier = append(frontier, m)
		}
	}
	return false
}
