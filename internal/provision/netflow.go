// Shortest-path fast path, by relax-then-verify. Under a separable
// objective the provisioning MIP with its cable rows dropped is a
// block-diagonal pure node-arc incidence problem — one min-cost unit-flow
// block per request. With non-negative costs a unit s→t min-cost flow is
// a shortest path, so each block is one Dijkstra run over the request's
// product graph (logical.(*Graph).CheapestPath), exact and with no branch
// and bound. Dropping rows relaxes the problem, so when the relaxed routes
// fit every cable they are optimal for the full MIP too; only a shard
// whose relaxed routes overflow a cable goes on to the general path. The
// costs are the per-edge costs buildModel would emit (hop epsilon,
// deterministic tie-breaking perturbation, and the WSP rate term; non-link
// edges cost 0), so the fast path lands on the optimum of the general MIP
// — the differential fuzz harness cross-checks the two paths case by case.

package provision

import (
	"fmt"
	"time"

	"merlin/internal/logical"
	"merlin/internal/topo"
)

// separable reports whether the shard's objective is a sum over requests,
// so that without the cable rows each request's optimum is its own
// cheapest path. WSP always is; the min-max objectives couple requests
// through their shared maximum unless no request carries a guarantee.
func separable(reqs []Request, h Heuristic) bool {
	if h == WeightedShortestPath {
		return true
	}
	for _, r := range reqs {
		if r.MinRate > 0 {
			return false
		}
	}
	return true
}

// fitsCapacity reports whether reserved, pooled by cable, stays within
// every cable's capacity: the cable rows (eq. 5) the fast path dropped.
func fitsCapacity(t *topo.Topology, reserved map[topo.LinkID]float64) bool {
	for c, bits := range cableLoads(t, reserved) {
		if bits > t.Link(c).Capacity+1e-9 {
			return false
		}
	}
	return true
}

// solveNetflow routes each of the shard's requests on the cheapest path
// of its product graph, ignoring capacity. A request whose sink is
// unreachable makes the shard infeasible, as the general path would
// report.
func solveNetflow(t *topo.Topology, reqs []Request, h Heuristic, construct, solve *time.Duration) (*ShardSolution, error) {
	out := &ShardSolution{
		Paths:    make(map[string][]logical.Step, len(reqs)),
		Reserved: map[topo.LinkID]float64{},
		Netflow:  true,
	}
	var cost []float64 // reused across the shard's requests
	for _, r := range reqs {
		start := time.Now()
		g := r.Graph
		cost = edgeCosts(cost[:0], r, h)
		*construct += time.Since(start)

		solveStart := time.Now()
		ids := g.CheapestPath(cost)
		*solve += time.Since(solveStart)
		if ids == nil {
			return nil, fmt.Errorf("no assignment satisfies the path and bandwidth constraints")
		}
		steps, err := g.DecodePath(ids)
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", r.ID, err)
		}
		out.Paths[r.ID] = steps
		addReservations(t, out.Reserved, steps, r.MinRate)
	}
	return out, nil
}

// edgeCosts appends the objective coefficient of each of r's product edges
// to dst: linkCost on physical links, 0 on self, source and sink edges.
func edgeCosts(dst []float64, r Request, h Heuristic) []float64 {
	jitter := idJitter(r.ID)
	for e, ed := range r.Graph.Edges {
		c := 0.0
		if ed.Link >= 0 {
			c = linkCost(h, r.MinRate, jitter, e)
		}
		dst = append(dst, c)
	}
	return dst
}
