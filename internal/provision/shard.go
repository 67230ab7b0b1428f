// Shard decomposition: the global provisioning MIP of §3.2 couples
// requests only through link-capacity constraints (eq. 2), so requests
// whose product graphs share no physical cable — disjoint tenants,
// disjoint pods, localized sub-policies — form independent subproblems.
// Partition computes those connected components from the statement↔link
// incidence, and Solve provisions each component as its own MIP over a
// worker pool, merging the per-shard optima into one Result. The merged
// solution is exactly as optimal as the monolithic solve: the
// weighted-shortest-path objective is a sum over requests and so splits
// across shards, and the min-max objectives are maxima over links, which
// link-disjointness reduces to the bottleneck shard's own optimum.
package provision

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"merlin/internal/logical"
	"merlin/internal/lp"
	"merlin/internal/mip"
	"merlin/internal/topo"
)

// ShardSolution is one shard's provisioning outcome, retained on the
// Result so a later Solve over an overlapping request set can reuse it:
// an identical shard (same requests, graphs, and rates) is served without
// a solve, and a rates-only change re-solves the shard's model
// warm-started from its cached optimal basis.
type ShardSolution struct {
	// Key identifies the shard by its request IDs in input order,
	// NUL-joined. Reuse additionally requires the graphs to be the same
	// objects, so the key is a fast filter, not the full match.
	Key string
	// IDs, Graphs, and Rates mirror the shard's requests in input order.
	IDs    []string
	Graphs []*logical.Graph
	Rates  []float64
	// Paths and Reserved are this shard's slice of the merged Result.
	Paths    map[string][]logical.Step
	Reserved map[topo.LinkID]float64
	// Basis is the shard model's optimal simplex basis, used to warm-start
	// a re-solve after a rate change. Nil when the shard took the
	// network-simplex fast path, which needs no warm start: re-solving it
	// costs a handful of tree pivots either way.
	Basis *lp.Basis
	// Nodes is the branch-and-bound node count of the shard's solve (zero
	// on the fast path — integral relaxations never branch).
	Nodes int
	// Netflow records that the shard was recognized as a pure node-arc
	// incidence problem and solved by the network simplex.
	Netflow bool
}

// shardKeyOf builds the reuse key for a request ID sequence.
func shardKeyOf(ids []string) string { return strings.Join(ids, "\x00") }

// Partition groups requests into link-disjoint shards: two requests land
// in the same shard iff their product graphs can ride a common physical
// cable and both carry a bandwidth guarantee. Requests with MinRate 0
// occupy no capacity and couple with nothing, so each is its own shard.
// Shards are returned ordered by their smallest request index, with
// request indices ascending inside each shard — fully deterministic.
func Partition(t *topo.Topology, reqs []Request) [][]int {
	parent := make([]int, len(reqs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// owner maps each cable to the first guaranteed request that can ride
	// it; later requests touching the cable are unioned with that owner.
	owner := map[topo.LinkID]int{}
	for i, r := range reqs {
		if r.MinRate == 0 {
			continue
		}
		for _, e := range r.Graph.Edges {
			if e.Link < 0 {
				continue
			}
			c := t.Cable(e.Link)
			if j, ok := owner[c]; ok {
				union(i, j)
			} else {
				owner[c] = i
			}
		}
	}
	groups := map[int][]int{}
	var roots []int
	for i := range reqs {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// solveComponents provisions each shard independently — reusing or
// warm-starting from p.Reuse where the shard is unchanged — and merges
// the per-shard solutions into one Result. A single token pool of
// p.Workers slots bounds all concurrency: every in-flight shard solve
// holds one token, and branch-and-bound waves inside a shard borrow the
// spare tokens for extra node relaxations (mip.Params.Sem), so shard-level
// and node-level parallelism together never exceed Workers.
func solveComponents(t *topo.Topology, reqs []Request, comps [][]int, h Heuristic, p Params) (*Result, error) {
	reuse := make(map[string]*ShardSolution, len(p.Reuse))
	for _, s := range p.Reuse {
		reuse[s.Key] = s
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	mp := mip.Params{Workers: workers, Sem: sem}
	shards := make([]*ShardSolution, len(comps))
	errs := make([]error, len(comps))
	kind := make([]int8, len(comps)) // 0 cold, 1 warm, 2 reused
	construct := make([]time.Duration, len(comps))
	solve := make([]time.Duration, len(comps))
	var wg sync.WaitGroup
	for ci := range comps {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			idxs := comps[ci]
			sub := make([]Request, len(idxs))
			ids := make([]string, len(idxs))
			for k, i := range idxs {
				sub[k] = reqs[i]
				ids[k] = reqs[i].ID
			}
			key := shardKeyOf(ids)
			var warm *lp.Basis
			if prev, ok := reuse[key]; ok && sameShardShape(prev, sub) {
				if sameShardRates(prev, sub) && !shardTouchesDirty(t, sub, p.Dirty) {
					shards[ci] = prev
					kind[ci] = 2
					return
				}
				// A shape-matched predecessor makes this a cheap re-solve
				// whichever engine runs: the general path warm-starts from
				// the cached basis, the fast path re-runs the network
				// simplex (prev.Basis nil) in a few tree pivots.
				warm = prev.Basis
				kind[ci] = 1
			}
			out, err := solveOne(t, sub, h, p, mp, warm, &construct[ci], &solve[ci])
			if err != nil {
				errs[ci] = err
				return
			}
			out.Key = key
			out.IDs = ids
			out.Graphs = make([]*logical.Graph, len(sub))
			out.Rates = make([]float64, len(sub))
			for k, r := range sub {
				out.Graphs[k], out.Rates[k] = r.Graph, r.MinRate
			}
			shards[ci] = out
		}(ci)
	}
	wg.Wait()
	// solveOne's errors carry no package prefix, so shard attribution and
	// the "provision:" prefix compose without stuttering.
	for ci, err := range errs {
		if err != nil {
			if len(comps) > 1 {
				return nil, fmt.Errorf("provision: shard %d (%s): %w", ci, strings.Join(requestIDs(reqs, comps[ci]), ","), err)
			}
			return nil, fmt.Errorf("provision: %w", err)
		}
	}
	res := &Result{
		Paths:    make(map[string][]logical.Step, len(reqs)),
		Reserved: map[topo.LinkID]float64{},
		Shards:   shards,
	}
	for ci, s := range shards {
		for id, steps := range s.Paths {
			res.Paths[id] = steps
		}
		for l, bits := range s.Reserved {
			res.Reserved[l] += bits
		}
		res.ConstructTime += construct[ci]
		res.SolveTime += solve[ci]
		switch kind[ci] {
		case 0:
			res.ShardsSolved++
		case 1:
			res.ShardsWarm++
		case 2:
			// Reused outright: the shard's nodes were explored by the
			// solve that produced it, not this one.
			res.ShardsReused++
			continue
		}
		res.Nodes += s.Nodes
		if s.Netflow {
			res.NetflowShards++
		}
	}
	res.RMax, res.RMaxBits = reservedStats(t, res.Reserved)
	return res, nil
}

func requestIDs(reqs []Request, idxs []int) []string {
	out := make([]string, len(idxs))
	for k, i := range idxs {
		out[k] = reqs[i].ID
	}
	return out
}

// sameShardShape reports whether prev describes exactly these requests
// over the same product-graph objects (the model shape is then identical,
// so prev.Basis installs directly).
func sameShardShape(prev *ShardSolution, sub []Request) bool {
	if len(prev.IDs) != len(sub) {
		return false
	}
	for k, r := range sub {
		if prev.IDs[k] != r.ID || prev.Graphs[k] != r.Graph {
			return false
		}
	}
	return true
}

func sameShardRates(prev *ShardSolution, sub []Request) bool {
	for k, r := range sub {
		if prev.Rates[k] != r.MinRate {
			return false
		}
	}
	return true
}

// shardTouchesDirty reports whether any of the shard's product graphs can
// ride a dirty cable — in which case the cached solution's model had
// different capacity coefficients and must not be served outright.
func shardTouchesDirty(t *topo.Topology, sub []Request, dirty map[topo.LinkID]bool) bool {
	if len(dirty) == 0 {
		return false
	}
	for _, r := range sub {
		for _, e := range r.Graph.Edges {
			if e.Link >= 0 && dirty[t.Cable(e.Link)] {
				return true
			}
		}
	}
	return false
}

// solveOne solves one request set (a shard, or the whole problem when
// sharding is off) and decodes the outcome. Eligible shards take the
// network-simplex fast path (see netflowEligible); the rest build the MIP
// and run simplex + branch and bound. The warm basis, when non-nil and
// shape-compatible, starts the general path's root relaxation from a
// previous optimum of the same model. Construction and solve durations
// accumulate through construct and solve.
func solveOne(t *topo.Topology, reqs []Request, h Heuristic, p Params, mp mip.Params, warm *lp.Basis, construct, solve *time.Duration) (*ShardSolution, error) {
	if !p.NoNetflow && netflowEligible(t, reqs, h) {
		out, err := solveNetflow(t, reqs, h, construct, solve)
		if err != nil {
			return nil, err
		}
		if out != nil {
			return out, nil
		}
		// Numerical bail-out (pivot limit): fall through to the general
		// path, which shares no state with the aborted attempt.
	}
	start := time.Now()
	bm := buildModel(t, reqs, h, p)
	*construct += time.Since(start)

	solveStart := time.Now()
	mp.LP.Warm = warm
	sol := bm.model.Solve(mp)
	*solve += time.Since(solveStart)
	switch sol.Status {
	case mip.Optimal:
		// proceed
	case mip.Infeasible:
		return nil, fmt.Errorf("no assignment satisfies the path and bandwidth constraints")
	default:
		return nil, fmt.Errorf("solver stopped with status %v", sol.Status)
	}
	out := &ShardSolution{
		Paths:    make(map[string][]logical.Step, len(reqs)),
		Reserved: map[topo.LinkID]float64{},
		Basis:    sol.Basis,
		Nodes:    sol.Nodes,
	}
	for i, r := range reqs {
		vars := bm.xvars[i]
		steps, err := r.Graph.ExtractPath(func(e int) bool { return sol.X[vars[e]] > 0.5 })
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", r.ID, err)
		}
		out.Paths[r.ID] = steps
		addReservations(t, out.Reserved, steps, r.MinRate)
	}
	return out, nil
}
