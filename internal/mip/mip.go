// Package mip implements a mixed-integer programming solver by branch and
// bound over the simplex relaxation in package lp. It completes the
// Gurobi substitution: Merlin's path-selection problem (§3.2, equations
// 1–5) declares one {0,1} decision variable per logical-topology edge, and
// this solver finds integral optima for the three path-selection
// heuristics.
package mip

import (
	"container/heap"
	"math"
	"sync"

	"merlin/internal/lp"
)

// Status reports the outcome of a MIP solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	Limit // node or iteration budget exhausted before proving optimality
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return "unknown"
	}
}

// Solution is the result of a MIP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Nodes     int // branch-and-bound nodes explored
	// Basis is the optimal simplex basis of the incumbent's LP, when the
	// sparse engine produced one. Passing it back through Params.LP.Warm
	// warm-starts a re-solve of a same-shape model with modified rates —
	// the incremental compiler's delta re-provisioning path.
	Basis *lp.Basis
}

// Params tune the search.
type Params struct {
	// MaxNodes bounds branch-and-bound nodes. Zero means default (100000).
	MaxNodes int
	// LP passes through to the relaxation solver.
	LP lp.Params
	// Workers bounds how many node relaxations of one wave solve
	// concurrently; zero or one is serial. The search explores waves of a
	// fixed size in a fixed order regardless of Workers, so the returned
	// solution — status, objective, X, and Nodes — is bit-for-bit
	// identical for every value; Workers changes wall-clock only.
	// provision.Solve sets it to the shard pool's size.
	Workers int
	// Sem, when non-nil, is a shared token pool bounding concurrency
	// across several solvers at once (provision's shard pool). The calling
	// goroutine is assumed to hold one slot already — its own solve is
	// free — and each extra in-wave worker must win a token, acquired
	// non-blockingly: when the pool is busy the wave just solves with
	// fewer workers. Ignored when Workers <= 1.
	Sem chan struct{}
}

// Model wraps an LP model with integrality markers.
type Model struct {
	*lp.Model
	integer []bool
}

// NewModel returns an empty MIP model.
func NewModel() *Model { return &Model{Model: lp.NewModel()} }

// AddIntVar adds an integer variable with the given bounds.
func (m *Model) AddIntVar(lb, ub, cost float64, name string) int {
	id := m.Model.AddVar(lb, ub, cost, name)
	m.markInt(id)
	return id
}

// AddBinVar adds a {0,1} variable.
func (m *Model) AddBinVar(cost float64, name string) int {
	return m.AddIntVar(0, 1, cost, name)
}

func (m *Model) markInt(v int) {
	for len(m.integer) <= v {
		m.integer = append(m.integer, false)
	}
	m.integer[v] = true
}

// IsInteger reports whether v is integer-constrained.
func (m *Model) IsInteger(v int) bool {
	return v < len(m.integer) && m.integer[v]
}

// node is one branch-and-bound subproblem: a set of tightened bounds plus
// the parent's optimal basis, which warm-starts the node's LP re-solve.
// The basis is shared read-only between sibling nodes and across wave
// workers.
type node struct {
	bound   float64 // LP relaxation objective (lower bound when minimizing)
	depth   int
	seq     int // creation order: deterministic heap tie-break
	changes []boundChange
	basis   *lp.Basis
}

type boundChange struct {
	v      int
	lb, ub float64
}

// nodeHeap is a best-bound priority queue. Equal bounds order by creation
// sequence, making the pop order a strict total order — the search
// trajectory is then a pure function of the model, independent of heap
// internals and of how many workers solve each wave.
type nodeHeap struct {
	items []*node
	worst float64 // +1 for minimize, -1 for maximize comparisons
}

func (h *nodeHeap) Len() int { return len(h.items) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.worst*h.items[i].bound, h.worst*h.items[j].bound
	if a != b {
		return a < b
	}
	return h.items[i].seq < h.items[j].seq
}
func (h *nodeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *nodeHeap) Push(x any)    { h.items = append(h.items, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// waveSize is how many heap nodes one wave pops and solves together. It is
// a constant — NOT Params.Workers — so the explored tree is identical for
// every worker count; Workers only decides how many of a wave's LPs run
// concurrently. The cost of the scheme is bounded speculation: a node
// solved early in a wave may produce an incumbent that would have pruned a
// later node of the same wave, wasting at most waveSize-1 LP solves per
// incumbent improvement. When the heap holds fewer nodes (the common case:
// provisioning relaxations are usually integral at the root), waves are
// exactly as lean as serial best-first search.
const waveSize = 8

// intTol is the integrality tolerance: a relaxation value within it of an
// integer counts as integral.
const intTol = 1e-6

// Solve runs best-bound branch and bound over waves of node relaxations.
// Node LPs solve on private clones of the model, so the model itself is
// never mutated — and never shared mutable state between workers.
func (m *Model) Solve(p Params) Solution {
	maxNodes := p.MaxNodes
	if maxNodes == 0 {
		maxNodes = 100000
	}
	var ints []int
	for v := 0; v < m.NumVars(); v++ {
		if m.IsInteger(v) {
			ints = append(ints, v)
		}
	}

	// Root relaxation, solved on the model itself (read-only).
	root := m.Model.Solve(p.LP)
	switch root.Status {
	case lp.Infeasible:
		return Solution{Status: Infeasible}
	case lp.Unbounded:
		return Solution{Status: Unbounded}
	case lp.IterLimit:
		return Solution{Status: Limit}
	}
	sense := 1.0 // minimize by default; for maximization the relaxation
	// bound is an upper bound and "better" flips. Detected via Maximized().
	if m.Maximized() {
		sense = -1.0
	}

	h := &nodeHeap{worst: sense}
	heap.Push(h, &node{bound: root.Objective, basis: root.Basis})
	seq := 1

	// One clone per concurrent wave slot, created on demand. Clones share
	// the constraint rows read-only; bounds tightened for a node solve are
	// restored before the slot moves on.
	clones := make([]*lp.Model, 0, waveSize)
	clone := func(i int) *lp.Model {
		for len(clones) <= i {
			clones = append(clones, m.Model.Clone())
		}
		return clones[i]
	}
	solveNode := func(cl *lp.Model, nd *node) lp.Solution {
		type prev struct {
			v      int
			lb, ub float64
		}
		undo := make([]prev, len(nd.changes))
		for i, c := range nd.changes {
			lb, ub := cl.Bounds(c.v)
			undo[i] = prev{c.v, lb, ub}
			cl.SetBounds(c.v, c.lb, c.ub)
		}
		// Warm-start from the parent's optimal basis: after one bound
		// tightening the basis is typically primal infeasible in a single
		// row, which the LP's composite phase 1 repairs in a few pivots
		// instead of re-solving from the all-artificial basis.
		nodeLP := p.LP
		nodeLP.Warm = nd.basis
		sol := cl.Solve(nodeLP)
		for i := len(undo) - 1; i >= 0; i-- {
			cl.SetBounds(undo[i].v, undo[i].lb, undo[i].ub)
		}
		return sol
	}

	var best *Solution
	nodes := 0
	prune := func(bound float64) bool {
		return best != nil && sense*bound >= sense*best.Objective-1e-9
	}

	wave := make([]*node, 0, waveSize)
	sols := make([]lp.Solution, waveSize)
	limitHit := false
	for h.Len() > 0 {
		if nodes >= maxNodes {
			limitHit = true
			break
		}
		// Gather the wave: up to waveSize best-bound nodes that survive
		// pruning, capped by the remaining node budget.
		wave = wave[:0]
		for len(wave) < waveSize && nodes+len(wave) < maxNodes && h.Len() > 0 {
			nd := heap.Pop(h).(*node)
			if prune(nd.bound) {
				continue
			}
			wave = append(wave, nd)
		}
		if len(wave) == 0 {
			continue
		}
		// Solve the wave's relaxations, possibly concurrently. The caller
		// holds one implicit slot; each extra worker must win a token from
		// the shared pool (when one is configured).
		conc := 1
		if p.Workers > 1 && len(wave) > 1 {
			want := p.Workers
			if want > len(wave) {
				want = len(wave)
			}
			for extra := want - 1; extra > 0; extra-- {
				if p.Sem == nil {
					conc++
					continue
				}
				select {
				case p.Sem <- struct{}{}:
					conc++
				default:
				}
			}
		}
		if conc <= 1 {
			for wi, nd := range wave {
				sols[wi] = solveNode(clone(0), nd)
			}
		} else {
			var wg sync.WaitGroup
			for s := 0; s < conc; s++ {
				cl := clone(s)
				wg.Add(1)
				go func(s int, cl *lp.Model) {
					defer wg.Done()
					for wi := s; wi < len(wave); wi += conc {
						sols[wi] = solveNode(cl, wave[wi])
					}
				}(s, cl)
			}
			wg.Wait()
			if p.Sem != nil {
				for s := 1; s < conc; s++ {
					<-p.Sem
				}
			}
		}
		// Consume the results sequentially in wave order — bookkeeping is
		// single-threaded, so incumbent updates and child creation are
		// deterministic whatever the worker count was.
		for wi, nd := range wave {
			nodes++
			sol := sols[wi]
			if sol.Status != lp.Optimal {
				continue // infeasible or limit: prune
			}
			if prune(sol.Objective) {
				continue
			}
			// Find the most fractional integer variable.
			branchVar := -1
			worstFrac := intTol
			for _, v := range ints {
				x := sol.X[v]
				frac := math.Abs(x - math.Round(x))
				if frac > worstFrac {
					worstFrac = frac
					branchVar = v
				}
			}
			if branchVar < 0 {
				// Integral: new incumbent.
				s := Solution{Status: Optimal, Objective: sol.Objective, X: sol.X, Basis: sol.Basis}
				best = &s
				continue
			}
			x := sol.X[branchVar]
			floor := math.Floor(x)
			lb, ub := boundsWith(m, nd.changes, branchVar)
			// Down branch: v <= floor(x).
			if floor >= lb-1e-9 {
				down := append(append([]boundChange(nil), nd.changes...),
					boundChange{branchVar, lb, floor})
				heap.Push(h, &node{bound: sol.Objective, depth: nd.depth + 1, seq: seq, changes: down, basis: sol.Basis})
				seq++
			}
			// Up branch: v >= ceil(x).
			if floor+1 <= ub+1e-9 {
				up := append(append([]boundChange(nil), nd.changes...),
					boundChange{branchVar, floor + 1, ub})
				heap.Push(h, &node{bound: sol.Objective, depth: nd.depth + 1, seq: seq, changes: up, basis: sol.Basis})
				seq++
			}
		}
	}
	if best == nil {
		if limitHit {
			return Solution{Status: Limit, Nodes: nodes}
		}
		return Solution{Status: Infeasible, Nodes: nodes}
	}
	best.Nodes = nodes
	if limitHit {
		best.Status = Limit // incumbent exists but optimality unproven
	}
	return *best
}

// boundsWith returns the effective bounds of v under the node's changes
// (falling back to the model's current bounds).
func boundsWith(m *Model, changes []boundChange, v int) (float64, float64) {
	lb, ub := m.Bounds(v)
	for _, c := range changes {
		if c.v == v {
			lb, ub = c.lb, c.ub
		}
	}
	return lb, ub
}
