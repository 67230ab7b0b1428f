package mip

import (
	"math"
	"math/rand"
	"testing"

	"merlin/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-5*(1+math.Abs(b)) }

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary), solved as a minimum of
	// the negated values: best {a,b} = 16.
	m := NewModel()
	a := m.AddBinVar(-10, "a")
	b := m.AddBinVar(-6, "b")
	c := m.AddBinVar(-4, "c")
	m.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}, {Var: c, Coeff: 1}}, lp.LE, 2, "cap")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -16) {
		t.Fatalf("obj = %v, want -16", sol.Objective)
	}
	if !approx(sol.X[a], 1) || !approx(sol.X[b], 1) || !approx(sol.X[c], 0) {
		t.Fatalf("x = %v, want [1 1 0]", sol.X)
	}
}

func TestFractionalRelaxationForcedInteger(t *testing.T) {
	// min -x - y s.t. 2x + 2y <= 3 (binary): LP gives -1.5, MIP gives -1.
	m := NewModel()
	x := m.AddBinVar(-1, "x")
	y := m.AddBinVar(-1, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}, {Var: y, Coeff: 2}}, lp.LE, 3, "cap")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -1) {
		t.Fatalf("obj = %v, want -1", sol.Objective)
	}
}

func TestIntegerGeneral(t *testing.T) {
	// min 3x + 4y s.t. x + 2y >= 7, x,y integer >= 0.
	// LP optimum: y=3.5 → obj 14. Integer optimum: (1,3) = 15 or (7,0) = 21
	// or (3,2) = 17... check: x+2y>=7; (1,3): 1+6=7 ok cost 15. (0,4)=16.
	// (3,2)=3+4=7 ok cost 17. So 15.
	m := NewModel()
	x := m.AddIntVar(0, 100, 3, "x")
	y := m.AddIntVar(0, 100, 4, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 2}}, lp.GE, 7, "c")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 15) {
		t.Fatalf("obj = %v, want 15", sol.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	m := NewModel()
	x := m.AddBinVar(1, "x")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 1}}, lp.GE, 2, "impossible")
	sol := m.Solve(Params{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestIntegerInfeasibleButLPFeasible(t *testing.T) {
	// 2x = 1 with x binary: LP x=0.5 feasible, integer infeasible.
	m := NewModel()
	x := m.AddBinVar(0, "x")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}}, lp.EQ, 1, "odd")
	sol := m.Solve(Params{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -2x - y, x binary, y continuous <= 2.5, x + y <= 3.
	// Best: x=1, y=2 (y bounded by 2.5 and x+y<=3 → y=2). obj=-4.
	m := NewModel()
	x := m.AddBinVar(-2, "x")
	y := m.Model.AddVar(0, 2.5, -1, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.LE, 3, "c")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -4) {
		t.Fatalf("obj = %v, want -4", sol.Objective)
	}
	if !approx(sol.X[x], 1) || !approx(sol.X[y], 2) {
		t.Fatalf("x = %v, want [1 2]", sol.X)
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	m := NewModel()
	x := m.AddBinVar(-1, "x")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 1, "c")
	_ = m.Solve(Params{})
	lb, ub := m.Bounds(x)
	if lb != 0 || ub != 1 {
		t.Fatalf("bounds after solve = [%v,%v], want [0,1]", lb, ub)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing branching with MaxNodes=1 must report Limit.
	m := NewModel()
	x := m.AddBinVar(-1, "x")
	y := m.AddBinVar(-1, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}, {Var: y, Coeff: 2}}, lp.LE, 3, "cap")
	sol := m.Solve(Params{MaxNodes: 1})
	if sol.Status != Limit {
		t.Fatalf("status = %v, want limit", sol.Status)
	}
}

// TestRootNumericalFailureStops: a root relaxation that fails numerically
// (two rows parallel to within 2e-9, coefficients from 0.04 to 500)
// ends the search with NumericalFailure, not Infeasible or Optimal.
func TestRootNumericalFailureStops(t *testing.T) {
	m := NewModel()
	x := m.Model.AddVar(0, math.Inf(1), 100, "x")
	y := m.AddIntVar(0, math.Inf(1), -0.03, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 0.04}, {Var: y, Coeff: -500}}, lp.EQ, 0.30000000000000004, "a")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 0.04}, {Var: y, Coeff: -500.000001}}, lp.LE, 0, "b")
	if st := m.Model.Solve(lp.Params{}).Status; st != lp.NumericalFailure {
		t.Fatalf("root relaxation gave %v; the instance no longer breaks down", st)
	}
	if sol := m.Solve(Params{}); sol.Status != NumericalFailure {
		t.Fatalf("status = %v, want numerical failure", sol.Status)
	}
}

// TestNodeNumericalFailureStops: the root relaxation solves, but the down
// branch on x fails numerically from the warm and the cold start alike.
// The search must end with NumericalFailure at that node for every worker
// count; pruning it would have reported the model infeasible.
func TestNodeNumericalFailureStops(t *testing.T) {
	m := NewModel()
	x := m.AddIntVar(0, math.Inf(1), -3, "x")
	y := m.Model.AddVar(0, math.Inf(1), -0.09, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 200}, {Var: y, Coeff: -2e-05}}, lp.EQ, -0.2, "a")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 200.0000006}, {Var: y, Coeff: -2.00000001e-05}}, lp.EQ, -100, "b")
	root := m.Model.Solve(lp.Params{})
	if root.Status != lp.Optimal || math.Abs(root.X[x]-math.Round(root.X[x])) <= intTol {
		t.Fatalf("root relaxation %v x=%v; the instance no longer branches", root.Status, root.X)
	}
	for _, workers := range []int{1, 4} {
		sol := m.Solve(Params{Workers: workers})
		if sol.Status != NumericalFailure || sol.Nodes < 2 {
			t.Fatalf("workers=%d: status %v after %d nodes, want numerical failure below the root", workers, sol.Status, sol.Nodes)
		}
	}
}

// Shortest path as a 0/1 MIP on a small graph, checked against Dijkstra by
// hand: s->a (1), a->t (1), s->t (3). Optimum picks s->a->t, cost 2.
func TestShortestPathMIP(t *testing.T) {
	m := NewModel()
	sa := m.AddBinVar(1, "sa")
	at := m.AddBinVar(1, "at")
	st := m.AddBinVar(3, "st")
	// Flow out of s = 1; into t = 1; conservation at a.
	m.AddConstraint([]lp.Term{{Var: sa, Coeff: 1}, {Var: st, Coeff: 1}}, lp.EQ, 1, "s")
	m.AddConstraint([]lp.Term{{Var: at, Coeff: 1}, {Var: st, Coeff: 1}}, lp.EQ, 1, "t")
	m.AddConstraint([]lp.Term{{Var: sa, Coeff: 1}, {Var: at, Coeff: -1}}, lp.EQ, 0, "a")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 2) {
		t.Fatalf("obj = %v, want 2", sol.Objective)
	}
	if !approx(sol.X[sa], 1) || !approx(sol.X[at], 1) || !approx(sol.X[st], 0) {
		t.Fatalf("x = %v", sol.X)
	}
}

// Property: on random small binary knapsacks, branch and bound matches
// brute-force enumeration. Two draws: seed 21 (up to 7 items, capacity
// < 20) and seed 404 (up to 8 items, capacity < 25, each item's value
// drawn before its weight).
func TestRandomKnapsacksMatchBruteForce(t *testing.T) {
	for _, draw := range []struct {
		seed             int64
		trials, maxExtra int
		capRange         float64
		valueFirst       bool
	}{
		{seed: 21, trials: 40, maxExtra: 5, capRange: 20},
		{seed: 404, trials: 30, maxExtra: 6, capRange: 25, valueFirst: true},
	} {
		r := rand.New(rand.NewSource(draw.seed))
		for trial := 0; trial < draw.trials; trial++ {
			n := 3 + r.Intn(draw.maxExtra)
			weights := make([]float64, n)
			values := make([]float64, n)
			m := NewModel()
			vars := make([]int, n)
			terms := make([]lp.Term, n)
			for i := 0; i < n; i++ {
				a, b := 1+math.Floor(r.Float64()*9), 1+math.Floor(r.Float64()*9)
				weights[i], values[i] = a, b
				if draw.valueFirst {
					values[i], weights[i] = a, b
				}
				vars[i] = m.AddBinVar(-values[i], "x")
				terms[i] = lp.Term{Var: vars[i], Coeff: weights[i]}
			}
			cap := math.Floor(r.Float64() * draw.capRange)
			m.AddConstraint(terms, lp.LE, cap, "cap")
			sol := m.Solve(Params{})
			if sol.Status != Optimal {
				t.Fatalf("seed %d trial %d: status %v", draw.seed, trial, sol.Status)
			}
			// Brute force.
			best := 0.0
			for mask := 0; mask < 1<<n; mask++ {
				w, v := 0.0, 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						w += weights[i]
						v += values[i]
					}
				}
				if w <= cap && v > best {
					best = v
				}
			}
			if !approx(-sol.Objective, best) {
				t.Fatalf("seed %d trial %d: MIP %v != brute force %v", draw.seed, trial, -sol.Objective, best)
			}
			// Solution must be integral.
			for _, v := range vars {
				x := sol.X[v]
				if math.Abs(x-math.Round(x)) > 1e-6 {
					t.Fatalf("seed %d trial %d: non-integral %v", draw.seed, trial, x)
				}
			}
		}
	}
}

// Property: the wave-parallel search is deterministic — for any worker
// count (including borrowing from a shared token pool), Solve returns the
// serial incumbent bit-for-bit: same status, same objective, same X
// vector, same explored-node count. Hard multi-constraint knapsacks force
// deep trees so the waves genuinely run concurrent relaxations.
func TestParallelMatchesSerialBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 8 + r.Intn(6)
		m := NewModel()
		terms := make([][]lp.Term, 3)
		for i := 0; i < n; i++ {
			v := m.AddBinVar(-1-math.Floor(r.Float64()*9), "x")
			for c := range terms {
				terms[c] = append(terms[c], lp.Term{Var: v, Coeff: 1 + math.Floor(r.Float64()*9)})
			}
		}
		for c := range terms {
			m.AddConstraint(terms[c], lp.LE, 10+math.Floor(r.Float64()*25), "cap")
		}
		serial := m.Solve(Params{})
		sem := make(chan struct{}, 8)
		for _, p := range []Params{
			{Workers: 2},
			{Workers: 4},
			{Workers: 8, Sem: sem},
		} {
			par := m.Solve(p)
			if par.Status != serial.Status || par.Objective != serial.Objective || par.Nodes != serial.Nodes {
				t.Fatalf("trial %d workers=%d: (%v, %v, %d nodes) != serial (%v, %v, %d nodes)",
					trial, p.Workers, par.Status, par.Objective, par.Nodes,
					serial.Status, serial.Objective, serial.Nodes)
			}
			if serial.Status != Optimal {
				continue
			}
			for v := range serial.X {
				if par.X[v] != serial.X[v] {
					t.Fatalf("trial %d workers=%d: X[%d] = %v != serial %v",
						trial, p.Workers, v, par.X[v], serial.X[v])
				}
			}
		}
		if len(sem) != 0 {
			t.Fatalf("trial %d: %d tokens leaked from the shared pool", trial, len(sem))
		}
	}
}

func BenchmarkKnapsack12(b *testing.B) {
	r := rand.New(rand.NewSource(77))
	n := 12
	weights := make([]float64, n)
	values := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + math.Floor(r.Float64()*9)
		values[i] = 1 + math.Floor(r.Float64()*9)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		m := NewModel()
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			v := m.AddBinVar(-values[i], "x")
			terms[i] = lp.Term{Var: v, Coeff: weights[i]}
		}
		m.AddConstraint(terms, lp.LE, 30, "cap")
		if sol := m.Solve(Params{}); sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
