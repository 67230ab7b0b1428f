package lp

import (
	"math"
	"math/rand"
	"testing"
)

const eps = 1e-6

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-5*(1+math.Abs(b)) }

func TestTrivialMin(t *testing.T) {
	// min x s.t. x >= 3, x in [0, 10]
	m := NewModel()
	x := m.AddVar(0, 10, 1, "x")
	m.AddConstraint([]Term{{x, 1}}, GE, 3, "c")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.X[x], 3) || !approx(sol.Objective, 3) {
		t.Fatalf("x = %v obj = %v, want 3", sol.X[x], sol.Objective)
	}
}

func TestTwoVarLP(t *testing.T) {
	// Classic: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, solved
	// as min -3x - 5y. Optimum at (2, 6) with value 36.
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), -3, "x")
	y := m.AddVar(0, math.Inf(1), -5, "y")
	m.AddConstraint([]Term{{x, 1}}, LE, 4, "c1")
	m.AddConstraint([]Term{{y, 2}}, LE, 12, "c2")
	m.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18, "c3")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -36) {
		t.Fatalf("obj = %v, want -36", sol.Objective)
	}
	if !approx(sol.X[x], 2) || !approx(sol.X[y], 6) {
		t.Fatalf("x,y = %v,%v want 2,6", sol.X[x], sol.X[y])
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + y = 5, x <= 2 → x=2? No: min, so any split works,
	// objective fixed at 5. Then minimize 2x + y: best x=0, y=5.
	m := NewModel()
	x := m.AddVar(0, 2, 2, "x")
	y := m.AddVar(0, math.Inf(1), 1, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5, "sum")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 5) || !approx(sol.X[x], 0) || !approx(sol.X[y], 5) {
		t.Fatalf("got obj=%v x=%v y=%v", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 1, 1, "x")
	m.AddConstraint([]Term{{x, 1}}, GE, 2, "impossible")
	sol := m.Solve(Params{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 10, 1, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5, "a")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 7, "b")
	sol := m.Solve(Params{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with no upper bound.
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), -1, "x")
	m.AddConstraint([]Term{{x, -1}}, LE, 0, "c") // -x <= 0, always true
	sol := m.Solve(Params{})
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// min -x - y with x,y in [0,1] and x + y <= 1.5.
	m := NewModel()
	x := m.AddVar(0, 1, -1, "x")
	y := m.AddVar(0, 1, -1, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1.5, "cap")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -1.5) {
		t.Fatalf("obj = %v, want -1.5", sol.Objective)
	}
	if sol.X[x] > 1+eps || sol.X[y] > 1+eps {
		t.Fatalf("bounds violated: %v %v", sol.X[x], sol.X[y])
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y with x in [2,10], y in [3,10], x + y >= 6 → (2,4) or (3,3): obj 6.
	m := NewModel()
	x := m.AddVar(2, 10, 1, "x")
	y := m.AddVar(3, 10, 1, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 6, "c")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 6) {
		t.Fatalf("obj = %v, want 6", sol.Objective)
	}
	if sol.X[x] < 2-eps || sol.X[y] < 3-eps {
		t.Fatalf("lower bounds violated: %v %v", sol.X[x], sol.X[y])
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// A classically degenerate LP (Beale's example structure).
	m := NewModel()
	x1 := m.AddVar(0, math.Inf(1), -0.75, "x1")
	x2 := m.AddVar(0, math.Inf(1), 150, "x2")
	x3 := m.AddVar(0, math.Inf(1), -0.02, "x3")
	x4 := m.AddVar(0, math.Inf(1), 6, "x4")
	m.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0, "c1")
	m.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0, "c2")
	m.AddConstraint([]Term{{x3, 1}}, LE, 1, "c3")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -0.05) {
		t.Fatalf("obj = %v, want -0.05", sol.Objective)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Max flow on a diamond: s->a (3), s->b (2), a->t (2), b->t (2), a->b (1).
	// Max flow = 4, found by minimizing -f.
	m := NewModel()
	sa := m.AddVar(0, 3, 0, "sa")
	sb := m.AddVar(0, 2, 0, "sb")
	at := m.AddVar(0, 2, 0, "at")
	bt := m.AddVar(0, 2, 0, "bt")
	ab := m.AddVar(0, 1, 0, "ab")
	f := m.AddVar(0, math.Inf(1), -1, "f")
	// conservation at a: sa = at + ab
	m.AddConstraint([]Term{{sa, 1}, {at, -1}, {ab, -1}}, EQ, 0, "a")
	// conservation at b: sb + ab = bt
	m.AddConstraint([]Term{{sb, 1}, {ab, 1}, {bt, -1}}, EQ, 0, "b")
	// f = sa + sb
	m.AddConstraint([]Term{{f, 1}, {sa, -1}, {sb, -1}}, EQ, 0, "src")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(-sol.Objective, 4) {
		t.Fatalf("max flow = %v, want 4", -sol.Objective)
	}
}

func TestMinMaxViaAuxVariable(t *testing.T) {
	// The min-max pattern the Merlin heuristics use: minimize z with
	// z >= x_i, Σx_i = 3, x_i <= 2 → optimal z = 1 (spread evenly).
	m := NewModel()
	z := m.AddVar(0, math.Inf(1), 1, "z")
	var xs []int
	for i := 0; i < 3; i++ {
		xs = append(xs, m.AddVar(0, 2, 0, "x"))
	}
	sum := make([]Term, 0, 3)
	for _, x := range xs {
		m.AddConstraint([]Term{{z, 1}, {x, -1}}, GE, 0, "zbound")
		sum = append(sum, Term{x, 1})
	}
	m.AddConstraint(sum, EQ, 3, "total")
	sol := m.Solve(Params{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 1) {
		t.Fatalf("minmax = %v, want 1", sol.Objective)
	}
}

func TestDuplicateTermsAreSummed(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, 1, "x")
	m.AddConstraint([]Term{{x, 1}, {x, 1}}, GE, 4, "2x>=4")
	sol := m.Solve(Params{})
	if sol.Status != Optimal || !approx(sol.X[x], 2) {
		t.Fatalf("got %v x=%v, want x=2", sol.Status, sol.X)
	}
}

func TestBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel()
	m.AddVar(5, 1, 0, "bad")
}

func TestUnknownVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel()
	m.AddConstraint([]Term{{3, 1}}, LE, 1, "bad")
}

// checkFeasible verifies that a solution satisfies every constraint and
// bound of the model within tolerance.
func checkFeasible(t *testing.T, m *Model, sol Solution) {
	t.Helper()
	for j := 0; j < m.NumVars(); j++ {
		lb, ub := m.Bounds(j)
		if sol.X[j] < lb-1e-5 || sol.X[j] > ub+1e-5 {
			t.Fatalf("var %d = %v outside [%v,%v]", j, sol.X[j], lb, ub)
		}
	}
	for _, c := range m.cons {
		lhs := 0.0
		for _, tm := range c.Terms {
			lhs += tm.Coeff * sol.X[tm.Var]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+1e-5 {
				t.Fatalf("constraint %q violated: %v > %v", c.Name, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-1e-5 {
				t.Fatalf("constraint %q violated: %v < %v", c.Name, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > 1e-5 {
				t.Fatalf("constraint %q violated: %v != %v", c.Name, lhs, c.RHS)
			}
		}
	}
}

// Property test: random feasible LPs — generate a random point, random
// constraints satisfied by it, then check the solver returns a feasible
// solution with objective no worse than the known point.
func TestRandomFeasibleLPs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(6)
		m := NewModel()
		point := make([]float64, n)
		for j := 0; j < n; j++ {
			point[j] = r.Float64() * 5
			ub := point[j] + r.Float64()*5
			m.AddVar(0, ub, r.NormFloat64(), "v")
		}
		rows := 1 + r.Intn(6)
		for i := 0; i < rows; i++ {
			terms := make([]Term, 0, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				c := math.Round(r.NormFloat64() * 3)
				if c != 0 {
					terms = append(terms, Term{j, c})
					lhs += c * point[j]
				}
			}
			if len(terms) == 0 {
				continue
			}
			switch r.Intn(3) {
			case 0:
				m.AddConstraint(terms, LE, lhs+r.Float64(), "r")
			case 1:
				m.AddConstraint(terms, GE, lhs-r.Float64(), "r")
			default:
				m.AddConstraint(terms, EQ, lhs, "r")
			}
		}
		sol := m.Solve(Params{})
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for feasible LP", trial, sol.Status)
		}
		checkFeasible(t, m, sol)
		// The known feasible point bounds the optimum from above (minimize).
		known := 0.0
		for j := 0; j < n; j++ {
			known += m.cost[j] * point[j]
		}
		if sol.Objective > known+1e-4 {
			t.Fatalf("trial %d: objective %v worse than known feasible %v", trial, sol.Objective, known)
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A transportation-style LP: 20 sources, 20 sinks.
	build := func() *Model {
		r := rand.New(rand.NewSource(5))
		m := NewModel()
		const k = 20
		vars := make([][]int, k)
		for i := range vars {
			vars[i] = make([]int, k)
			for j := range vars[i] {
				vars[i][j] = m.AddVar(0, math.Inf(1), 1+r.Float64(), "x")
			}
		}
		for i := 0; i < k; i++ {
			terms := make([]Term, k)
			for j := 0; j < k; j++ {
				terms[j] = Term{vars[i][j], 1}
			}
			m.AddConstraint(terms, EQ, 10, "supply")
		}
		for j := 0; j < k; j++ {
			terms := make([]Term, k)
			for i := 0; i < k; i++ {
				terms[i] = Term{vars[i][j], 1}
			}
			m.AddConstraint(terms, EQ, 10, "demand")
		}
		return m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := build()
		if sol := m.Solve(Params{}); sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
