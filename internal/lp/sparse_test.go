package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandomLP generates a random feasible LP around a known point, the
// same construction as TestRandomFeasibleLPs.
func buildRandomLP(r *rand.Rand) (*Model, []float64) {
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
	return m, point
}

// TestSparseMatchesDenseRandom cross-checks the two engines on random
// LPs: statuses must agree, and when optimal the objectives must agree to
// 1e-6 (the vertex reached may differ; the optimum value may not).
func TestSparseMatchesDenseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 200; trial++ {
		m, _ := buildRandomLP(r)
		ds := m.solveDense()
		sp := m.Solve(Params{})
		if ds.Status != sp.Status {
			t.Fatalf("trial %d: dense %v vs sparse %v", trial, ds.Status, sp.Status)
		}
		if ds.Status != Optimal {
			continue
		}
		if math.Abs(ds.Objective-sp.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs sparse obj %v", trial, ds.Objective, sp.Objective)
		}
		checkFeasible(t, m, sp)
	}
}

// TestSparseMatchesDenseInfeasible cross-checks infeasibility detection.
func TestSparseMatchesDenseInfeasible(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	agreeInfeasible := 0
	for trial := 0; trial < 100; trial++ {
		m, _ := buildRandomLP(r)
		// Append a contradictory pair to force infeasibility.
		v := m.AddVar(0, 10, 0, "w")
		m.AddConstraint([]Term{{v, 1}}, GE, 6, "a")
		m.AddConstraint([]Term{{v, 1}}, LE, 4, "b")
		ds := m.solveDense()
		sp := m.Solve(Params{})
		if ds.Status != Infeasible || sp.Status != Infeasible {
			t.Fatalf("trial %d: dense %v sparse %v, want both infeasible", trial, ds.Status, sp.Status)
		}
		agreeInfeasible++
	}
	if agreeInfeasible != 100 {
		t.Fatalf("agree = %d", agreeInfeasible)
	}
}

// TestSparseUnbounded checks the sparse engine reports unbounded rays.
func TestSparseUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, math.Inf(1), -1, "x")
	m.AddConstraint([]Term{{x, -1}}, LE, 0, "c")
	if sol := m.Solve(Params{}); sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// TestSparseTransportationMatchesDense cross-checks a mid-size structured
// LP (the BenchmarkSimplexMedium model).
func TestSparseTransportationMatchesDense(t *testing.T) {
	m := buildTransportation(20)
	ds := m.solveDense()
	sp := m.Solve(Params{})
	if ds.Status != Optimal || sp.Status != Optimal {
		t.Fatalf("dense %v sparse %v", ds.Status, sp.Status)
	}
	if math.Abs(ds.Objective-sp.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
		t.Fatalf("dense obj %v vs sparse obj %v", ds.Objective, sp.Objective)
	}
}

// TestWarmStartSameModel re-solves a model from its own optimal basis: the
// warm solve must agree and converge in (near) zero iterations.
func TestWarmStartSameModel(t *testing.T) {
	m := buildTransportation(10)
	first := m.Solve(Params{})
	if first.Status != Optimal || first.Basis == nil {
		t.Fatalf("first solve: %v (basis %v)", first.Status, first.Basis != nil)
	}
	second := m.Solve(Params{Warm: first.Basis})
	if second.Status != Optimal {
		t.Fatalf("warm solve: %v", second.Status)
	}
	if math.Abs(first.Objective-second.Objective) > 1e-6*(1+math.Abs(first.Objective)) {
		t.Fatalf("objectives differ: %v vs %v", first.Objective, second.Objective)
	}
	if second.Iters > 3 {
		t.Fatalf("warm re-solve took %d iterations", second.Iters)
	}
}

// TestWarmStartAfterBoundChange mimics a branch-and-bound child node:
// tighten one variable's bounds and warm-start from the parent basis. The
// answer must match a cold solve exactly.
func TestWarmStartAfterBoundChange(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 120; trial++ {
		m, _ := buildRandomLP(r)
		parent := m.Solve(Params{})
		if parent.Status != Optimal {
			continue
		}
		// Tighten a random variable the way branching does.
		v := r.Intn(m.NumVars())
		lb, ub := m.Bounds(v)
		x := parent.X[v]
		var nlb, nub float64
		if r.Intn(2) == 0 {
			nlb, nub = lb, math.Floor(x) // down branch
		} else {
			nlb, nub = math.Floor(x)+1, ub // up branch
		}
		if nub < nlb {
			continue
		}
		m.SetBounds(v, nlb, nub)
		warm := m.Solve(Params{Warm: parent.Basis})
		cold := m.Solve(Params{})
		m.SetBounds(v, lb, ub)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm obj %v vs cold obj %v", trial, warm.Objective, cold.Objective)
		}
		checkFeasible(t, m, warm)
	}
}

// TestWarmStartMismatchedBasisIgnored feeds a basis from a different model
// shape; the solver must fall back to a cold start, not crash.
func TestWarmStartMismatchedBasisIgnored(t *testing.T) {
	small := buildTransportation(3)
	sb := small.Solve(Params{})
	big := buildTransportation(5)
	sol := big.Solve(Params{Warm: sb.Basis})
	cold := big.Solve(Params{})
	if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("mismatched warm basis: %v obj %v (cold %v)", sol.Status, sol.Objective, cold.Objective)
	}
}

// TestWarmNumericalFailureRetriesCold re-solves a nearly singular model
// (two rows parallel to within 1e-8) from its optimal basis after a
// branching bound fixes x1 at 0. That warm start breaks down numerically;
// Solve must retry from the cold start and find the optimum.
func TestWarmNumericalFailureRetriesCold(t *testing.T) {
	m := NewModel()
	x0 := m.AddVar(0, 3, 0.2, "x0")
	x1 := m.AddVar(0, 4, -4, "x1")
	y := m.AddVar(0, math.Inf(1), 10, "y")
	m.AddConstraint([]Term{{x0, -8e-06}, {x1, 6.000000000000001e-05}, {y, 10}}, GE, 0, "a")
	m.AddConstraint([]Term{{x0, -7.999999968e-06}, {x1, 5.9999999760000006e-05}, {y, 10.00000002}}, EQ, 0, "b")
	m.AddConstraint(nil, LE, 400, "c")
	parent := m.Solve(Params{})
	if parent.Status != Optimal {
		t.Fatalf("parent: %v", parent.Status)
	}
	m.SetBounds(x1, 0, 0)
	if st := m.solve(parent.Basis).Status; st != NumericalFailure {
		t.Fatalf("warm start alone gave %v; the instance no longer breaks down", st)
	}
	warm := m.Solve(Params{Warm: parent.Basis})
	ref := m.solveDense()
	if warm.Status != Optimal || ref.Status != Optimal || math.Abs(warm.Objective-ref.Objective) > 1e-6 {
		t.Fatalf("warm retry %v obj %v, dense %v obj %v", warm.Status, warm.Objective, ref.Status, ref.Objective)
	}
	checkFeasible(t, m, warm)
}

// buildTransportation builds a k-source, k-sink transportation LP.
func buildTransportation(k int) *Model {
	r := rand.New(rand.NewSource(5))
	m := NewModel()
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

// BenchmarkSimplexMediumSparse / Dense time the engine and the test
// reference on the same transportation LP for an apples-to-apples
// comparison.
func benchSimplexMedium(b *testing.B, solve func(*Model) Solution) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := buildTransportation(20)
		if sol := solve(m); sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkSimplexMediumSparse(b *testing.B) {
	benchSimplexMedium(b, func(m *Model) Solution { return m.Solve(Params{}) })
}
func BenchmarkSimplexMediumDense(b *testing.B) { benchSimplexMedium(b, (*Model).solveDense) }

// decodeLP builds an LP from fuzz bytes: 1 + b₀%6 columns and b₁%7 rows
// of small integer data. Each column then reads (cost, lower, span): cost in
// [-7, 7], lower bound 0 to -3, and upper bound lower+span%8, or +Inf for
// a negative span. Each row reads (sense, rhs, one coefficient per column):
// sense LE, GE or EQ, rhs in [-7, 7], coefficients in [-3, 3]. Missing
// bytes read as zero.
func decodeLP(data []byte) *Model {
	next := func() int8 {
		if len(data) == 0 {
			return 0
		}
		b := int8(data[0])
		data = data[1:]
		return b
	}
	ncols := 1 + int(uint8(next())%6)
	nrows := int(uint8(next()) % 7)
	m := NewModel()
	for j := 0; j < ncols; j++ {
		cost := float64(next() % 8)
		lo := -float64(uint8(next()) % 4)
		up := math.Inf(1)
		if span := next(); span >= 0 {
			up = lo + float64(span%8)
		}
		m.AddVar(lo, up, cost, "v")
	}
	for i := 0; i < nrows; i++ {
		sense := Sense(uint8(next()) % 3)
		rhs := float64(next() % 8)
		var terms []Term
		for j := 0; j < ncols; j++ {
			if c := float64(next() % 4); c != 0 {
				terms = append(terms, Term{j, c})
			}
		}
		m.AddConstraint(terms, sense, rhs, "r")
	}
	return m
}

// FuzzSparseMatchesDense cross-checks the sparse engine against the dense
// reference on small LPs: statuses agree, optimal objectives agree to
// 1e-6 relative, the sparse point is feasible, and the sparse engine
// never gives up with NumericalFailure.
func FuzzSparseMatchesDense(f *testing.F) {
	const inf = -1 // span byte for an unbounded column
	for _, seed := range [][]int8{
		// TestTwoVarLP's shape: min -3x - 5y with x <= 4, y <= 6 and
		// 3x + 2y <= 7.
		{1, 3, -3, 0, inf, -5, 0, inf, 0, 4, 1, 0, 0, 6, 0, 1, 0, 7, 3, 2},
		// Degenerate: two rows tight at the origin (TestDegenerateDoesNotCycle).
		{2, 3, -3, 0, inf, 1, 0, 2, -1, 0, inf,
			0, 0, 1, -3, -1, 0, 0, 2, -3, -1, 0, 1, 0, 0, 1},
		// Infeasible: x in [0, 1], x >= 2 (TestInfeasible).
		{0, 1, 1, 0, 1, 1, 2, 1},
		// Infeasible equalities: x + y = 5 and x + y = 7.
		{1, 2, 1, 0, 7, 1, 0, 7, 2, 5, 1, 1, 2, 7, 1, 1},
		// Unbounded: min -x with -x <= 0 (TestUnbounded).
		{0, 1, -1, 0, inf, 0, 0, -1},
		// Negative lower bounds and two empty rows: min x - 2y with
		// x >= -3 and y in [-2, 3].
		{1, 2, 1, 3, inf, -2, 2, 5, 1, -4, 0, 0, 0, 0},
	} {
		b := make([]byte, len(seed))
		for i, v := range seed {
			b[i] = byte(v)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeLP(data)
		ds := m.solveDense()
		sp := m.Solve(Params{})
		if sp.Status == NumericalFailure {
			t.Fatalf("sparse engine failed numerically (dense: %v)", ds.Status)
		}
		if ds.Status != sp.Status {
			t.Fatalf("dense %v vs sparse %v", ds.Status, sp.Status)
		}
		if sp.Status != Optimal {
			return
		}
		if math.Abs(ds.Objective-sp.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("dense obj %v vs sparse obj %v", ds.Objective, sp.Objective)
		}
		checkFeasible(t, m, sp)
	})
}
