package lp

import "math"

// This file holds a dense two-phase tableau simplex, the reference the
// sparse revised simplex (sparse.go) is cross-checked against: both must
// agree on status and objective. It shares no solve code with the sparse
// engine, only the model and the tolerances.

// simplex holds the dense working state.
type simplex struct {
	m, n    int         // rows, total columns (structural+slack+artificial)
	tab     [][]float64 // m × n tableau (B^{-1}A)
	beta    []float64   // current values of basic variables, per row
	lower   []float64
	upper   []float64
	cost    []float64 // phase-2 cost
	status  []vstat
	basis   []int // basis[i] = column basic in row i
	nstruct int   // structural variable count
	nart    int   // artificial count
	iters   int
}

// value returns the current value of column j.
func (s *simplex) value(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lower[j]
	case atUpper:
		return s.upper[j]
	default:
		for i, b := range s.basis {
			if b == j {
				return s.beta[i]
			}
		}
		return 0 // unreachable
	}
}

// solveDense solves the model with the dense two-phase tableau simplex.
func (m *Model) solveDense() Solution {
	nrows := len(m.cons)
	// Column layout: structural | slacks | artificials.
	nslack := 0
	for _, c := range m.cons {
		if c.Sense != EQ {
			nslack++
		}
	}
	n := m.nvars + nslack + nrows // one artificial per row (possibly unused)
	s := &simplex{
		m:       nrows,
		n:       n,
		lower:   make([]float64, n),
		upper:   make([]float64, n),
		cost:    make([]float64, n),
		status:  make([]vstat, n),
		basis:   make([]int, nrows),
		beta:    make([]float64, nrows),
		nstruct: m.nvars,
	}
	copy(s.lower, m.lower)
	copy(s.upper, m.upper)
	copy(s.cost, m.cost)
	s.tab = make([][]float64, nrows)
	for i := range s.tab {
		s.tab[i] = make([]float64, n)
	}
	slackAt := m.nvars
	artAt := m.nvars + nslack
	// Fill rows; give every slack bounds [0, inf).
	for i, c := range m.cons {
		row := s.tab[i]
		for _, t := range c.Terms {
			row[t.Var] += t.Coeff
		}
		switch c.Sense {
		case LE:
			row[slackAt] = 1
			s.upper[slackAt] = math.Inf(1)
			slackAt++
		case GE:
			row[slackAt] = -1
			s.upper[slackAt] = math.Inf(1)
			slackAt++
		}
	}
	// Nonbasic variables start at the bound closer to zero (all our
	// lower bounds are finite).
	for j := 0; j < artAt; j++ {
		if !math.IsInf(s.upper[j], 1) && math.Abs(s.upper[j]) < math.Abs(s.lower[j]) {
			s.status[j] = atUpper
		} else {
			s.status[j] = atLower
		}
	}
	// Compute initial residuals and install artificials as the basis.
	for i, c := range m.cons {
		resid := c.RHS
		for j := 0; j < artAt; j++ {
			if s.tab[i][j] != 0 {
				resid -= s.tab[i][j] * s.value(j)
			}
		}
		art := artAt + i
		if resid < 0 {
			// Negate the row (it is an equality after slack introduction)
			// so the artificial can enter with coefficient +1, keeping the
			// basis an identity submatrix as pricing assumes.
			for j := 0; j < artAt; j++ {
				s.tab[i][j] = -s.tab[i][j]
			}
			resid = -resid
		}
		s.tab[i][art] = 1
		s.lower[art] = 0
		s.upper[art] = math.Inf(1)
		s.status[art] = basic
		s.basis[i] = art
		s.beta[i] = resid
	}
	s.nart = nrows

	// Phase 1: minimize the sum of artificials.
	phase1 := make([]float64, n)
	for i := 0; i < nrows; i++ {
		phase1[artAt+i] = 1
	}
	st := s.run(phase1)
	if st == IterLimit {
		return Solution{Status: IterLimit, Iters: s.iters}
	}
	sum := 0.0
	for i, b := range s.basis {
		if b >= artAt {
			sum += s.beta[i]
		}
	}
	if sum > tolFeas {
		return Solution{Status: Infeasible, Iters: s.iters}
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for i := 0; i < nrows; i++ {
		a := artAt + i
		s.upper[a] = 0
		if s.status[a] != basic {
			s.status[a] = atLower
		}
	}

	// Phase 2: the real objective.
	st = s.run(s.cost)
	sol := Solution{Status: st, Iters: s.iters}
	if st == Optimal {
		sol.X = make([]float64, m.nvars)
		for j := 0; j < m.nvars; j++ {
			sol.X[j] = s.value(j)
		}
		obj := 0.0
		for j := 0; j < m.nvars; j++ {
			obj += m.cost[j] * sol.X[j]
		}
		sol.Objective = obj
	}
	return sol
}

// run iterates the bounded-variable primal simplex to optimality for the
// given cost vector.
func (s *simplex) run(cost []float64) Status {
	noProgress := 0
	lastObj := math.Inf(1)
	bland := false
	for {
		s.iters++
		if s.iters > maxIters {
			return IterLimit
		}
		// y = c_B per row; reduced cost r_j = c_j - Σ_i y_i T[i][j].
		y := make([]float64, s.m)
		for i, b := range s.basis {
			y[i] = cost[b]
		}
		// Pricing: pick entering column.
		enter := -1
		var dir float64
		bestScore := tolCost
		for j := 0; j < s.n; j++ {
			if s.status[j] == basic || s.lower[j] == s.upper[j] {
				continue
			}
			r := cost[j]
			for i := 0; i < s.m; i++ {
				if y[i] != 0 {
					r -= y[i] * s.tab[i][j]
				}
			}
			var score float64
			var d float64
			if s.status[j] == atLower && r < -tolCost {
				score, d = -r, 1
			} else if s.status[j] == atUpper && r > tolCost {
				score, d = r, -1
			} else {
				continue
			}
			if bland { // first eligible index
				enter, dir = j, d
				break
			}
			if score > bestScore {
				bestScore, enter, dir = score, j, d
			}
		}
		if enter < 0 {
			return Optimal // no improving column
		}
		// Ratio test.
		limit := s.upper[enter] - s.lower[enter] // bound flip distance
		leave := -1                              // row index of leaving basic
		leaveToUpper := false
		for i := 0; i < s.m; i++ {
			a := dir * s.tab[i][enter]
			if a > tolPivot {
				// basic i decreases toward its lower bound
				room := (s.beta[i] - s.lower[s.basis[i]]) / a
				if room < limit-tolPivot {
					limit, leave, leaveToUpper = room, i, false
				} else if room < limit+tolPivot && leave >= 0 && bland && s.basis[i] < s.basis[leave] {
					leave, leaveToUpper = i, false
				}
			} else if a < -tolPivot {
				ub := s.upper[s.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				room := (ub - s.beta[i]) / -a
				if room < limit-tolPivot {
					limit, leave, leaveToUpper = room, i, true
				} else if room < limit+tolPivot && leave >= 0 && bland && s.basis[i] < s.basis[leave] {
					leave, leaveToUpper = i, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit < 0 {
			limit = 0
		}
		// Apply the move: basics shift by -dir*limit*column.
		if limit != 0 {
			for i := 0; i < s.m; i++ {
				if s.tab[i][enter] != 0 {
					s.beta[i] -= dir * limit * s.tab[i][enter]
				}
			}
		}
		if leave < 0 {
			// Bound flip: entering variable crosses to its other bound.
			if dir > 0 {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
		} else {
			// Pivot: entering becomes basic in row leave.
			entVal := s.value2(enter, dir, limit)
			leaving := s.basis[leave]
			if leaveToUpper {
				s.status[leaving] = atUpper
			} else {
				s.status[leaving] = atLower
			}
			s.basis[leave] = enter
			s.status[enter] = basic
			s.beta[leave] = entVal
			piv := s.tab[leave][enter]
			rowL := s.tab[leave]
			inv := 1 / piv
			for j := 0; j < s.n; j++ {
				if rowL[j] != 0 {
					rowL[j] *= inv
				}
			}
			for i := 0; i < s.m; i++ {
				if i == leave {
					continue
				}
				f := s.tab[i][enter]
				if f == 0 {
					continue
				}
				rowI := s.tab[i]
				for j := 0; j < s.n; j++ {
					if rowL[j] != 0 {
						rowI[j] -= f * rowL[j]
					}
				}
				rowI[enter] = 0 // exact zero to stop drift
			}
		}
		// Cycling guard: if the objective stalls for a long stretch,
		// switch to Bland's rule (which guarantees termination).
		obj := 0.0
		for i, b := range s.basis {
			obj += cost[b] * s.beta[i]
		}
		if obj >= lastObj-1e-12 {
			noProgress++
			if noProgress > 500 {
				bland = true
			}
		} else {
			noProgress = 0
		}
		lastObj = obj
	}
}

// value2 computes the entering variable's new value after moving limit from
// its current bound in direction dir.
func (s *simplex) value2(j int, dir, limit float64) float64 {
	if dir > 0 {
		return s.lower[j] + limit
	}
	return s.upper[j] - limit
}
