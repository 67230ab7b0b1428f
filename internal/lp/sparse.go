package lp

import (
	"math"
	"sort"
)

// This file implements the engine: a bounded-variable revised simplex over
// a compressed-sparse-column constraint matrix. The basis inverse is never
// formed; it is represented as a product of eta matrices
// (the classic product-form-of-the-inverse) rebuilt from scratch every
// refactorEvery pivots. Pricing computes reduced costs column-by-column
// over nonzeros only, so an iteration costs O(nnz + eta-file) instead of
// the dense tableau's O(rows × cols). Merlin's multi-commodity-flow
// matrices carry ~3 nonzeros per column, which is where the Fig. 8 /
// Table 7 speedups come from.
//
// Feasibility is reached with a composite ("artificial-free") phase 1:
// basic variables outside their bounds get temporarily relaxed bounds and
// a ±1 cost pushing them back inside, and are restored the moment they
// re-enter their range. Because the scheme starts from any basis, it
// doubles as the warm-start path: branch and bound hands each child node
// its parent's optimal basis, which is typically primal infeasible in a
// single row after the branching bound tightens, and phase 1 repairs it in
// a handful of pivots instead of re-solving from the all-artificial basis.

const (
	refactorEvery = 100   // pivots between basis refactorizations
	etaDrop       = 1e-13 // magnitude below which eta entries are dropped
)

// Basis captures the simplex basis of a solved model. It is opaque and
// immutable; pass it to Params.Warm to warm-start a re-solve of a model
// with the same variables and constraints (bounds and costs may differ).
type Basis struct {
	m, n int
	cols []int32 // basic column per row
	stat []vstat // status per column
}

// cscMat is a compressed-sparse-column matrix.
type cscMat struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

func (a *cscMat) col(j int) ([]int32, []float64) {
	s, e := a.colPtr[j], a.colPtr[j+1]
	return a.rowIdx[s:e], a.val[s:e]
}

func (a *cscMat) colNnz(j int) int { return int(a.colPtr[j+1] - a.colPtr[j]) }

// etaFile is the product-form representation of the basis inverse:
// B^{-1} = E_k ··· E_1. Each eta differs from the identity in one column
// (its pivot row's), stored flat for cache-friendly FTRAN/BTRAN sweeps.
type etaFile struct {
	pivRow []int32
	start  []int32 // len(pivRow)+1 offsets into rows/vals
	rows   []int32
	vals   []float64 // entry for the pivot row holds 1/pivot, others -d_i/pivot
}

func (ef *etaFile) reset() {
	ef.pivRow = ef.pivRow[:0]
	if len(ef.start) == 0 {
		ef.start = append(ef.start, 0)
	}
	ef.start = ef.start[:1]
	ef.rows = ef.rows[:0]
	ef.vals = ef.vals[:0]
}

// push appends the eta matrix for pivoting column d (= B^{-1}a_enter) into
// row r.
func (ef *etaFile) push(d []float64, r int) {
	piv := d[r]
	ef.pivRow = append(ef.pivRow, int32(r))
	for i, v := range d {
		if i == r || v == 0 {
			continue
		}
		if math.Abs(v) <= etaDrop {
			continue
		}
		ef.rows = append(ef.rows, int32(i))
		ef.vals = append(ef.vals, -v/piv)
	}
	ef.rows = append(ef.rows, int32(r))
	ef.vals = append(ef.vals, 1/piv)
	ef.start = append(ef.start, int32(len(ef.rows)))
}

// ftran applies B^{-1} to v in place (solve Bx = v).
func (ef *etaFile) ftran(v []float64) {
	for e := 0; e < len(ef.pivRow); e++ {
		r := ef.pivRow[e]
		vr := v[r]
		if vr == 0 {
			continue
		}
		for k := ef.start[e]; k < ef.start[e+1]; k++ {
			i := ef.rows[k]
			if i == r {
				v[i] = ef.vals[k] * vr
			} else {
				v[i] += ef.vals[k] * vr
			}
		}
	}
}

// btran applies B^{-T} to y in place (solve B^T x = y).
func (ef *etaFile) btran(y []float64) {
	for e := len(ef.pivRow) - 1; e >= 0; e-- {
		r := ef.pivRow[e]
		sum := 0.0
		for k := ef.start[e]; k < ef.start[e+1]; k++ {
			sum += ef.vals[k] * y[ef.rows[k]]
		}
		y[r] = sum
	}
}

// revised holds the working state. Column layout: structural | slacks
// (one per LE/GE row) | artificials (one per row). Artificials are fixed
// at [0,0]; the composite phase 1 relaxes them while they carry an initial
// residual.
type revised struct {
	m, n           int
	A              cscMat
	baseLo, baseUp []float64 // true bounds
	lo, up         []float64 // working bounds (relaxed for the violated set)
	cost2          []float64 // phase-2 cost
	p1cost         []float64 // composite phase-1 cost (±1 on violated columns)
	status         []vstat
	basis          []int32 // basic column per row
	rowOf          []int32 // basis row per column, -1 if nonbasic
	beta           []float64
	rhs            []float64
	viol           []int8  // +1 above upper bound, -1 below lower
	vlist          []int32 // columns currently violated (len 0 = feasible)
	broken         bool    // basis went numerically singular mid-run
	etas           etaFile
	pivots         int // pivots since last refactorization
	iters          int
	nstruct, artAt int
	d, y           []float64 // dense scratch, length m
}

func newRevised(m *Model) *revised {
	nrows := len(m.cons)
	nslack := 0
	for _, c := range m.cons {
		if c.Sense != EQ {
			nslack++
		}
	}
	n := m.nvars + nslack + nrows
	s := &revised{
		m:       nrows,
		n:       n,
		baseLo:  make([]float64, n),
		baseUp:  make([]float64, n),
		lo:      make([]float64, n),
		up:      make([]float64, n),
		cost2:   make([]float64, n),
		p1cost:  make([]float64, n),
		status:  make([]vstat, n),
		basis:   make([]int32, nrows),
		rowOf:   make([]int32, n),
		beta:    make([]float64, nrows),
		rhs:     make([]float64, nrows),
		viol:    make([]int8, n),
		nstruct: m.nvars,
		artAt:   m.nvars + nslack,
		d:       make([]float64, nrows),
		y:       make([]float64, nrows),
	}
	copy(s.baseLo, m.lower)
	copy(s.baseUp, m.upper)
	copy(s.cost2, m.cost)

	// Count entries per column (duplicates included; merged below).
	cnt := make([]int32, n)
	for _, c := range m.cons {
		for _, t := range c.Terms {
			cnt[t.Var]++
		}
	}
	slackAt := m.nvars
	for _, c := range m.cons {
		if c.Sense != EQ {
			cnt[slackAt] = 1
			slackAt++
		}
	}
	for i := 0; i < nrows; i++ {
		cnt[s.artAt+i] = 1
	}
	colPtr := make([]int32, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + cnt[j]
	}
	nnz := colPtr[n]
	rowIdx := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int32, n)
	copy(next, colPtr[:n])
	slackAt = m.nvars
	for i, c := range m.cons {
		for _, t := range c.Terms {
			k := next[t.Var]
			rowIdx[k] = int32(i)
			val[k] = t.Coeff
			next[t.Var]++
		}
		switch c.Sense {
		case LE:
			k := next[slackAt]
			rowIdx[k] = int32(i)
			val[k] = 1
			next[slackAt]++
			s.baseUp[slackAt] = math.Inf(1)
			slackAt++
		case GE:
			k := next[slackAt]
			rowIdx[k] = int32(i)
			val[k] = -1
			next[slackAt]++
			s.baseUp[slackAt] = math.Inf(1)
			slackAt++
		}
		s.rhs[i] = c.RHS
		art := s.artAt + i
		k := next[art]
		rowIdx[k] = int32(i)
		val[k] = 1
		next[art]++
		// Artificials are fixed at zero; the composite phase 1 relaxes
		// them while they carry the initial residual.
		s.baseLo[art], s.baseUp[art] = 0, 0
	}
	// Merge duplicate (row, col) entries (constraints are filled in row
	// order, so duplicates are adjacent) and compact.
	w := int32(0)
	for j := 0; j < n; j++ {
		start, end := colPtr[j], colPtr[j+1]
		colPtr[j] = w
		for k := start; k < end; k++ {
			if w > colPtr[j] && rowIdx[w-1] == rowIdx[k] {
				val[w-1] += val[k]
				continue
			}
			rowIdx[w] = rowIdx[k]
			val[w] = val[k]
			w++
		}
	}
	colPtr[n] = w
	s.A = cscMat{colPtr: colPtr, rowIdx: rowIdx[:w], val: val[:w]}
	copy(s.lo, s.baseLo)
	copy(s.up, s.baseUp)
	return s
}

// coldStart installs the all-artificial basis with nonbasic variables at
// the bound closer to zero.
func (s *revised) coldStart() {
	for j := 0; j < s.artAt; j++ {
		if !math.IsInf(s.baseUp[j], 1) && math.Abs(s.baseUp[j]) < math.Abs(s.baseLo[j]) {
			s.status[j] = atUpper
		} else {
			s.status[j] = atLower
		}
		s.rowOf[j] = -1
	}
	for i := 0; i < s.m; i++ {
		art := s.artAt + i
		s.status[art] = basic
		s.basis[i] = int32(art)
		s.rowOf[art] = int32(i)
	}
}

// tryWarm installs a previously returned basis. It reports whether the
// basis matched the model's shape and was internally consistent.
func (s *revised) tryWarm(w *Basis) bool {
	if w == nil || w.m != s.m || w.n != s.n || len(w.cols) != s.m || len(w.stat) != s.n {
		return false
	}
	seen := make([]bool, s.n)
	for _, c := range w.cols {
		if c < 0 || int(c) >= s.n || seen[c] {
			return false
		}
		seen[c] = true
	}
	copy(s.basis, w.cols)
	for j := 0; j < s.n; j++ {
		if seen[j] {
			s.status[j] = basic
			continue
		}
		st := w.stat[j]
		if st != atUpper || math.IsInf(s.baseUp[j], 1) {
			st = atLower
		}
		if st == atLower && math.IsInf(s.baseLo[j], 0) {
			st = atUpper
		}
		s.status[j] = st
		s.rowOf[j] = -1
	}
	for i, c := range s.basis {
		s.rowOf[c] = int32(i)
	}
	return true
}

// refactor rebuilds the eta file from scratch for the current basis
// columns (choosing pivot rows greedily by magnitude, which may permute
// the basis' row assignment) and recomputes beta. It reports false if the
// basis is numerically singular.
func (s *revised) refactor() bool {
	s.etas.reset()
	s.pivots = 0
	if s.m == 0 {
		return true
	}
	cols := make([]int32, s.m)
	copy(cols, s.basis)
	// Sparsest columns first keeps eta fill-in low (slacks and
	// artificials are singletons and pivot cleanly).
	sort.Slice(cols, func(a, b int) bool {
		return s.A.colNnz(int(cols[a])) < s.A.colNnz(int(cols[b]))
	})
	assigned := make([]bool, s.m)
	newBasis := make([]int32, s.m)
	d := s.d
	for _, c := range cols {
		for i := range d {
			d[i] = 0
		}
		rows, vals := s.A.col(int(c))
		for k := range rows {
			d[rows[k]] = vals[k]
		}
		s.etas.ftran(d)
		best, bestMag := -1, tolPivot
		for r := 0; r < s.m; r++ {
			if assigned[r] {
				continue
			}
			if mag := math.Abs(d[r]); mag > bestMag {
				best, bestMag = r, mag
			}
		}
		if best < 0 {
			return false
		}
		s.etas.push(d, best)
		assigned[best] = true
		newBasis[best] = c
	}
	copy(s.basis, newBasis)
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	for i, c := range s.basis {
		s.rowOf[c] = int32(i)
	}
	s.computeBeta()
	return true
}

// computeBeta solves B·beta = rhs - N·x_N from scratch.
func (s *revised) computeBeta() {
	t := s.d
	copy(t, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic {
			continue
		}
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		rows, vals := s.A.col(j)
		for k := range rows {
			t[rows[k]] -= vals[k] * v
		}
	}
	s.etas.ftran(t)
	copy(s.beta, t)
}

// nbValue returns the value of a nonbasic column.
func (s *revised) nbValue(j int) float64 {
	if s.status[j] == atUpper {
		return s.up[j]
	}
	return s.lo[j]
}

// value returns the current value of any column.
func (s *revised) value(j int) float64 {
	if s.status[j] == basic {
		return s.beta[s.rowOf[j]]
	}
	return s.nbValue(j)
}

// markViolations scans the basis for variables outside their true bounds,
// relaxes their working bounds so the current point stays representable,
// and gives them a unit phase-1 cost pushing them back inside.
func (s *revised) markViolations() {
	s.vlist = s.vlist[:0]
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if s.beta[i] > s.baseUp[j]+tolFeas {
			s.viol[j] = 1
			s.lo[j], s.up[j] = s.baseUp[j], math.Inf(1)
			s.p1cost[j] = 1
		} else if s.beta[i] < s.baseLo[j]-tolFeas {
			s.viol[j] = -1
			s.lo[j], s.up[j] = math.Inf(-1), s.baseLo[j]
			s.p1cost[j] = -1
		} else {
			continue
		}
		s.vlist = append(s.vlist, j)
	}
}

// restore returns a previously violated column to its true bounds and
// clears its phase-1 cost.
func (s *revised) restore(j int32) {
	if s.status[j] != basic {
		// The column left the basis at one of its working bounds, which
		// coincides with a true bound; park it there.
		v := s.nbValue(int(j))
		if math.Abs(v-s.baseUp[j]) <= math.Abs(v-s.baseLo[j]) {
			s.status[j] = atUpper
		} else {
			s.status[j] = atLower
		}
	}
	s.lo[j], s.up[j] = s.baseLo[j], s.baseUp[j]
	s.p1cost[j] = 0
	s.viol[j] = 0
}

// sweepRestore restores every violated column that has re-entered its true
// range (or left the basis), reporting whether anything changed.
func (s *revised) sweepRestore() bool {
	changed := false
	for k := 0; k < len(s.vlist); {
		j := s.vlist[k]
		back := s.status[j] != basic
		if !back {
			b := s.beta[s.rowOf[j]]
			back = b >= s.baseLo[j]-tolFeas && b <= s.baseUp[j]+tolFeas
		}
		if back {
			s.restore(j)
			s.vlist[k] = s.vlist[len(s.vlist)-1]
			s.vlist = s.vlist[:len(s.vlist)-1]
			changed = true
		} else {
			k++
		}
	}
	return changed
}

// run iterates the revised simplex to optimality for the given cost
// vector. In composite mode (phase 1) it additionally restores violated
// columns as they regain feasibility and stops once none remain.
func (s *revised) run(cost []float64, composite bool) Status {
	noProgress := 0
	lastObj := math.Inf(1)
	bland := false
	for {
		if composite {
			if s.sweepRestore() {
				lastObj = math.Inf(1)
			}
			if len(s.vlist) == 0 {
				return Optimal
			}
		}
		s.iters++
		if s.iters > maxIters {
			return IterLimit
		}
		if s.pivots >= refactorEvery {
			if !s.refactor() {
				s.broken = true
				return IterLimit // caller checks broken
			}
		}
		// BTRAN: y solves y^T B = c_B.
		y := s.y
		for i := 0; i < s.m; i++ {
			y[i] = cost[s.basis[i]]
		}
		s.etas.btran(y)
		// Pricing: reduced cost r_j = c_j - y·a_j over column nonzeros.
		enter := -1
		var dir float64
		bestScore := tolCost
		for j := 0; j < s.n; j++ {
			if s.status[j] == basic || s.lo[j] == s.up[j] {
				continue
			}
			r := cost[j]
			rows, vals := s.A.col(j)
			for k := range rows {
				if yv := y[rows[k]]; yv != 0 {
					r -= yv * vals[k]
				}
			}
			var score, d float64
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
			return Optimal
		}
		// FTRAN: d = B^{-1} a_enter.
		d := s.d
		for i := range d {
			d[i] = 0
		}
		rows, vals := s.A.col(enter)
		for k := range rows {
			d[rows[k]] = vals[k]
		}
		s.etas.ftran(d)
		// Ratio test over the working bounds.
		limit := s.up[enter] - s.lo[enter] // bound-flip distance
		leave := -1
		leaveToUpper := false
		for i := 0; i < s.m; i++ {
			a := dir * d[i]
			if a > tolPivot {
				lb := s.lo[s.basis[i]]
				if math.IsInf(lb, -1) {
					continue
				}
				room := (s.beta[i] - lb) / a
				if room < limit-tolPivot {
					limit, leave, leaveToUpper = room, i, false
				} else if room < limit+tolPivot && leave >= 0 && bland && s.basis[i] < s.basis[leave] {
					leave, leaveToUpper = i, false
				}
			} else if a < -tolPivot {
				ub := s.up[s.basis[i]]
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
		if limit != 0 {
			for i := 0; i < s.m; i++ {
				if d[i] != 0 {
					s.beta[i] -= dir * limit * d[i]
				}
			}
		}
		if leave < 0 {
			// Bound flip: the entering variable crosses to its other bound.
			if dir > 0 {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
		} else {
			var entVal float64
			if dir > 0 {
				entVal = s.lo[enter] + limit
			} else {
				entVal = s.up[enter] - limit
			}
			leaving := s.basis[leave]
			if leaveToUpper {
				s.status[leaving] = atUpper
			} else {
				s.status[leaving] = atLower
			}
			s.rowOf[leaving] = -1
			s.etas.push(d, leave)
			s.basis[leave] = int32(enter)
			s.rowOf[enter] = int32(leave)
			s.status[enter] = basic
			s.beta[leave] = entVal
			s.pivots++
		}
		// Cycling guard: switch to Bland's rule after a long stall.
		obj := 0.0
		for i := 0; i < s.m; i++ {
			obj += cost[s.basis[i]] * s.beta[i]
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

// Solve solves the model. A basis that turns numerically singular ends the
// solve with status NumericalFailure; a solve that started from a warm
// basis is first retried from the cold start.
func (m *Model) Solve(p Params) Solution {
	sol := m.solve(p.Warm)
	if sol.Status == NumericalFailure && p.Warm != nil {
		cold := m.solve(nil)
		cold.Iters += sol.Iters
		return cold
	}
	return sol
}

// solve runs both phases from the warm basis, or from the all-artificial
// basis when warm is nil or does not match the model's shape.
func (m *Model) solve(warm *Basis) Solution {
	s := newRevised(m)
	if !s.tryWarm(warm) {
		s.coldStart()
	}
	if !s.refactor() {
		return Solution{Status: NumericalFailure, Iters: s.iters}
	}

	// Phase 1 (composite): repair any out-of-bound basics. Rechecked
	// after a fresh refactorization before concluding infeasibility, so a
	// stale eta file cannot prune a feasible model.
	for attempt := 0; ; attempt++ {
		s.markViolations()
		if len(s.vlist) == 0 {
			break
		}
		st := s.run(s.p1cost, true)
		if s.broken {
			return Solution{Status: NumericalFailure, Iters: s.iters}
		}
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: s.iters}
		}
		if st == Unbounded {
			// A composite phase-1 objective is bounded by construction;
			// reaching here means numerical breakdown.
			return Solution{Status: NumericalFailure, Iters: s.iters}
		}
		for _, j := range s.vlist {
			s.restore(j)
		}
		s.vlist = s.vlist[:0]
		if !s.refactor() {
			return Solution{Status: NumericalFailure, Iters: s.iters}
		}
		feasible := true
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			if s.beta[i] > s.baseUp[j]+tolFeas || s.beta[i] < s.baseLo[j]-tolFeas {
				feasible = false
				break
			}
		}
		if feasible {
			break
		}
		if attempt >= 2 {
			return Solution{Status: Infeasible, Iters: s.iters}
		}
	}

	// Phase 2: the real objective.
	st := s.run(s.cost2, false)
	if s.broken {
		return Solution{Status: NumericalFailure, Iters: s.iters}
	}
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
		sol.Basis = &Basis{
			m:    s.m,
			n:    s.n,
			cols: append([]int32(nil), s.basis...),
			stat: append([]vstat(nil), s.status...),
		}
	}
	return sol
}
