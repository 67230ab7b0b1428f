// Package lp implements a linear-programming solver. The default engine is
// a sparse revised simplex (sparse.go): the constraint matrix is stored in
// compressed-sparse-column form, the basis inverse is maintained as a
// product-form eta file with periodic refactorization, and pricing walks
// only column nonzeros. A dense two-phase tableau simplex (dense.go) is
// kept behind Params{Dense: true} as an escape hatch and as the reference
// the sparse engine is cross-checked against. Together with package mip it
// stands in for the Gurobi optimizer the paper uses to provision bandwidth
// (§5).
//
// The solver minimizes c·x subject to linear constraints and per-variable
// bounds. It is exact enough for the multi-commodity-flow MIPs Merlin
// generates (equations 1–5 of the paper): tens of thousands of variables
// at the scales the benchmark harness exercises.
package lp

import (
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a linear constraint Σ terms ∘ RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

// Model is a linear program under construction. The zero value is usable.
type Model struct {
	nvars    int
	cost     []float64
	lower    []float64
	upper    []float64
	cons     []Constraint
	maximize bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Clone returns a model sharing this one's constraints but with
// private cost and bound vectors, so SetCost/SetBounds on the clone leave
// the original untouched. Branch and bound solves node relaxations on
// clones — one per worker — which keeps concurrent node solves free of
// shared mutable state. The receiver must not grow (AddVar/AddConstraint)
// while clones are in use.
func (m *Model) Clone() *Model {
	c := *m
	c.cost = append([]float64(nil), m.cost...)
	c.lower = append([]float64(nil), m.lower...)
	c.upper = append([]float64(nil), m.upper...)
	return &c
}

// AddVar adds a variable with bounds [lb, ub] and objective coefficient
// cost, returning its index. ub may be math.Inf(1); lb must be finite
// (Merlin's formulations are all non-negative).
func (m *Model) AddVar(lb, ub, cost float64, name string) int {
	if math.IsInf(lb, 0) || math.IsNaN(lb) || math.IsNaN(ub) || ub < lb {
		panic(fmt.Sprintf("lp: invalid bounds [%v,%v] for %s", lb, ub, name))
	}
	id := m.nvars
	m.nvars++
	m.cost = append(m.cost, cost)
	m.lower = append(m.lower, lb)
	m.upper = append(m.upper, ub)
	return id
}

// SetCost changes a variable's objective coefficient.
func (m *Model) SetCost(v int, cost float64) { m.cost[v] = cost }

// SetBounds changes a variable's bounds.
func (m *Model) SetBounds(v int, lb, ub float64) {
	if ub < lb {
		panic(fmt.Sprintf("lp: invalid bounds [%v,%v]", lb, ub))
	}
	m.lower[v] = lb
	m.upper[v] = ub
}

// Bounds returns a variable's bounds.
func (m *Model) Bounds(v int) (lb, ub float64) { return m.lower[v], m.upper[v] }

// NumVars reports the number of variables.
func (m *Model) NumVars() int { return m.nvars }

// Maximize flips the objective sense to maximization.
func (m *Model) Maximize() { m.maximize = true }

// Maximized reports whether the objective sense is maximization.
func (m *Model) Maximized() bool { return m.maximize }

// AddConstraint appends a constraint. Terms with duplicate variables are
// summed.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64, name string) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= m.nvars {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	m.cons = append(m.cons, Constraint{Terms: terms, Sense: sense, RHS: rhs, Name: name})
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	default:
		return "unknown"
	}
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the model's variables
	Iters     int
	// Basis captures the optimal simplex basis when the sparse engine
	// proved optimality; pass it back via Params.Warm to warm-start a
	// re-solve of the same model shape with modified bounds or costs
	// (branch and bound does exactly this per node).
	Basis *Basis
}

// Params tune the solver.
type Params struct {
	// MaxIters bounds total simplex iterations across both phases.
	// Zero means the default (200000).
	MaxIters int
	// Dense selects the original dense tableau simplex instead of the
	// sparse revised simplex — the escape hatch for debugging and for
	// cross-checking objectives.
	Dense bool
	// Warm, if non-nil, starts the sparse engine from a previously
	// returned basis instead of the all-artificial basis. Ignored when
	// the basis does not match the model's shape or Dense is set.
	Warm *Basis
}

const (
	tolPivot = 1e-9 // minimum pivot magnitude
	tolCost  = 1e-9 // reduced-cost optimality tolerance
	tolFeas  = 1e-7 // feasibility tolerance
)

// variable status in the simplex
type vstat int8

const (
	atLower vstat = iota
	atUpper
	basic
)

// Solve solves the model with the engine selected by p.
func (m *Model) Solve(p Params) Solution {
	if p.Dense {
		return m.solveDense(p)
	}
	return m.solveSparse(p)
}
