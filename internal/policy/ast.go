// Package policy implements the Merlin policy language (Figure 1 of the
// paper): statements binding an identifier to a packet predicate and a
// path regular expression, plus a Presburger-arithmetic bandwidth formula
// over the identifiers. The package provides the concrete-syntax parser,
// the syntactic sugar expander (set literals, cross, foreach, at-rates),
// the pre-processor that enforces disjointness and totality (§2.1), and
// the formula localizer (§3.1).
package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// Statement is one policy statement "id : predicate -> path".
type Statement struct {
	ID        string
	Predicate pred.Pred
	Path      regex.Expr
}

// String renders the statement in concrete syntax.
func (s Statement) String() string {
	return fmt.Sprintf("%s : (%s) -> %s", s.ID, pred.Format(s.Predicate), s.Path.String())
}

// Policy is a parsed Merlin policy: statements plus a bandwidth formula.
type Policy struct {
	Statements []Statement
	Formula    Formula
}

// Statement returns the statement with the given identifier.
func (p *Policy) Statement(id string) (Statement, bool) {
	for _, s := range p.Statements {
		if s.ID == id {
			return s, true
		}
	}
	return Statement{}, false
}

// String renders the policy in concrete syntax.
func (p *Policy) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	for i, s := range p.Statements {
		if i > 0 {
			sb.WriteString(";\n ")
		}
		sb.WriteString(s.String())
	}
	sb.WriteString("]")
	if p.Formula != nil {
		if _, ok := p.Formula.(FTrue); !ok {
			sb.WriteString(",\n")
			sb.WriteString(p.Formula.String())
		}
	}
	return sb.String()
}

// Formula is a Presburger bandwidth formula (Figure 1: φ).
type Formula interface {
	String() string
	isFormula()
}

// FTrue is the trivial formula (no bandwidth constraints).
type FTrue struct{}

// BandExpr is a bandwidth term: a sum of statement identifiers plus a
// constant number of bits per second (Figure 1: e).
type BandExpr struct {
	IDs   []string
	Const float64
}

// Max constrains the aggregate rate of the expression to at most Rate
// (a bandwidth cap).
type Max struct {
	Expr BandExpr
	Rate float64 // bits per second
}

// Min guarantees the aggregate rate of the expression at least Rate.
type Min struct {
	Expr BandExpr
	Rate float64 // bits per second
}

// FAnd is conjunction of formulas.
type FAnd struct{ L, R Formula }

// FOr is disjunction of formulas.
type FOr struct{ L, R Formula }

// FNot is negation of a formula.
type FNot struct{ F Formula }

func (FTrue) isFormula() {}
func (Max) isFormula()   {}
func (Min) isFormula()   {}
func (FAnd) isFormula()  {}
func (FOr) isFormula()   {}
func (FNot) isFormula()  {}

func (FTrue) String() string { return "true" }

func (e BandExpr) String() string {
	parts := append([]string(nil), e.IDs...)
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, FormatRate(e.Const))
	}
	return strings.Join(parts, " + ")
}

func (m Max) String() string {
	return fmt.Sprintf("max(%s, %s)", m.Expr.String(), FormatRate(m.Rate))
}

func (m Min) String() string {
	return fmt.Sprintf("min(%s, %s)", m.Expr.String(), FormatRate(m.Rate))
}

func (f FAnd) String() string { return f.L.String() + " and " + f.R.String() }
func (f FOr) String() string  { return "(" + f.L.String() + " or " + f.R.String() + ")" }
func (f FNot) String() string { return "!(" + f.F.String() + ")" }

// ConjFormula folds formulas into nested conjunctions, dropping FTrue.
func ConjFormula(fs ...Formula) Formula {
	var out Formula = FTrue{}
	for _, f := range fs {
		if f == nil {
			continue
		}
		if _, ok := f.(FTrue); ok {
			continue
		}
		if _, ok := out.(FTrue); ok {
			out = f
		} else {
			out = FAnd{out, f}
		}
	}
	return out
}

// Terms flattens a conjunction-only formula into its max/min terms. It
// returns an error for formulas using or/not, which have no canonical
// localization (§3.1 localizes conjunctions of terms; the negotiator
// fragment of §4 likewise manipulates conjunctions).
func Terms(f Formula) (maxes []Max, mins []Min, err error) {
	switch t := f.(type) {
	case nil, FTrue:
		return nil, nil, nil
	case Max:
		return []Max{t}, nil, nil
	case Min:
		return nil, []Min{t}, nil
	case FAnd:
		lmax, lmin, err := Terms(t.L)
		if err != nil {
			return nil, nil, err
		}
		rmax, rmin, err := Terms(t.R)
		if err != nil {
			return nil, nil, err
		}
		return append(lmax, rmax...), append(lmin, rmin...), nil
	default:
		return nil, nil, fmt.Errorf("policy: formula %s is not a conjunction of max/min terms", f)
	}
}

// visitFormulaIDs calls visit on every statement identifier a formula
// mentions, in formula order and with repeats.
func visitFormulaIDs(f Formula, visit func(id string)) {
	switch t := f.(type) {
	case Max:
		for _, id := range t.Expr.IDs {
			visit(id)
		}
	case Min:
		for _, id := range t.Expr.IDs {
			visit(id)
		}
	case FAnd:
		visitFormulaIDs(t.L, visit)
		visitFormulaIDs(t.R, visit)
	case FOr:
		visitFormulaIDs(t.L, visit)
		visitFormulaIDs(t.R, visit)
	case FNot:
		visitFormulaIDs(t.F, visit)
	}
}

// FormatRate renders a bit-per-second rate using the policy units. The
// mantissa is always plain decimal — the lexer has no exponent syntax —
// so Parse reads back exactly the rate that was printed.
func FormatRate(bps float64) string {
	abs := math.Abs(bps)
	unit, div := "bps", 1.0
	switch {
	case abs >= 8e9 && math.Mod(bps, 8e9) == 0:
		unit, div = "GB/s", 8e9
	case abs >= 8e6 && math.Mod(bps, 8e6) == 0:
		unit, div = "MB/s", 8e6
	case abs >= 1e9 && math.Mod(bps, 1e9) == 0:
		unit, div = "Gbps", 1e9
	case abs >= 1e6 && math.Mod(bps, 1e6) == 0:
		unit, div = "Mbps", 1e6
	case abs >= 1e3 && math.Mod(bps, 1e3) == 0:
		unit, div = "kbps", 1e3
	}
	return strconv.FormatFloat(bps/div, 'f', -1, 64) + unit
}

// Validate checks structural well-formedness: unique statement IDs and
// formula identifiers referring to existing statements. Of several
// unknown formula identifiers it names the smallest. The walk over the
// formula builds no identifier set, so a policy whose formula names
// every statement costs one presized map.
func (p *Policy) Validate() error {
	seen := make(map[string]bool, len(p.Statements))
	for _, s := range p.Statements {
		if s.ID == "" {
			return fmt.Errorf("policy: statement with empty identifier")
		}
		if seen[s.ID] {
			return fmt.Errorf("policy: duplicate statement identifier %q", s.ID)
		}
		seen[s.ID] = true
		if s.Predicate == nil {
			return fmt.Errorf("policy: statement %q has no predicate", s.ID)
		}
		if s.Path == nil {
			return fmt.Errorf("policy: statement %q has no path expression", s.ID)
		}
	}
	unknown, found := "", false
	visitFormulaIDs(p.Formula, func(id string) {
		if !seen[id] && (!found || id < unknown) {
			unknown, found = id, true
		}
	})
	if found {
		return fmt.Errorf("policy: formula references unknown statement %q", unknown)
	}
	return nil
}
