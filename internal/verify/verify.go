// Package verify implements negotiator policy verification (§4.2): a
// refined (tenant-modified) policy is valid when its predicates totally
// partition the original's, every refined path language is included in the
// original's, and the bandwidth constraints of the refinement imply the
// original's. It also implements delegation (§5): projecting a policy onto
// a tenant's scope by intersecting predicates.
package verify

import (
	"fmt"
	"math"

	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/regex"
)

// Options tune verification.
type Options struct {
	// Minimize enables Hopcroft minimization inside the language-inclusion
	// checks (the ablation knob for the Fig. 9 middle panel).
	Minimize bool
}

// Violation describes one failed check.
type Violation struct {
	// Kind is "coverage", "path", or "bandwidth".
	Kind string
	// Original and Refined name the statements involved ("" when the
	// check is policy-wide).
	Original, Refined string
	// Detail is human-readable; Witness, when present, is a path in the
	// refined language the original forbids.
	Detail  string
	Witness []string
}

func (v Violation) Error() string {
	s := fmt.Sprintf("verify: %s violation", v.Kind)
	if v.Original != "" {
		s += " against statement " + v.Original
	}
	if v.Refined != "" {
		s += " by statement " + v.Refined
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Report is the outcome of a refinement check.
type Report struct {
	Violations []Violation
	// PredicateChecks, PathChecks, BandwidthChecks count the decision-
	// procedure invocations (the Fig. 9 cost drivers).
	PredicateChecks, PathChecks, BandwidthChecks int
}

// OK reports whether the refinement is valid.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// CheckRefinement verifies that refined is a valid refinement of original:
// only more restrictive, never more permissive (§4.2).
func CheckRefinement(original, refined *policy.Policy, opts Options) (*Report, error) {
	rep := &Report{}
	// Map each original statement to the refined statements overlapping it.
	overlaps := make([][]int, len(original.Statements))
	claimed := make([]bool, len(refined.Statements))
	for i, o := range original.Statements {
		for j, r := range refined.Statements {
			ov, err := pred.Overlaps(o.Predicate, r.Predicate)
			if err != nil {
				return nil, err
			}
			rep.PredicateChecks++
			if ov {
				overlaps[i] = append(overlaps[i], j)
				claimed[j] = true
			}
		}
	}
	// Every refined statement must belong to some original scope —
	// otherwise the tenant invented traffic outside its delegation.
	for j, c := range claimed {
		if !c {
			rep.Violations = append(rep.Violations, Violation{
				Kind:    "coverage",
				Refined: refined.Statements[j].ID,
				Detail:  "matches traffic outside the delegated policy",
			})
		}
	}
	// Localized bandwidth views for the implication check.
	origAlloc, err := policy.Localize(original.Formula, nil)
	if err != nil {
		return nil, err
	}
	refAlloc, err := policy.Localize(refined.Formula, nil)
	if err != nil {
		return nil, err
	}
	getAlloc := func(m map[string]policy.Alloc, id string) policy.Alloc {
		if a, ok := m[id]; ok {
			return a
		}
		return policy.Unconstrained
	}
	for i, o := range original.Statements {
		js := overlaps[i]
		if len(js) == 0 {
			// The refinement dropped this traffic entirely: packets the
			// original classifies would be unhandled.
			rep.PredicateChecks++
			sat, err := pred.Satisfiable(o.Predicate)
			if err != nil {
				return nil, err
			}
			if sat {
				rep.Violations = append(rep.Violations, Violation{
					Kind:     "coverage",
					Original: o.ID,
					Detail:   "refinement handles none of this statement's packets",
				})
			}
			continue
		}
		// Totality: the refined predicates must cover the original's.
		preds := make([]pred.Pred, len(js))
		for k, j := range js {
			preds[k] = refined.Statements[j].Predicate
		}
		rep.PredicateChecks++
		covered, err := pred.Covers(o.Predicate, preds)
		if err != nil {
			return nil, err
		}
		if !covered {
			rep.Violations = append(rep.Violations, Violation{
				Kind:     "coverage",
				Original: o.ID,
				Detail:   "refined predicates do not cover all packets (partition must be total, §4.1)",
			})
		}
		// Path inclusion per overlapping pair.
		var sumMax, sumMin float64
		for _, j := range js {
			r := refined.Statements[j]
			ok, witness, err := regex.Includes(r.Path, o.Path, regex.Options{Minimize: opts.Minimize})
			if err != nil {
				return nil, err
			}
			rep.PathChecks++
			if !ok {
				rep.Violations = append(rep.Violations, Violation{
					Kind:     "path",
					Original: o.ID,
					Refined:  r.ID,
					Detail:   "refined paths are not included in the original's",
					Witness:  witness,
				})
			}
			a := getAlloc(refAlloc, r.ID)
			sumMax += a.Max
			sumMin += a.Min
		}
		// Bandwidth implication: refined totals must not exceed the
		// original's cap or demand more than its guarantee.
		rep.BandwidthChecks++
		oa := getAlloc(origAlloc, o.ID)
		// Relative tolerance: summing thousands of per-statement shares
		// accumulates float error far above an absolute epsilon at
		// gigabit scales.
		tol := 1e-6 * (1 + oa.Max)
		if math.IsInf(oa.Max, 1) {
			tol = 0
		}
		if sumMax > oa.Max+tol {
			detail := fmt.Sprintf("refined caps total %s, original allows %s",
				fmtRate(sumMax), fmtRate(oa.Max))
			rep.Violations = append(rep.Violations, Violation{
				Kind: "bandwidth", Original: o.ID, Detail: detail,
			})
		}
		if sumMin > oa.Min+1e-6*(1+oa.Min) {
			detail := fmt.Sprintf("refined guarantees total %s, original reserves %s",
				fmtRate(sumMin), fmtRate(oa.Min))
			rep.Violations = append(rep.Violations, Violation{
				Kind: "bandwidth", Original: o.ID, Detail: detail,
			})
		}
	}
	return rep, nil
}

func fmtRate(v float64) string {
	if math.IsInf(v, 1) {
		return "unlimited"
	}
	return policy.FormatRate(v)
}

// Delegate projects a policy onto a tenant scope: each statement's
// predicate is intersected with the scope predicate; statements that
// become unsatisfiable are dropped, and formula terms over dropped
// statements are removed (§5).
func Delegate(pol *policy.Policy, scope pred.Pred) (*policy.Policy, error) {
	out := &policy.Policy{Formula: policy.FTrue{}}
	kept := map[string]bool{}
	for _, s := range pol.Statements {
		p := pred.Conj(s.Predicate, scope)
		sat, err := pred.Satisfiable(p)
		if err != nil {
			return nil, err
		}
		if !sat {
			continue
		}
		out.Statements = append(out.Statements, policy.Statement{
			ID: s.ID, Predicate: p, Path: s.Path,
		})
		kept[s.ID] = true
	}
	maxes, mins, err := policy.Terms(pol.Formula)
	if err != nil {
		return nil, err
	}
	keepTerm := func(ids []string) []string {
		var out []string
		for _, id := range ids {
			if kept[id] {
				out = append(out, id)
			}
		}
		return out
	}
	for _, m := range maxes {
		ids := keepTerm(m.Expr.IDs)
		if len(ids) == 0 {
			continue
		}
		// Scale aggregate terms to the surviving members (equal split of
		// the original aggregate, as in localization).
		rate := m.Rate * float64(len(ids)) / float64(len(m.Expr.IDs))
		out.Formula = policy.ConjFormula(out.Formula, policy.Max{
			Expr: policy.BandExpr{IDs: ids}, Rate: rate,
		})
	}
	for _, m := range mins {
		ids := keepTerm(m.Expr.IDs)
		if len(ids) == 0 {
			continue
		}
		rate := m.Rate * float64(len(ids)) / float64(len(m.Expr.IDs))
		out.Formula = policy.ConjFormula(out.Formula, policy.Min{
			Expr: policy.BandExpr{IDs: ids}, Rate: rate,
		})
	}
	return out, nil
}
