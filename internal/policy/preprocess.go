package policy

import (
	"fmt"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// DefaultStatementID names the catch-all statement the pre-processor adds
// for totality.
const DefaultStatementID = "default"

// PreprocessOptions configure the §2.1 pre-processor.
type PreprocessOptions struct {
	// AddDefault appends a best-effort ".*" statement matching all
	// packets no other statement classifies, making the policy total.
	AddDefault bool
}

// Preprocess enforces the language's totality requirement (§2.1): with
// AddDefault, the statements together match all packets. Overlapping
// predicates are allowed; the compiler gives them first-match semantics
// through rule priorities. The input policy is not modified; a rewritten
// copy is returned.
func Preprocess(p *Policy, opts PreprocessOptions) (*Policy, error) {
	out := &Policy{
		Statements: append([]Statement(nil), p.Statements...),
		Formula:    p.Formula,
	}
	if opts.AddDefault {
		preds := make([]pred.Pred, len(out.Statements))
		for i, s := range out.Statements {
			preds[i] = s.Predicate
		}
		total, err := pred.Covers(pred.True, preds)
		if err != nil {
			return nil, err
		}
		if !total {
			for _, s := range out.Statements {
				if s.ID == DefaultStatementID {
					return nil, fmt.Errorf("policy: cannot add default statement: identifier %q already used", DefaultStatementID)
				}
			}
			out.Statements = append(out.Statements, Statement{
				ID:        DefaultStatementID,
				Predicate: pred.Negate(pred.Disj(preds...)),
				Path:      regex.Star{X: regex.Any{}},
			})
		}
	}
	return out, nil
}
