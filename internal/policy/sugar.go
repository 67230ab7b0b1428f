package policy

import (
	"fmt"
	"strings"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// Env supplies named sets for sugar expansion beyond the file's own
// bindings — typically the compiler provides "hosts" bound to every host
// identity in the topology.
type Env struct {
	Sets map[string][]string
}

// Expand desugars the file into a flat, validated policy: the file's
// formula conjoined with its inline rate terms, in source order.
func (f *File) Expand(env Env) (*Policy, error) {
	stmts, rates, err := f.Desugar(env)
	if err != nil {
		return nil, err
	}
	pol := &Policy{Statements: stmts, Formula: ConjFormula(append([]Formula{f.Formula}, rates...)...)}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return pol, nil
}

// Desugar expands the file without validating it: set bindings are
// resolved, foreach loops are unrolled over cross products, and each
// inline "at" rate becomes a max or min term. The terms come back in
// source order, not yet conjoined with the file's formula, so a caller
// that joins the statements to others (a policy delta joins them to the
// kept statements) builds the formula and validates the joined policy.
func (f *File) Desugar(env Env) (stmts []Statement, rates []Formula, err error) {
	sets := map[string][]string{}
	for name, items := range env.Sets {
		sets[name] = items
	}
	for _, b := range f.Bindings {
		resolved, err := resolveItems(b.Items, sets)
		if err != nil {
			return nil, nil, fmt.Errorf("policy: set %s: %w", b.Name, err)
		}
		sets[b.Name] = resolved
	}
	genID := 0
	addRates := func(id string, atMax, atMin float64) {
		if atMax > 0 {
			rates = append(rates, Max{Expr: BandExpr{IDs: []string{id}}, Rate: atMax})
		}
		if atMin > 0 {
			rates = append(rates, Min{Expr: BandExpr{IDs: []string{id}}, Rate: atMin})
		}
	}
	for _, item := range f.Items {
		switch it := item.(type) {
		case StmtItem:
			stmts = append(stmts, it.Stmt)
			addRates(it.Stmt.ID, it.AtMax, it.AtMin)
		case ForeachItem:
			srcs, ok := sets[it.SetSrc]
			if !ok {
				return nil, nil, fmt.Errorf("policy: unknown set %q in cross", it.SetSrc)
			}
			dsts, ok := sets[it.SetDst]
			if !ok {
				return nil, nil, fmt.Errorf("policy: unknown set %q in cross", it.SetDst)
			}
			for _, s := range srcs {
				for _, d := range dsts {
					if s == d {
						continue // self-pairs carry no traffic
					}
					id := fmt.Sprintf("fe%d", genID)
					genID++
					subst := map[string]string{it.VarSrc: s, it.VarDst: d}
					pr := pred.Conj(srcAtom(s), dstAtom(d), substPred(it.Predicate, subst))
					var path regex.Expr = regex.Star{X: regex.Any{}}
					if it.Path != nil {
						path = substPath(it.Path, subst)
					}
					stmts = append(stmts, Statement{ID: id, Predicate: pr, Path: path})
					addRates(id, it.AtMax, it.AtMin)
				}
			}
		}
	}
	return stmts, rates, nil
}

// Parse is the convenience entry point: parse source and expand it with the
// given environment.
func Parse(src string, env Env) (*Policy, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return f.Expand(env)
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string, env Env) *Policy {
	p, err := Parse(src, env)
	if err != nil {
		panic(err)
	}
	return p
}

// resolveItems flattens set items: literals stay, identifiers referencing
// known sets splice their members in.
func resolveItems(items []string, sets map[string][]string) ([]string, error) {
	var out []string
	for _, it := range items {
		if members, ok := sets[it]; ok {
			out = append(out, members...)
			continue
		}
		out = append(out, strings.ToLower(it))
	}
	return out, nil
}

// ValueKind classifies a host-identity value's shape.
type ValueKind int

// Value shapes.
const (
	ValueMAC ValueKind = iota
	ValueIP
	ValueName
)

// ClassifyValue reports whether v looks like a MAC address, an IPv4
// address, or a bare name.
func ClassifyValue(v string) ValueKind {
	if strings.Count(v, ":") == 5 {
		return ValueMAC
	}
	if strings.Count(v, ".") == 3 {
		allDigits := true
		for _, part := range strings.Split(v, ".") {
			if part == "" {
				allDigits = false
				break
			}
			for i := 0; i < len(part); i++ {
				if part[i] < '0' || part[i] > '9' {
					allDigits = false
					break
				}
			}
		}
		if allDigits {
			return ValueIP
		}
	}
	return ValueName
}

// srcAtom builds the source-identity atom the foreach sugar adds: MAC
// values match eth.src, IPs ip.src, and bare names are treated as host
// identities on eth.src (the compiler resolves them via the topology's
// host identity table).
func srcAtom(v string) pred.Pred {
	switch ClassifyValue(v) {
	case ValueIP:
		return pred.Test{Field: "ip.src", Value: v}
	default:
		return pred.Test{Field: "eth.src", Value: strings.ToLower(v)}
	}
}

// dstAtom mirrors srcAtom for destinations.
func dstAtom(v string) pred.Pred {
	switch ClassifyValue(v) {
	case ValueIP:
		return pred.Test{Field: "ip.dst", Value: v}
	default:
		return pred.Test{Field: "eth.dst", Value: strings.ToLower(v)}
	}
}

// substPred replaces loop-variable occurrences in test values.
func substPred(p pred.Pred, subst map[string]string) pred.Pred {
	if p == nil {
		return pred.True
	}
	switch q := p.(type) {
	case pred.Test:
		if repl, ok := subst[q.Value]; ok {
			return pred.Test{Field: q.Field, Value: strings.ToLower(repl)}
		}
		return q
	case pred.And:
		return pred.And{L: substPred(q.L, subst), R: substPred(q.R, subst)}
	case pred.Or:
		return pred.Or{L: substPred(q.L, subst), R: substPred(q.R, subst)}
	case pred.Not:
		return pred.Not{P: substPred(q.P, subst)}
	default:
		return p
	}
}

// substPath replaces loop-variable occurrences in path symbols.
func substPath(e regex.Expr, subst map[string]string) regex.Expr {
	switch x := e.(type) {
	case regex.Sym:
		if repl, ok := subst[x.Name]; ok {
			return regex.Sym{Name: strings.ToLower(repl)}
		}
		return x
	case regex.Concat:
		return regex.Concat{L: substPath(x.L, subst), R: substPath(x.R, subst)}
	case regex.Alt:
		return regex.Alt{L: substPath(x.L, subst), R: substPath(x.R, subst)}
	case regex.Star:
		return regex.Star{X: substPath(x.X, subst)}
	case regex.Not:
		return regex.Not{X: substPath(x.X, subst)}
	default:
		return e
	}
}
