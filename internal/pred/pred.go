// Package pred implements Merlin's packet-classification predicates and the
// decision procedures the system needs over them: satisfiability,
// disjointness, implication, and cover checking.
//
// A predicate is a boolean combination of atoms of the form header.field = n
// (Figure 1 of the paper). Fields range over finite domains (a MAC address
// has 2^48 values, an IP protocol 2^8, ...), which makes this fragment
// decidable without an SMT solver: normalize to disjunctive normal form and
// check each conjunction of literals for per-field consistency. This package
// is the stand-in for the paper's use of Z3 (§5).
package pred

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Field names a packet header field, e.g. "eth.src" or "tcp.dst".
type Field string

// Standard fields with their domain sizes. DomainSize reports how many
// distinct values a field ranges over; it is what makes pure-negation
// conjunctions satisfiable (there is always a fresh value to pick as long
// as fewer than the whole domain is excluded).
var domainSizes = map[Field]float64{
	"eth.src":   math.Pow(2, 48),
	"eth.dst":   math.Pow(2, 48),
	"eth.typ":   math.Pow(2, 16),
	"vlan.id":   4096,
	"ip.src":    math.Pow(2, 32),
	"ip.dst":    math.Pow(2, 32),
	"ip.proto":  256,
	"ip.tos":    256,
	"tcp.src":   math.Pow(2, 16),
	"tcp.dst":   math.Pow(2, 16),
	"udp.src":   math.Pow(2, 16),
	"udp.dst":   math.Pow(2, 16),
	"icmp.type": 256,
	"payload":   math.Inf(1), // opaque deep-packet-inspection predicate
}

// DomainSize returns the number of distinct values of f. Unknown fields get
// an effectively unbounded domain, which is the conservative choice: it
// never makes an unsatisfiable predicate look satisfiable for disjointness
// checks used to reject unsafe refinements.
func DomainSize(f Field) float64 {
	if s, ok := domainSizes[f]; ok {
		return s
	}
	return math.Inf(1)
}

// Pred is a packet predicate. Implementations are immutable once built.
type Pred interface {
	// String renders the predicate in Merlin concrete syntax.
	String() string
	isPred()
}

// TruePred matches every packet.
type TruePred struct{}

// FalsePred matches no packet.
type FalsePred struct{}

// Test is the atom field = value. Values are kept as canonical strings
// (e.g. "00:00:00:00:00:01", "80"); equality of atoms is string equality of
// field and value.
type Test struct {
	Field Field
	Value string
}

// And is conjunction.
type And struct{ L, R Pred }

// Or is disjunction.
type Or struct{ L, R Pred }

// Not is negation.
type Not struct{ P Pred }

func (TruePred) isPred()  {}
func (FalsePred) isPred() {}
func (Test) isPred()      {}
func (And) isPred()       {}
func (Or) isPred()        {}
func (Not) isPred()       {}

func (TruePred) String() string  { return "true" }
func (FalsePred) String() string { return "false" }
func (t Test) String() string    { return string(t.Field) + " = " + t.Value }
func (a And) String() string     { return render(a) }
func (o Or) String() string      { return render(o) }
func (n Not) String() string     { return render(n) }

// render writes p into one strings.Builder, so a deep predicate costs time
// linear in its text rather than a copy of every subterm per level.
func render(p Pred) string {
	var b strings.Builder
	writePred(&b, p)
	return b.String()
}

func writePred(b *strings.Builder, p Pred) {
	switch q := p.(type) {
	case Test:
		b.WriteString(string(q.Field))
		b.WriteString(" = ")
		b.WriteString(q.Value)
	case And:
		writeBinary(b, q.L, " and ", q.R)
	case Or:
		writeBinary(b, q.L, " or ", q.R)
	case Not:
		b.WriteString("!(")
		writePred(b, q.P)
		b.WriteByte(')')
	default:
		b.WriteString(p.String())
	}
}

func writeBinary(b *strings.Builder, l Pred, op string, r Pred) {
	b.WriteByte('(')
	writePred(b, l)
	b.WriteString(op)
	writePred(b, r)
	b.WriteByte(')')
}

// True and False are the constant predicates.
var (
	True  Pred = TruePred{}
	False Pred = FalsePred{}
)

// Conj builds the conjunction of ps, simplifying trivial cases.
func Conj(ps ...Pred) Pred {
	out := True
	for _, p := range ps {
		switch {
		case p == nil:
			continue
		case isFalse(p):
			return False
		case isTrue(p):
			continue
		case isTrue(out):
			out = p
		default:
			out = And{out, p}
		}
	}
	return out
}

// Disj builds the disjunction of ps, simplifying trivial cases.
func Disj(ps ...Pred) Pred {
	out := False
	for _, p := range ps {
		switch {
		case p == nil:
			continue
		case isTrue(p):
			return True
		case isFalse(p):
			continue
		case isFalse(out):
			out = p
		default:
			out = Or{out, p}
		}
	}
	return out
}

// Negate returns the negation of p, simplifying constants and double
// negation.
func Negate(p Pred) Pred {
	switch q := p.(type) {
	case TruePred:
		return False
	case FalsePred:
		return True
	case Not:
		return q.P
	default:
		return Not{p}
	}
}

func isTrue(p Pred) bool  { _, ok := p.(TruePred); return ok }
func isFalse(p Pred) bool { _, ok := p.(FalsePred); return ok }

// nnf is a predicate in negation normal form: negations appear only on
// atoms. Conversion is linear in the input size.
type nnf interface{ isNNF() }

type nnfLit struct {
	field Field
	value string
	neg   bool
}

type nnfAnd struct{ parts []nnf }
type nnfOr struct{ parts []nnf }
type nnfTrue struct{}
type nnfFalse struct{}

func (nnfLit) isNNF()   {}
func (nnfAnd) isNNF()   {}
func (nnfOr) isNNF()    {}
func (nnfTrue) isNNF()  {}
func (nnfFalse) isNNF() {}

func toNNF(p Pred, negated bool) (nnf, error) {
	switch q := p.(type) {
	case TruePred:
		if negated {
			return nnfFalse{}, nil
		}
		return nnfTrue{}, nil
	case FalsePred:
		if negated {
			return nnfTrue{}, nil
		}
		return nnfFalse{}, nil
	case Test:
		return nnfLit{field: q.Field, value: q.Value, neg: negated}, nil
	case Not:
		return toNNF(q.P, !negated)
	case And:
		l, err := toNNF(q.L, negated)
		if err != nil {
			return nil, err
		}
		r, err := toNNF(q.R, negated)
		if err != nil {
			return nil, err
		}
		if negated {
			return nnfOr{parts: []nnf{l, r}}, nil
		}
		return nnfAnd{parts: []nnf{l, r}}, nil
	case Or:
		l, err := toNNF(q.L, negated)
		if err != nil {
			return nil, err
		}
		r, err := toNNF(q.R, negated)
		if err != nil {
			return nil, err
		}
		if negated {
			return nnfAnd{parts: []nnf{l, r}}, nil
		}
		return nnfOr{parts: []nnf{l, r}}, nil
	default:
		return nil, fmt.Errorf("pred: unknown predicate %T", p)
	}
}

// maxSearchSteps bounds the backtracking satisfiability search. Policies in
// the evaluation have at most tens of thousands of shallow statements, far
// below this budget; the limit exists so a pathological input fails loudly
// instead of hanging.
const maxSearchSteps = 1 << 23

// ErrTooComplex is wrapped by errors reporting that a decision procedure
// exceeded its search budget.
var ErrTooComplex = fmt.Errorf("pred: predicate too complex (search budget of %d steps exceeded)", maxSearchSteps)

// assignment is the mutable search state: per-field positive bindings and
// excluded-value sets, with an undo trail.
type assignment struct {
	positive map[Field]string
	negative map[Field]map[string]bool
	steps    int
}

func newAssignment() *assignment {
	return &assignment{
		positive: make(map[Field]string),
		negative: make(map[Field]map[string]bool),
	}
}

// bind adds a literal; it returns (consistent, undo). The undo closure must
// be called exactly once when backtracking past this literal.
func (a *assignment) bind(l nnfLit) (bool, func()) {
	if l.neg {
		if v, ok := a.positive[l.field]; ok {
			// field already pinned: consistent iff pinned value differs
			return v != l.value, func() {}
		}
		set := a.negative[l.field]
		if set == nil {
			set = make(map[string]bool)
			a.negative[l.field] = set
		}
		if set[l.value] {
			return true, func() {}
		}
		set[l.value] = true
		if float64(len(set)) >= DomainSize(l.field) {
			set[l.value] = true // keep for undo symmetry
			return false, func() { delete(set, l.value) }
		}
		return true, func() { delete(set, l.value) }
	}
	if v, ok := a.positive[l.field]; ok {
		return v == l.value, func() {}
	}
	if a.negative[l.field][l.value] {
		return false, func() {}
	}
	a.positive[l.field] = l.value
	return true, func() { delete(a.positive, l.field) }
}

// satisfy performs depth-first search over the conjunction of work items.
// It processes items in order, expanding conjunctions in place and
// branching on disjunctions, pruning any branch whose literals conflict
// with the current assignment.
func (a *assignment) satisfy(work []nnf) (bool, error) {
	a.steps++
	if a.steps > maxSearchSteps {
		return false, ErrTooComplex
	}
	if len(work) == 0 {
		return true, nil
	}
	head, rest := work[0], work[1:]
	switch h := head.(type) {
	case nnfTrue:
		return a.satisfy(rest)
	case nnfFalse:
		return false, nil
	case nnfLit:
		ok, undo := a.bind(h)
		if !ok {
			undo()
			return false, nil
		}
		sat, err := a.satisfy(rest)
		undo()
		return sat, err
	case nnfAnd:
		expanded := make([]nnf, 0, len(h.parts)+len(rest))
		expanded = append(expanded, h.parts...)
		expanded = append(expanded, rest...)
		return a.satisfy(expanded)
	case nnfOr:
		for _, alt := range h.parts {
			branch := make([]nnf, 0, 1+len(rest))
			branch = append(branch, alt)
			branch = append(branch, rest...)
			sat, err := a.satisfy(branch)
			if err != nil {
				return false, err
			}
			if sat {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("pred: unknown NNF node %T", head)
	}
}

// Satisfiable reports whether some packet matches p.
func Satisfiable(p Pred) (bool, error) {
	n, err := toNNF(p, false)
	if err != nil {
		return false, err
	}
	return newAssignment().satisfy([]nnf{n})
}

// Overlaps reports whether some packet matches both p and q.
func Overlaps(p, q Pred) (bool, error) {
	sat, err := Satisfiable(Conj(p, q))
	return sat, err
}

// Implies reports whether every packet matching p also matches q.
func Implies(p, q Pred) (bool, error) {
	sat, err := Satisfiable(Conj(p, Negate(q)))
	return !sat, err
}

// Equivalent reports whether p and q match exactly the same packets.
func Equivalent(p, q Pred) (bool, error) {
	ok, err := Implies(p, q)
	if err != nil || !ok {
		return false, err
	}
	return Implies(q, p)
}

// Covers reports whether the disjunction of ps matches every packet that
// whole matches; i.e. whole ⊆ ∪ps. Used by the pre-processor (totality)
// and by refinement verification (a partition must be total, §4.1).
func Covers(whole Pred, ps []Pred) (bool, error) {
	return Implies(whole, Disj(ps...))
}

// OnlyFields reports whether every atom of p tests a field accepted by
// ok. It is the allocation-free form of Fields for yes/no queries on the
// compiler's hot path.
func OnlyFields(p Pred, ok func(Field) bool) bool {
	switch q := p.(type) {
	case Test:
		return ok(q.Field)
	case And:
		return OnlyFields(q.L, ok) && OnlyFields(q.R, ok)
	case Or:
		return OnlyFields(q.L, ok) && OnlyFields(q.R, ok)
	case Not:
		return OnlyFields(q.P, ok)
	default:
		return true
	}
}

// Fields returns the sorted set of fields mentioned in p.
func Fields(p Pred) []Field {
	set := make(map[Field]bool)
	var walk func(Pred)
	walk = func(p Pred) {
		switch q := p.(type) {
		case Test:
			set[q.Field] = true
		case And:
			walk(q.L)
			walk(q.R)
		case Or:
			walk(q.L)
			walk(q.R)
		case Not:
			walk(q.P)
		}
	}
	walk(p)
	fields := make([]Field, 0, len(set))
	for f := range set {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i] < fields[j] })
	return fields
}

// Size returns the number of AST nodes in p.
func Size(p Pred) int {
	switch q := p.(type) {
	case And:
		return 1 + Size(q.L) + Size(q.R)
	case Or:
		return 1 + Size(q.L) + Size(q.R)
	case Not:
		return 1 + Size(q.P)
	default:
		return 1
	}
}

// Matches evaluates p against a concrete packet given as a field→value
// assignment. Fields absent from the assignment fail positive tests and
// satisfy negated ones.
func Matches(p Pred, pkt map[Field]string) bool {
	switch q := p.(type) {
	case TruePred:
		return true
	case FalsePred:
		return false
	case Test:
		return pkt[q.Field] == q.Value
	case And:
		return Matches(q.L, pkt) && Matches(q.R, pkt)
	case Or:
		return Matches(q.L, pkt) || Matches(q.R, pkt)
	case Not:
		return !Matches(q.P, pkt)
	default:
		return false
	}
}

// Format renders p without the outermost parentheses, for diagnostics.
func Format(p Pred) string {
	s := p.String()
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		return s[1 : len(s)-1]
	}
	return s
}
