// Package regex implements Merlin path expressions: regular expressions
// whose alphabet is the finite set of network locations (Figure 1 of the
// paper). It provides parsing, Thompson NFA construction, subset-construction
// DFAs, complementation, intersection, Hopcroft minimization, and language
// inclusion — the latter standing in for the Dprle decision-procedure
// library the original implementation uses for negotiator verification (§5).
//
// Unlike POSIX regexes, symbols are whole location names ("h1", "s12",
// "dpi"), "." matches any single location, and "!" is language complement.
package regex

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Expr is a parsed path expression.
type Expr interface {
	// String renders the expression in Merlin concrete syntax.
	String() string
	isExpr()
}

// Empty denotes the empty language (no paths).
type Empty struct{}

// Epsilon denotes the language containing only the empty path.
type Epsilon struct{}

// Sym matches a single named location or packet-processing function.
type Sym struct{ Name string }

// Any matches any single location (the "." wildcard).
type Any struct{}

// Group matches any one location from Members. It is produced when the
// compiler substitutes a packet-processing function with the set of
// locations that can host it (§3.2); Tag records the function name so the
// chosen location can be configured later.
type Group struct {
	Tag     string
	Members []string
}

// Concat matches L followed by R.
type Concat struct{ L, R Expr }

// Alt matches either L or R.
type Alt struct{ L, R Expr }

// Star matches zero or more repetitions of X.
type Star struct{ X Expr }

// Not matches the complement of X's language.
type Not struct{ X Expr }

func (Empty) isExpr()   {}
func (Epsilon) isExpr() {}
func (Sym) isExpr()     {}
func (Any) isExpr()     {}
func (Group) isExpr()   {}
func (Concat) isExpr()  {}
func (Alt) isExpr()     {}
func (Star) isExpr()    {}
func (Not) isExpr()     {}

func (Empty) String() string   { return "∅" }
func (Epsilon) String() string { return "ε" }
func (s Sym) String() string   { return s.Name }
func (Any) String() string     { return "." }

func (g Group) String() string {
	return "(" + strings.Join(g.Members, "|") + ")"
}

func (c Concat) String() string { return c.L.String() + " " + c.R.String() }

// Key renders e as a memoization key. Unlike String it distinguishes a
// tagged Group from a plain alternation over the same members, so caches
// keyed on it never share a graph built from a tag-free expression with a
// statement whose expression places functions (or vice versa).
func Key(e Expr) string {
	var sb strings.Builder
	writeKey(&sb, e)
	return sb.String()
}

func writeKey(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case Group:
		sb.WriteByte('(')
		sb.WriteString(x.Tag)
		sb.WriteByte(':')
		for i, m := range x.Members {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(m)
		}
		sb.WriteByte(')')
	case Concat:
		writeKey(sb, x.L)
		sb.WriteByte(' ')
		writeKey(sb, x.R)
	case Alt:
		sb.WriteByte('(')
		writeKey(sb, x.L)
		sb.WriteByte('|')
		writeKey(sb, x.R)
		sb.WriteByte(')')
	case Star:
		sb.WriteByte('(')
		writeKey(sb, x.X)
		sb.WriteString(")*")
	case Not:
		sb.WriteString("!(")
		writeKey(sb, x.X)
		sb.WriteByte(')')
	default:
		sb.WriteString(e.String())
	}
}

func (a Alt) String() string {
	return "(" + a.L.String() + "|" + a.R.String() + ")"
}

func (s Star) String() string {
	switch s.X.(type) {
	case Sym, Any, Group, Alt: // Alt and Group self-parenthesize
		return s.X.String() + "*"
	default:
		return "(" + s.X.String() + ")*"
	}
}

func (n Not) String() string { return "!(" + n.X.String() + ")" }

// Equal reports whether a and b are the same expression tree. Unlike ==,
// it does not panic on Group, whose member list is a slice.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Group:
		y, ok := b.(Group)
		return ok && x.Tag == y.Tag && slices.Equal(x.Members, y.Members)
	case Concat:
		y, ok := b.(Concat)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Alt:
		y, ok := b.(Alt)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Star:
		y, ok := b.(Star)
		return ok && Equal(x.X, y.X)
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.X, y.X)
	default:
		return a == b
	}
}

// Nodes counts AST nodes; the paper uses this as the regex complexity
// measure in Fig. 9 (middle).
func Nodes(e Expr) int { return nodesUpTo(e, math.MaxInt) }

// MaxNodes bounds a parsed path expression's node count (Nodes). The
// grammar desugars e+ to e e*, repeating e, so each '+' applied to a '+'
// doubles the expression: thirty of them in a 45-byte path would ask for
// a billion nodes. Parse rejects an expression past the bound, and so
// does the policy parser; every path this project ships or generates is
// orders of magnitude smaller.
const MaxNodes = 1 << 16

// OverMaxNodes reports whether e has more than MaxNodes nodes. It stops
// counting there, so it costs at most MaxNodes steps however large e is:
// a parsed expression shares its repeated operands, so its size can be
// exponential in the text's length while building it was not.
func OverMaxNodes(e Expr) bool { return nodesUpTo(e, MaxNodes+1) > MaxNodes }

// nodesUpTo counts e's nodes, stopping once the count reaches limit.
func nodesUpTo(e Expr, limit int) int {
	if limit <= 0 {
		return 0
	}
	n := 1
	switch x := e.(type) {
	case Concat:
		n += nodesUpTo(x.L, limit-n)
		n += nodesUpTo(x.R, limit-n)
	case Alt:
		n += nodesUpTo(x.L, limit-n)
		n += nodesUpTo(x.R, limit-n)
	case Star:
		n += nodesUpTo(x.X, limit-n)
	case Not:
		n += nodesUpTo(x.X, limit-n)
	}
	return n
}

// Symbols returns the sorted set of location/function names mentioned in e.
func Symbols(e Expr) []string {
	set := make(map[string]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Sym:
			set[x.Name] = true
		case Group:
			for _, m := range x.Members {
				set[m] = true
			}
		case Concat:
			walk(x.L)
			walk(x.R)
		case Alt:
			walk(x.L)
			walk(x.R)
		case Star:
			walk(x.X)
		case Not:
			walk(x.X)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Substitute rewrites every Sym whose name appears in subst into a tagged
// Group over the substituted members, implementing the function-to-location
// expansion of §3.2 (".* nat .*" becomes ".* (h1|h2|m1) .*").
func Substitute(e Expr, subst map[string][]string) Expr {
	switch x := e.(type) {
	case Sym:
		if members, ok := subst[x.Name]; ok {
			ms := append([]string(nil), members...)
			sort.Strings(ms)
			return Group{Tag: x.Name, Members: ms}
		}
		return x
	case Concat:
		return Concat{Substitute(x.L, subst), Substitute(x.R, subst)}
	case Alt:
		return Alt{Substitute(x.L, subst), Substitute(x.R, subst)}
	case Star:
		return Star{Substitute(x.X, subst)}
	case Not:
		return Not{Substitute(x.X, subst)}
	default:
		return e
	}
}

// ConcatAll folds a sequence into nested Concat nodes; empty input yields
// Epsilon.
func ConcatAll(es ...Expr) Expr {
	if len(es) == 0 {
		return Epsilon{}
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Concat{out, e}
	}
	return out
}

// AltAll folds alternatives; empty input yields Empty.
func AltAll(es ...Expr) Expr {
	if len(es) == 0 {
		return Empty{}
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Alt{out, e}
	}
	return out
}

// lexer

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokDot
	tokStar
	tokPlus
	tokQuest
	tokBang
	tokPipe
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func isIdentByte(b byte) bool {
	return b == '_' || b == ':' || b == '-' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		b := src[i]
		switch {
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			i++
		case b == '.':
			toks = append(toks, token{tokDot, ".", i})
			i++
		case b == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case b == '+':
			toks = append(toks, token{tokPlus, "+", i})
			i++
		case b == '?':
			toks = append(toks, token{tokQuest, "?", i})
			i++
		case b == '!':
			toks = append(toks, token{tokBang, "!", i})
			i++
		case b == '|':
			toks = append(toks, token{tokPipe, "|", i})
			i++
		case b == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case b == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case isIdentByte(b):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("regex: unexpected character %q at offset %d", b, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// Parse parses a Merlin path expression.
//
// Grammar (standard precedence — alternation lowest, then concatenation by
// juxtaposition, then prefix !, then postfix * + ?):
//
//	alt    := cat ('|' cat)*
//	cat    := unary unary*
//	unary  := '!' unary | postfix
//	postfix:= primary ('*' | '+' | '?')*
//	primary:= ident | '.' | '(' alt ')'
func Parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.alt()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("regex: unexpected %q at offset %d", t.text, t.pos)
	}
	if OverMaxNodes(e) {
		return nil, fmt.Errorf("regex: expression at offset %d expands past %d nodes (each '+' repeats its operand)", toks[0].pos, MaxNodes)
	}
	return e, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) alt() (Expr, error) {
	l, err := p.cat()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPipe {
		p.next()
		r, err := p.cat()
		if err != nil {
			return nil, err
		}
		l = Alt{l, r}
	}
	return l, nil
}

func startsUnary(k tokKind) bool {
	switch k {
	case tokIdent, tokDot, tokBang, tokLParen:
		return true
	default:
		return false
	}
}

func (p *parser) cat() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for startsUnary(p.peek().kind) {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = Concat{l, r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.peek().kind == tokBang {
		p.next()
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{e}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokStar:
			p.next()
			e = Star{e}
		case tokPlus:
			p.next()
			e = Concat{e, Star{e}}
		case tokQuest:
			p.next()
			e = Alt{e, Epsilon{}}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		return Sym{Name: t.text}, nil
	case tokDot:
		return Any{}, nil
	case tokLParen:
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		if c := p.next(); c.kind != tokRParen {
			return nil, fmt.Errorf("regex: expected ')' at offset %d, found %q", c.pos, c.text)
		}
		return e, nil
	case tokEOF:
		return nil, fmt.Errorf("regex: unexpected end of expression")
	default:
		return nil, fmt.Errorf("regex: unexpected %q at offset %d", t.text, t.pos)
	}
}
