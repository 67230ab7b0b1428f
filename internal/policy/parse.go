package policy

import (
	"fmt"
	"strings"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// File is a parsed policy source before syntactic-sugar expansion: set
// bindings, statements, foreach loops, and the trailing bandwidth formula.
type File struct {
	Bindings []Binding
	Items    []Item
	Formula  Formula
}

// Binding is a set literal binding, "name := { v1, v2, ... }".
type Binding struct {
	Name  string
	Items []string
}

// Item is a statement-producing element of a policy file.
type Item interface{ isItem() }

// StmtItem is a literal statement, optionally with an inline "at" rate.
type StmtItem struct {
	Stmt  Statement
	AtMax float64 // bits/s cap from "at max(...)"; 0 = none
	AtMin float64 // bits/s guarantee from "at min(...)"; 0 = none
}

// ForeachItem is the "foreach (s,d) in cross(A,B): ..." sugar (§2.1).
type ForeachItem struct {
	VarSrc, VarDst string
	SetSrc, SetDst string
	Predicate      pred.Pred // nil when the template has no predicate
	Path           regex.Expr
	AtMax          float64
	AtMin          float64
}

func (StmtItem) isItem()    {}
func (ForeachItem) isItem() {}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("policy:%d:%d: expected %s, found %s", t.line, t.col, k, t)
	}
	return t, nil
}

// reserved words that cannot be statement identifiers or locations.
var reserved = map[string]bool{
	"and": true, "or": true, "max": true, "min": true, "at": true,
	"foreach": true, "in": true, "cross": true, "true": true, "false": true,
}

// ParseFile parses policy source into its pre-expansion form.
func ParseFile(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for {
		t := p.peek()
		switch {
		case t.kind == tEOF:
			return f, nil
		case t.kind == tIdent && p.peek2().kind == tAssign:
			b, err := p.binding()
			if err != nil {
				return nil, err
			}
			f.Bindings = append(f.Bindings, b)
		case t.kind == tIdent && t.text == "foreach":
			fe, err := p.foreach()
			if err != nil {
				return nil, err
			}
			f.Items = append(f.Items, fe)
		case t.kind == tLBracket:
			items, err := p.block()
			if err != nil {
				return nil, err
			}
			f.Items = append(f.Items, items...)
		case t.kind == tIdent && p.peek2().kind == tColon:
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			f.Items = append(f.Items, st)
		case t.kind == tComma:
			p.next()
			form, err := p.formula()
			if err != nil {
				return nil, err
			}
			f.Formula = ConjFormula(f.Formula, form)
		case t.kind == tSemi:
			p.next()
		default:
			return nil, fmt.Errorf("policy:%d:%d: unexpected %s", t.line, t.col, t)
		}
	}
}

func (p *parser) binding() (Binding, error) {
	name := p.next().text
	if reserved[name] {
		return Binding{}, fmt.Errorf("policy: %q is a reserved word", name)
	}
	if _, err := p.expect(tAssign); err != nil {
		return Binding{}, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return Binding{}, err
	}
	var items []string
	for {
		t := p.next()
		switch t.kind {
		case tRBrace:
			return Binding{Name: name, Items: items}, nil
		case tMAC, tIP, tNumber, tIdent:
			items = append(items, t.text)
		case tComma:
			// separator
		default:
			return Binding{}, fmt.Errorf("policy:%d:%d: unexpected %s in set literal", t.line, t.col, t)
		}
	}
}

// block parses '[' statements ']'.
func (p *parser) block() ([]Item, error) {
	if _, err := p.expect(tLBracket); err != nil {
		return nil, err
	}
	var items []Item
	for {
		t := p.peek()
		switch {
		case t.kind == tRBracket:
			p.next()
			return items, nil
		case t.kind == tSemi:
			p.next()
		case t.kind == tIdent && t.text == "foreach":
			fe, err := p.foreach()
			if err != nil {
				return nil, err
			}
			items = append(items, fe)
		case t.kind == tIdent && p.peek2().kind == tColon:
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			items = append(items, st)
		default:
			return nil, fmt.Errorf("policy:%d:%d: unexpected %s in statement block", t.line, t.col, t)
		}
	}
}

// statement parses "id : pred -> path [at max/min(rate)]".
func (p *parser) statement() (StmtItem, error) {
	id := p.next().text
	if reserved[id] {
		return StmtItem{}, fmt.Errorf("policy: %q is a reserved word", id)
	}
	if _, err := p.expect(tColon); err != nil {
		return StmtItem{}, err
	}
	pr, err := p.predicate()
	if err != nil {
		return StmtItem{}, err
	}
	if _, err := p.expect(tArrow); err != nil {
		return StmtItem{}, err
	}
	path, err := p.path()
	if err != nil {
		return StmtItem{}, err
	}
	item := StmtItem{Stmt: Statement{ID: id, Predicate: pr, Path: path}}
	if err := p.atClause(&item.AtMax, &item.AtMin); err != nil {
		return StmtItem{}, err
	}
	return item, nil
}

// atClause parses an optional "at max(rate)" / "at min(rate)" suffix, which
// may repeat (e.g. "at min(1MB/s) at max(1GB/s)").
func (p *parser) atClause(maxOut, minOut *float64) error {
	for p.peek().kind == tIdent && p.peek().text == "at" {
		p.next()
		kw := p.next()
		if kw.kind != tIdent || (kw.text != "max" && kw.text != "min") {
			return fmt.Errorf("policy:%d:%d: expected max or min after 'at'", kw.line, kw.col)
		}
		if _, err := p.expect(tLParen); err != nil {
			return err
		}
		rate, err := p.rate()
		if err != nil {
			return err
		}
		if _, err := p.expect(tRParen); err != nil {
			return err
		}
		if kw.text == "max" {
			*maxOut = rate
		} else {
			*minOut = rate
		}
	}
	return nil
}

func (p *parser) rate() (float64, error) {
	t := p.next()
	switch t.kind {
	case tRate:
		return t.rate, nil
	case tNumber:
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			return 0, fmt.Errorf("policy:%d:%d: bad rate %q", t.line, t.col, t.text)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("policy:%d:%d: expected a rate, found %s", t.line, t.col, t)
	}
}

// foreach parses the cross-product iteration sugar.
func (p *parser) foreach() (ForeachItem, error) {
	p.next() // 'foreach'
	if _, err := p.expect(tLParen); err != nil {
		return ForeachItem{}, err
	}
	vs, err := p.expect(tIdent)
	if err != nil {
		return ForeachItem{}, err
	}
	if _, err := p.expect(tComma); err != nil {
		return ForeachItem{}, err
	}
	vd, err := p.expect(tIdent)
	if err != nil {
		return ForeachItem{}, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return ForeachItem{}, err
	}
	in, err := p.expect(tIdent)
	if err != nil || in.text != "in" {
		return ForeachItem{}, fmt.Errorf("policy:%d:%d: expected 'in'", in.line, in.col)
	}
	cross, err := p.expect(tIdent)
	if err != nil || cross.text != "cross" {
		return ForeachItem{}, fmt.Errorf("policy:%d:%d: expected 'cross'", cross.line, cross.col)
	}
	if _, err := p.expect(tLParen); err != nil {
		return ForeachItem{}, err
	}
	ss, err := p.expect(tIdent)
	if err != nil {
		return ForeachItem{}, err
	}
	if _, err := p.expect(tComma); err != nil {
		return ForeachItem{}, err
	}
	sd, err := p.expect(tIdent)
	if err != nil {
		return ForeachItem{}, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return ForeachItem{}, err
	}
	if _, err := p.expect(tColon); err != nil {
		return ForeachItem{}, err
	}
	item := ForeachItem{VarSrc: vs.text, VarDst: vd.text, SetSrc: ss.text, SetDst: sd.text}
	// The template may or may not begin with a predicate; scan ahead for
	// '->' before any statement/block terminator to decide.
	if p.hasArrowAhead() {
		pr, err := p.predicate()
		if err != nil {
			return ForeachItem{}, err
		}
		item.Predicate = pr
		if _, err := p.expect(tArrow); err != nil {
			return ForeachItem{}, err
		}
	}
	path, err := p.path()
	if err != nil {
		return ForeachItem{}, err
	}
	item.Path = path
	if err := p.atClause(&item.AtMax, &item.AtMin); err != nil {
		return ForeachItem{}, err
	}
	return item, nil
}

// hasArrowAhead scans forward (respecting nothing fancy — terminators are
// never nested) for '->' before ';', ']', ',' or EOF.
func (p *parser) hasArrowAhead() bool {
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].kind {
		case tArrow:
			return true
		case tSemi, tRBracket, tLBracket, tComma, tEOF:
			return false
		}
	}
	return false
}

// predicate grammar: or-pred with and/!, atoms field=value, field!=value,
// true, false, parenthesized.
func (p *parser) predicate() (pred.Pred, error) {
	return p.predOr()
}

func (p *parser) predOr() (pred.Pred, error) {
	l, err := p.predAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tIdent && p.peek().text == "or" {
		p.next()
		r, err := p.predAnd()
		if err != nil {
			return nil, err
		}
		l = pred.Disj(l, r)
	}
	return l, nil
}

func (p *parser) predAnd() (pred.Pred, error) {
	l, err := p.predUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tIdent && p.peek().text == "and" {
		p.next()
		r, err := p.predUnary()
		if err != nil {
			return nil, err
		}
		l = pred.Conj(l, r)
	}
	return l, nil
}

func (p *parser) predUnary() (pred.Pred, error) {
	if p.peek().kind == tBang {
		p.next()
		inner, err := p.predUnary()
		if err != nil {
			return nil, err
		}
		return pred.Negate(inner), nil
	}
	return p.predAtom()
}

func (p *parser) predAtom() (pred.Pred, error) {
	t := p.peek()
	switch {
	case t.kind == tLParen:
		p.next()
		inner, err := p.predOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tIdent && t.text == "true":
		p.next()
		return pred.True, nil
	case t.kind == tIdent && t.text == "false":
		p.next()
		return pred.False, nil
	case t.kind == tIdent:
		return p.fieldTest()
	default:
		return nil, fmt.Errorf("policy:%d:%d: expected a predicate, found %s", t.line, t.col, t)
	}
}

// fieldTest parses "proto.field = value" or "field != value".
func (p *parser) fieldTest() (pred.Pred, error) {
	first := p.next()
	field := first.text
	if p.peek().kind == tDot {
		p.next()
		second, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		field = first.text + "." + second.text
	}
	op := p.next()
	if op.kind != tEq && op.kind != tNeq {
		return nil, fmt.Errorf("policy:%d:%d: expected = or != after field %s", op.line, op.col, field)
	}
	v := p.next()
	switch v.kind {
	case tNumber, tMAC, tIP, tIdent:
		// ok
	default:
		return nil, fmt.Errorf("policy:%d:%d: expected a value, found %s", v.line, v.col, v)
	}
	value := canonicalValue(field, v.text)
	var atom pred.Pred = pred.Test{Field: pred.Field(field), Value: value}
	if op.kind == tNeq {
		atom = pred.Negate(atom)
	}
	return atom, nil
}

// protoNumbers canonicalizes symbolic ip.proto values (the paper writes
// "ip.proto = tcp").
var protoNumbers = map[string]string{
	"icmp": "1", "tcp": "6", "udp": "17",
}

func canonicalValue(field, value string) string {
	if field == "ip.proto" {
		if n, ok := protoNumbers[strings.ToLower(value)]; ok {
			return n
		}
	}
	return strings.ToLower(value)
}

// path parses a path regular expression from the token stream. It stops at
// statement terminators, the 'at' keyword, or any token that cannot start
// a path element. A path that expands past regex.MaxNodes is an error at
// its first token.
func (p *parser) path() (regex.Expr, error) {
	start := p.peek()
	e, err := p.pathAlt()
	if err == nil && regex.OverMaxNodes(e) {
		return nil, fmt.Errorf("policy:%d:%d: path expression expands past %d nodes (each '+' repeats its operand)",
			start.line, start.col, regex.MaxNodes)
	}
	return e, err
}

func (p *parser) pathAlt() (regex.Expr, error) {
	l, err := p.pathCat()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tPipe {
		p.next()
		r, err := p.pathCat()
		if err != nil {
			return nil, err
		}
		l = regex.Alt{L: l, R: r}
	}
	return l, nil
}

// startsPath reports whether the parser is positioned at a path element,
// honoring statement boundaries ("ident :" starts the next statement) and
// the reserved 'at' keyword. Host identities continue a path as they may
// start one (pathPrimary): the printer writes them wherever they occur.
func (p *parser) startsPath() bool {
	t := p.peek()
	switch t.kind {
	case tDot, tBang, tLParen, tMAC, tIP, tNumber, tEpsilon:
		return true
	case tIdent:
		if t.text == "at" || reserved[t.text] {
			return false
		}
		return p.peek2().kind != tColon
	default:
		return false
	}
}

func (p *parser) pathCat() (regex.Expr, error) {
	l, err := p.pathUnary()
	if err != nil {
		return nil, err
	}
	for p.startsPath() {
		r, err := p.pathUnary()
		if err != nil {
			return nil, err
		}
		l = regex.Concat{L: l, R: r}
	}
	return l, nil
}

func (p *parser) pathUnary() (regex.Expr, error) {
	if p.peek().kind == tBang {
		p.next()
		inner, err := p.pathUnary()
		if err != nil {
			return nil, err
		}
		return regex.Not{X: inner}, nil
	}
	return p.pathPostfix()
}

func (p *parser) pathPostfix() (regex.Expr, error) {
	e, err := p.pathPrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tStar:
			p.next()
			e = regex.Star{X: e}
		case tPlus:
			p.next()
			e = regex.Concat{L: e, R: regex.Star{X: e}}
		case tQuest:
			p.next()
			e = regex.Alt{L: e, R: regex.Epsilon{}}
		default:
			return e, nil
		}
	}
}

func (p *parser) pathPrimary() (regex.Expr, error) {
	t := p.next()
	switch t.kind {
	case tIdent:
		if reserved[t.text] {
			return nil, fmt.Errorf("policy:%d:%d: %q is reserved and cannot name a location", t.line, t.col, t.text)
		}
		return regex.Sym{Name: t.text}, nil
	case tMAC, tIP, tNumber:
		// Host identities may appear directly in paths (the foreach sugar
		// substitutes set members into path templates).
		return regex.Sym{Name: t.text}, nil
	case tDot:
		return regex.Any{}, nil
	case tEpsilon:
		return regex.Epsilon{}, nil
	case tLParen:
		e, err := p.pathAlt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("policy:%d:%d: expected a path element, found %s", t.line, t.col, t)
	}
}

// formula grammar: or/and/! over max(e,n), min(e,n), true.
func (p *parser) formula() (Formula, error) {
	return p.formulaOr()
}

func (p *parser) formulaOr() (Formula, error) {
	l, err := p.formulaAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tIdent && p.peek().text == "or" {
		p.next()
		r, err := p.formulaAnd()
		if err != nil {
			return nil, err
		}
		l = FOr{l, r}
	}
	return l, nil
}

func (p *parser) formulaAnd() (Formula, error) {
	l, err := p.formulaUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tIdent && p.peek().text == "and" {
		p.next()
		r, err := p.formulaUnary()
		if err != nil {
			return nil, err
		}
		l = FAnd{l, r}
	}
	return l, nil
}

func (p *parser) formulaUnary() (Formula, error) {
	t := p.peek()
	switch {
	case t.kind == tBang:
		p.next()
		inner, err := p.formulaUnary()
		if err != nil {
			return nil, err
		}
		return FNot{inner}, nil
	case t.kind == tLParen:
		p.next()
		inner, err := p.formulaOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tIdent && t.text == "true":
		p.next()
		return FTrue{}, nil
	case t.kind == tIdent && (t.text == "max" || t.text == "min"):
		p.next()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		expr, err := p.bandExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		rate, err := p.rate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if t.text == "max" {
			return Max{Expr: expr, Rate: rate}, nil
		}
		return Min{Expr: expr, Rate: rate}, nil
	default:
		return nil, fmt.Errorf("policy:%d:%d: expected a formula, found %s", t.line, t.col, t)
	}
}

// bandExpr parses "x + y + 10MB/s"-style bandwidth sums.
func (p *parser) bandExpr() (BandExpr, error) {
	var e BandExpr
	for {
		t := p.next()
		switch t.kind {
		case tIdent:
			if reserved[t.text] {
				return e, fmt.Errorf("policy:%d:%d: %q is reserved", t.line, t.col, t.text)
			}
			e.IDs = append(e.IDs, t.text)
		case tRate:
			e.Const += t.rate
		case tNumber:
			var v float64
			fmt.Sscanf(t.text, "%g", &v)
			e.Const += v
		default:
			return e, fmt.Errorf("policy:%d:%d: expected identifier or rate, found %s", t.line, t.col, t)
		}
		if p.peek().kind != tPlus {
			return e, nil
		}
		p.next()
	}
}
