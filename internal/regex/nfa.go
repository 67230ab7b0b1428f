package regex

import (
	"fmt"
	"math/bits"
)

// Alphabet interns location names as dense integer symbols so that automata
// can use bitsets for edge labels.
type Alphabet struct {
	names []string
	index map[string]int
}

// NewAlphabet builds an alphabet over the given names. Duplicates are
// collapsed; order of first occurrence is preserved.
func NewAlphabet(names []string) *Alphabet {
	a := &Alphabet{index: make(map[string]int, len(names))}
	for _, n := range names {
		a.Intern(n)
	}
	return a
}

// Intern returns the symbol for name, adding it if new.
func (a *Alphabet) Intern(name string) int {
	if id, ok := a.index[name]; ok {
		return id
	}
	id := len(a.names)
	a.names = append(a.names, name)
	a.index[name] = id
	return id
}

// Symbol returns the symbol for name, or -1 if unknown.
func (a *Alphabet) Symbol(name string) int {
	if id, ok := a.index[name]; ok {
		return id
	}
	return -1
}

// Name returns the name of symbol id.
func (a *Alphabet) Name(id int) string { return a.names[id] }

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return len(a.names) }

// Names returns the interned names in symbol order. Do not modify.
func (a *Alphabet) Names() []string { return a.names }

// SymSet is a bitset over an alphabet's symbols. Automata also use it for
// sets of states.
type SymSet []uint64

// NewSymSet returns an empty set sized for n symbols.
func NewSymSet(n int) SymSet { return make(SymSet, (n+63)/64) }

// Add inserts symbol s.
func (ss SymSet) Add(s int) { ss[s/64] |= 1 << (uint(s) % 64) }

// Has reports whether symbol s is in the set.
func (ss SymSet) Has(s int) bool {
	w := s / 64
	return w < len(ss) && ss[w]&(1<<(uint(s)%64)) != 0
}

// Fill adds all of the first n symbols.
func (ss SymSet) Fill(n int) {
	for s := 0; s < n; s++ {
		ss.Add(s)
	}
}

// each calls f for every symbol in the set, in ascending order.
func (ss SymSet) each(f func(s int)) {
	for w, word := range ss {
		for word != 0 {
			f(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Count returns the number of symbols in the set.
func (ss SymSet) Count() int {
	n := 0
	for _, w := range ss {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of the set.
func (ss SymSet) Clone() SymSet {
	out := make(SymSet, len(ss))
	copy(out, ss)
	return out
}

// Edge is an NFA transition labeled with a symbol set. Tag carries the name
// of the packet-processing function the transition implements, or "" for
// plain forwarding steps; the logical-topology construction uses it to
// recover function placements from chosen paths (§3.2).
type Edge struct {
	From int
	Set  SymSet
	Tag  string
	To   int
}

// NFA is a nondeterministic finite automaton over an interned alphabet,
// with epsilon transitions. State 0..States-1; Start is the start state.
type NFA struct {
	Alphabet *Alphabet
	States   int
	Start    int
	Accept   []bool
	Edges    []Edge
	Eps      [][]int // eps[q] = states reachable by one epsilon move
}

func (n *NFA) newState() int {
	n.States++
	n.Accept = append(n.Accept, false)
	n.Eps = append(n.Eps, nil)
	return n.States - 1
}

func (n *NFA) addEps(from, to int) { n.Eps[from] = append(n.Eps[from], to) }

func (n *NFA) addEdge(from int, set SymSet, tag string, to int) {
	n.Edges = append(n.Edges, Edge{From: from, Set: set, Tag: tag, To: to})
}

// Compile builds an NFA for e via Thompson construction. All names in the
// alphabet participate in "." wildcards; names mentioned by e but missing
// from alpha are interned (so "dpi" in a policy over a topology without a
// dpi location simply yields an unmatchable symbol rather than an error —
// the caller detects that later as an unsatisfiable path constraint).
// Complemented subexpressions are compiled by determinization, so their
// function tags are discarded; Merlin rejects function symbols under "!"
// at the policy level.
func Compile(e Expr, alpha *Alphabet) (*NFA, error) {
	for _, s := range Symbols(e) {
		alpha.Intern(s)
	}
	n := &NFA{Alphabet: alpha}
	start, end, err := n.build(e)
	if err != nil {
		return nil, err
	}
	n.Start = start
	n.Accept[end] = true
	return n, nil
}

// build returns (start, end) fragment states for e.
func (n *NFA) build(e Expr) (int, int, error) {
	switch x := e.(type) {
	case Empty:
		s, t := n.newState(), n.newState()
		return s, t, nil // no connection: empty language
	case Epsilon:
		s, t := n.newState(), n.newState()
		n.addEps(s, t)
		return s, t, nil
	case Sym:
		s, t := n.newState(), n.newState()
		set := NewSymSet(n.Alphabet.Size())
		set.Add(n.Alphabet.Intern(x.Name))
		n.addEdge(s, set, "", t)
		return s, t, nil
	case Any:
		s, t := n.newState(), n.newState()
		set := NewSymSet(n.Alphabet.Size())
		set.Fill(n.Alphabet.Size())
		n.addEdge(s, set, "", t)
		return s, t, nil
	case Group:
		s, t := n.newState(), n.newState()
		set := NewSymSet(n.Alphabet.Size())
		for _, m := range x.Members {
			set.Add(n.Alphabet.Intern(m))
		}
		n.addEdge(s, set, x.Tag, t)
		return s, t, nil
	case Concat:
		ls, le, err := n.build(x.L)
		if err != nil {
			return 0, 0, err
		}
		rs, re, err := n.build(x.R)
		if err != nil {
			return 0, 0, err
		}
		n.addEps(le, rs)
		return ls, re, nil
	case Alt:
		// An alternation of single steps is one step over the union of
		// their symbols, as a Group already is.
		if set, ok := n.foldSteps(x, nil); ok {
			s, t := n.newState(), n.newState()
			n.addEdge(s, set, "", t)
			return s, t, nil
		}
		ls, le, err := n.build(x.L)
		if err != nil {
			return 0, 0, err
		}
		rs, re, err := n.build(x.R)
		if err != nil {
			return 0, 0, err
		}
		s, t := n.newState(), n.newState()
		n.addEps(s, ls)
		n.addEps(s, rs)
		n.addEps(le, t)
		n.addEps(re, t)
		return s, t, nil
	case Star:
		is, ie, err := n.build(x.X)
		if err != nil {
			return 0, 0, err
		}
		s, t := n.newState(), n.newState()
		n.addEps(s, is)
		n.addEps(s, t)
		n.addEps(ie, is)
		n.addEps(ie, t)
		return s, t, nil
	case Not:
		// Compile the body on the shared alphabet, determinize, complement,
		// then splice the complement DFA in as an NFA fragment.
		inner, err := Compile(x.X, n.Alphabet)
		if err != nil {
			return 0, 0, err
		}
		dfa := inner.Determinize().Complement()
		base := n.States
		for q := 0; q < dfa.States; q++ {
			n.newState()
		}
		t := n.newState()
		scratch := make([]SymSet, dfa.States)
		for q := 0; q < dfa.States; q++ {
			for _, e := range groupRow(dfa.Trans[q], scratch, nil) {
				n.addEdge(base+q, e.Set, "", base+e.To)
			}
			if dfa.Accept[q] {
				n.addEps(base+q, t)
			}
		}
		return base + dfa.Start, t, nil
	default:
		return 0, 0, fmt.Errorf("regex: cannot compile %T", e)
	}
}

// foldSteps adds the symbols of e to set (allocating it when nil) if e is
// an alternation of symbols, wildcards and untagged groups, and reports
// whether it is. Tagged groups never fold: their edges carry the function
// tag the placement is recovered from.
func (n *NFA) foldSteps(e Expr, set SymSet) (SymSet, bool) {
	if set == nil {
		set = NewSymSet(n.Alphabet.Size())
	}
	switch x := e.(type) {
	case Sym:
		set.Add(n.Alphabet.Intern(x.Name))
	case Any:
		set.Fill(n.Alphabet.Size())
	case Group:
		if x.Tag != "" {
			return nil, false
		}
		for _, m := range x.Members {
			set.Add(n.Alphabet.Intern(m))
		}
	case Alt:
		if _, ok := n.foldSteps(x.L, set); !ok {
			return nil, false
		}
		return n.foldSteps(x.R, set)
	default:
		return nil, false
	}
	return set, true
}

// closure expands set (a bitset of states) to its epsilon closure in
// place. stack is scratch with capacity for every state.
func (n *NFA) closure(set SymSet, stack []int) {
	stack = stack[:0]
	set.each(func(q int) {
		if len(n.Eps[q]) > 0 {
			stack = append(stack, q)
		}
	})
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range n.Eps[q] {
			if !set.Has(r) {
				set.Add(r)
				stack = append(stack, r)
			}
		}
	}
}

// Matches reports whether the sequence of location names is in the NFA's
// language. Unknown names never match.
func (n *NFA) Matches(path []string) bool {
	stack := make([]int, 0, n.States)
	cur := NewSymSet(n.States)
	cur.Add(n.Start)
	n.closure(cur, stack)
	for _, name := range path {
		sym := n.Alphabet.Symbol(name)
		next := NewSymSet(n.States)
		if sym >= 0 {
			for _, e := range n.Edges {
				if cur.Has(e.From) && e.Set.Has(sym) {
					next.Add(e.To)
				}
			}
		}
		n.closure(next, stack)
		cur = next
	}
	accepted := false
	cur.each(func(q int) { accepted = accepted || n.Accept[q] })
	return accepted
}

// EpsFree is an epsilon-free view of an NFA: per-state outgoing transitions
// with accepting status folded through epsilon closures. It is the form the
// logical-topology product construction consumes.
type EpsFree struct {
	Alphabet *Alphabet
	States   int
	Start    int
	Accept   []bool
	Out      [][]Edge // Out[q] lists transitions from q
}

// EpsFree converts the NFA by the standard closure construction: state q
// inherits every transition leaving its epsilon closure, and is accepting
// if the closure contains an accepting state.
func (n *NFA) EpsFree() *EpsFree {
	ef := &EpsFree{
		Alphabet: n.Alphabet,
		States:   n.States,
		Start:    n.Start,
		Accept:   make([]bool, n.States),
		Out:      make([][]Edge, n.States),
	}
	outByState := make([][]Edge, n.States)
	for _, e := range n.Edges {
		outByState[e.From] = append(outByState[e.From], e)
	}
	stack := make([]int, 0, n.States)
	for q := 0; q < n.States; q++ {
		set := NewSymSet(n.States)
		set.Add(q)
		n.closure(set, stack)
		set.each(func(r int) {
			if n.Accept[r] {
				ef.Accept[q] = true
			}
			for _, e := range outByState[r] {
				ef.Out[q] = append(ef.Out[q], Edge{From: q, Set: e.Set, Tag: e.Tag, To: e.To})
			}
		})
	}
	return ef
}
