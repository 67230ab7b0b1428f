package regex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// perSymbolDFA is the textbook subset construction the symbol classes
// replace: every subset is stepped once per symbol, in ascending order, and
// keyed by its printed form.
func perSymbolDFA(n *NFA) *DFA {
	size := n.Alphabet.Size()
	stack := make([]int, 0, n.States)
	d := &DFA{Alphabet: n.Alphabet}
	ids := map[string]int{}
	var sets []SymSet
	newState := func(set SymSet) int {
		key := fmt.Sprint(set)
		if id, ok := ids[key]; ok {
			return id
		}
		ids[key] = d.States
		d.States++
		sets = append(sets, set)
		acc := false
		for q := 0; q < n.States; q++ {
			acc = acc || set.Has(q) && n.Accept[q]
		}
		d.Accept = append(d.Accept, acc)
		d.Trans = append(d.Trans, make([]int, size))
		return d.States - 1
	}
	start := NewSymSet(n.States)
	start.Add(n.Start)
	n.closure(start, stack)
	d.Start = newState(start)
	for work := 0; work < d.States; work++ {
		for sym := 0; sym < size; sym++ {
			next := NewSymSet(n.States)
			for _, e := range n.Edges {
				if sets[work].Has(e.From) && e.Set.Has(sym) {
					next.Add(e.To)
				}
			}
			n.closure(next, stack)
			d.Trans[work][sym] = newState(next)
		}
	}
	return d
}

// propertyExpr generates a random expression over {a, b, c} using every
// constructor; tagged and untagged groups both appear, so some
// alternations fold and some do not.
func propertyExpr(r *rand.Rand, depth int) Expr {
	vocab := []string{"a", "b", "c"}
	leaf := func() Expr {
		switch r.Intn(4) {
		case 0:
			return Any{}
		case 1:
			var members []string
			for _, v := range vocab {
				if r.Intn(2) == 0 {
					members = append(members, v)
				}
			}
			tag := ""
			if r.Intn(3) == 0 {
				tag = "f"
			}
			return Group{Tag: tag, Members: members}
		default:
			return Sym{Name: vocab[r.Intn(len(vocab))]}
		}
	}
	if depth == 0 {
		return leaf()
	}
	switch r.Intn(7) {
	case 0, 1:
		return Concat{propertyExpr(r, depth-1), propertyExpr(r, depth-1)}
	case 2, 3:
		return Alt{propertyExpr(r, depth-1), propertyExpr(r, depth-1)}
	case 4:
		return Star{propertyExpr(r, depth-1)}
	case 5:
		if r.Intn(3) == 0 {
			return Not{propertyExpr(r, depth-1)}
		}
		return leaf()
	default:
		return leaf()
	}
}

// padSteps rewrites every single-step leaf x as (x ε), a shape the
// alternation fold cannot collapse.
func padSteps(e Expr) Expr {
	switch x := e.(type) {
	case Sym, Any, Group:
		return Concat{x, Epsilon{}}
	case Concat:
		return Concat{padSteps(x.L), padSteps(x.R)}
	case Alt:
		return Alt{padSteps(x.L), padSteps(x.R)}
	case Star:
		return Star{padSteps(x.X)}
	case Not:
		return Not{padSteps(x.X)}
	default:
		return e
	}
}

// words returns every word over names of length at most n.
func words(names []string, n int) [][]string {
	out := [][]string{nil}
	frontier := [][]string{nil}
	for i := 0; i < n; i++ {
		var next [][]string
		for _, w := range frontier {
			for _, s := range names {
				next = append(next, append(append([]string(nil), w...), s))
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

func sameDFA(a, b *DFA) bool {
	return a.States == b.States && a.Start == b.Start &&
		reflect.DeepEqual(a.Accept, b.Accept) && reflect.DeepEqual(a.Trans, b.Trans)
}

// bfsNumbered reports whether d's states are numbered in the order a
// breadth-first search from the start over ascending symbols meets them.
func bfsNumbered(d *DFA) bool {
	if d.Start != 0 {
		return false
	}
	seen := 1
	for q := 0; q < seen; q++ {
		for _, to := range d.Trans[q] {
			if to > seen {
				return false
			}
			if to == seen {
				seen++
			}
		}
	}
	return seen == d.States
}

// TestSymbolClassesProperty checks the class-based constructions against
// the per-symbol ones on 500 seeded random expressions, over an alphabet
// with a symbol ("z") no expression mentions: Determinize builds exactly
// the per-symbol subset construction's DFA, both agree with the NFA on
// every word up to length 4, both minimize to the same breadth-first
// numbered DFA, and folded
// alternations denote the same language as their ε-padded unfolded forms.
func TestSymbolClassesProperty(t *testing.T) {
	names := []string{"a", "z", "b", "c"}
	all := words(names, 4)
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		e := propertyExpr(r, 3)
		alpha := NewAlphabet(names)
		n, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		d, ref := n.Determinize(), perSymbolDFA(n)
		if !sameDFA(d, ref) {
			t.Fatalf("%s: Determinize differs from the per-symbol subset construction", Key(e))
		}
		for _, w := range all {
			if got, want := d.Matches(w), n.Matches(w); got != want {
				t.Fatalf("%s: DFA says %v on %v, NFA says %v", Key(e), got, w, want)
			}
		}
		m := d.Minimize()
		if !sameDFA(m, ref.Minimize()) {
			t.Fatalf("%s: minimized DFAs differ", Key(e))
		}
		if !bfsNumbered(m) {
			t.Fatalf("%s: minimized states are not numbered breadth-first", Key(e))
		}
		padded := padSteps(e)
		pn, err := Compile(padded, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDFA(pn.Determinize().Minimize(), m) {
			t.Fatalf("%s: folded and ε-padded forms minimize differently", Key(e))
		}
		if eq, err := Equivalent(e, padded); err != nil || !eq {
			t.Fatalf("%s: not equivalent to its ε-padded form (err %v)", Key(e), err)
		}
	}
}

// TestFoldedAlternations pins the fold on hand-written shapes: each is
// equivalent to its unfolded form (a|b vs (a ε)|(b ε)), an alternation of
// steps compiles to a single edge, and a tagged group keeps its own edge.
func TestFoldedAlternations(t *testing.T) {
	for _, src := range []string{"a|b", "(a|b|.)*", "x (a|b) y", "!(a|b)"} {
		e := MustParse(src)
		if eq, err := Equivalent(e, padSteps(e)); err != nil || !eq {
			t.Errorf("%q is not equivalent to %s (err %v)", src, padSteps(e), err)
		}
	}
	alpha := NewAlphabet([]string{"a", "b", "c"})
	n, err := Compile(MustParse("a|b|c"), alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Edges) != 1 || n.Edges[0].Set.Count() != 3 {
		t.Errorf("a|b|c compiled to %d edges, want one edge over 3 symbols", len(n.Edges))
	}
	tagged := Alt{Sym{Name: "a"}, Group{Tag: "dpi", Members: []string{"b", "c"}}}
	n, err = Compile(tagged, alpha)
	if err != nil {
		t.Fatal(err)
	}
	tags := 0
	for _, e := range n.Edges {
		if e.Tag == "dpi" {
			tags++
		}
	}
	if len(n.Edges) != 2 || tags != 1 {
		t.Errorf("a|dpi(b,c) compiled to %d edges (%d tagged), want 2 (1 tagged)", len(n.Edges), tags)
	}
}
