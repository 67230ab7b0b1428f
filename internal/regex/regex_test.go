package regex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{"h1", "h1"},
		{".", "."},
		{".*", ".*"},
		{"h1 s1 h2", "h1 s1 h2"},
		{".* dpi .*", ".* dpi .*"},
		{"a|b", "(a|b)"},
		{"a b|c", "(a b|c)"},
		{"(a|b)*", "(a|b)*"},
		{"!a", "!(a)"},
		{"!(a b)", "!(a b)"},
		{"a+", "a a*"},
		{"a?", "(a|ε)"},
	} {
		e, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "(", "(a", "a)", "|a", "*", "a @ b", "!"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("(((")
}

func TestNodesAndSymbols(t *testing.T) {
	// .* dpi .* nat .* parses to 3 Any + 3 Star + 2 Sym + 4 Concat = 12.
	e := MustParse(".* dpi .* nat .*")
	if n := Nodes(e); n != 12 {
		t.Errorf("Nodes = %d, want 12", n)
	}
	syms := Symbols(e)
	if len(syms) != 2 || syms[0] != "dpi" || syms[1] != "nat" {
		t.Errorf("Symbols = %v", syms)
	}
}

func TestSubstitute(t *testing.T) {
	e := MustParse(".* nat .*")
	s := Substitute(e, map[string][]string{"nat": {"m1", "h2", "h1"}})
	want := ".* (h1|h2|m1) .*"
	if got := s.String(); got != want {
		t.Errorf("Substitute = %q, want %q", got, want)
	}
	// The group keeps the function tag.
	var foundTag bool
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Group:
			if x.Tag == "nat" {
				foundTag = true
			}
		case Concat:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(s)
	if !foundTag {
		t.Error("substituted group lost its function tag")
	}
}

// alphaFor builds an alphabet covering the expression plus extra names.
func alphaFor(e Expr, extra ...string) *Alphabet {
	a := NewAlphabet(Symbols(e))
	for _, x := range extra {
		a.Intern(x)
	}
	return a
}

func match(t *testing.T, src string, alphaExtra []string, path ...string) bool {
	t.Helper()
	e := MustParse(src)
	n, err := Compile(e, alphaFor(e, alphaExtra...))
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return n.Matches(path)
}

func TestNFAMatching(t *testing.T) {
	extra := []string{"h1", "h2", "s1", "s2", "m1"}
	for _, tc := range []struct {
		src  string
		path []string
		want bool
	}{
		{"h1 s1 h2", []string{"h1", "s1", "h2"}, true},
		{"h1 s1 h2", []string{"h1", "s2", "h2"}, false},
		{"h1 s1 h2", []string{"h1", "s1"}, false},
		{".*", nil, true},
		{".*", []string{"h1", "s1", "s2", "h2"}, true},
		{".* m1 .*", []string{"h1", "s1", "h2"}, false},
		{".* m1 .*", []string{"h1", "m1", "h2"}, true},
		{".* m1 .*", []string{"m1"}, true},
		{"(a|b)*", []string{"a", "b", "a"}, true},
		{"(a|b)*", []string{"a", "c"}, false},
		{"a+", nil, false},
		{"a+", []string{"a", "a"}, true},
		{"a?", nil, true},
		{"a?", []string{"a"}, true},
		{"a?", []string{"a", "a"}, false},
	} {
		if got := match(t, tc.src, extra, tc.path...); got != tc.want {
			t.Errorf("match(%q, %v) = %v, want %v", tc.src, tc.path, got, tc.want)
		}
	}
}

func TestNegationMatching(t *testing.T) {
	extra := []string{"h1", "s1", "s2", "h2"}
	// !(.* s1 .*): any path avoiding s1.
	if match(t, "!(.* s1 .*)", extra, "h1", "s1", "h2") {
		t.Error("path through s1 should not match complement")
	}
	if !match(t, "!(.* s1 .*)", extra, "h1", "s2", "h2") {
		t.Error("path avoiding s1 should match complement")
	}
	// Double negation cancels.
	if !match(t, "!(!(h1 h2))", extra, "h1", "h2") {
		t.Error("double negation broken")
	}
}

func TestFig2Example(t *testing.T) {
	// Figure 2: h1 .* dpi .* nat .* h2, with dpi ∈ {h1,h2,m1}, nat ∈ {m1}.
	e := MustParse("h1 .* dpi .* nat .* h2")
	e = Substitute(e, map[string][]string{
		"dpi": {"h1", "h2", "m1"},
		"nat": {"m1"},
	})
	alpha := NewAlphabet([]string{"h1", "h2", "s1", "s2", "m1"})
	n, err := Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// The red path from the figure: h1 s1 m1 (dpi+nat at m1) ... the path
	// visits m1 once for dpi and must visit a nat location after; m1 twice.
	if !n.Matches([]string{"h1", "s1", "m1", "m1", "s1", "s2", "h2"}) {
		t.Error("the figure's solution path should match")
	}
	// Any path avoiding m1 entirely cannot match (nat only at m1).
	if n.Matches([]string{"h1", "s1", "s2", "h2"}) {
		t.Error("path avoiding m1 should not match")
	}
}

func TestDeterminizeAgreesWithNFA(t *testing.T) {
	exprs := []string{".*", "h1 .* h2", ".* (m1|m2) .*", "!(.* m1 .*)", "(a|b)* c"}
	vocab := []string{"h1", "h2", "m1", "m2", "a", "b", "c"}
	r := rand.New(rand.NewSource(3))
	for _, src := range exprs {
		e := MustParse(src)
		alpha := alphaFor(e, vocab...)
		n, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		d := n.Determinize()
		for trial := 0; trial < 200; trial++ {
			ln := r.Intn(6)
			path := make([]string, ln)
			for i := range path {
				path[i] = vocab[r.Intn(len(vocab))]
			}
			if n.Matches(path) != d.Matches(path) {
				t.Fatalf("%q: NFA and DFA disagree on %v", src, path)
			}
		}
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	exprs := []string{".*", "h1 .* h2", ".* m1 .* m2 .*", "!(a b)", "(a|b)*(c|d)"}
	vocab := []string{"h1", "h2", "m1", "m2", "a", "b", "c", "d"}
	r := rand.New(rand.NewSource(11))
	for _, src := range exprs {
		e := MustParse(src)
		alpha := alphaFor(e, vocab...)
		n, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		d := n.Determinize()
		m := d.Minimize()
		if m.States > d.States {
			t.Errorf("%q: minimized has more states (%d > %d)", src, m.States, d.States)
		}
		for trial := 0; trial < 200; trial++ {
			ln := r.Intn(6)
			path := make([]string, ln)
			for i := range path {
				path[i] = vocab[r.Intn(len(vocab))]
			}
			if d.Matches(path) != m.Matches(path) {
				t.Fatalf("%q: minimization changed language on %v", src, path)
			}
		}
	}
}

func TestMinimizeReachesCanonicalSize(t *testing.T) {
	// (a|b)* over {a,b} is the universal language: 1 state.
	e := MustParse("(a|b)*")
	alpha := NewAlphabet([]string{"a", "b"})
	n, _ := Compile(e, alpha)
	m := n.Determinize().Minimize()
	if m.States != 1 {
		t.Errorf("universal language minimized to %d states, want 1", m.States)
	}
}

// TestMinimizeIsCanonical minimizes two expressions whose Hopcroft runs
// split several blocks per splitter over a 10-symbol alphabet. The result
// must not depend on the order blocks were split in: start is 0 and the
// states are numbered breadth-first over ascending symbols, every run.
func TestMinimizeIsCanonical(t *testing.T) {
	alpha := NewAlphabet([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"})
	for _, src := range []string{".* a . . . .", "(a .*) | (b . .) | (c . . . .)"} {
		n, err := Compile(MustParse(src), alpha)
		if err != nil {
			t.Fatal(err)
		}
		first := n.Determinize().Minimize()
		if !bfsNumbered(first) {
			t.Errorf("%q: minimized states are not numbered breadth-first from start 0", src)
		}
		for run := 1; run < 100; run++ {
			m := n.Determinize().Minimize()
			if m.Start != first.Start || !reflect.DeepEqual(m.Accept, first.Accept) || !reflect.DeepEqual(m.Trans, first.Trans) {
				t.Fatalf("%q: run %d minimized to a different numbering than run 0", src, run)
			}
		}
	}
}

func TestIncludes(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{".* log .* dpi .*", ".* log .*", true}, // §4.1 path refinement
		{".* log .*", ".* log .* dpi .*", false},
		{"h1 s1 h2", ".*", true},
		{".*", "h1 s1 h2", false},
		{"a b c", "a . c", true},
		{"a . c", "a b c", false},
		{"(a|b)", "(a|b|c)", true},
		{"(a|b|c)", "(a|b)", false},
		{"a*", "a* b?", true},
		{"!(.* x .*)", ".*", true},
	} {
		got, witness, err := Includes(MustParse(tc.a), MustParse(tc.b), Options{})
		if err != nil {
			t.Fatalf("Includes(%q,%q): %v", tc.a, tc.b, err)
		}
		if got != tc.want {
			t.Errorf("Includes(%q,%q) = %v, want %v (witness %v)", tc.a, tc.b, got, tc.want, witness)
		}
		if !got && witness == nil {
			t.Errorf("Includes(%q,%q) failed without witness", tc.a, tc.b)
		}
		if !got {
			// The witness must be accepted by a and rejected by b.
			ea, eb := MustParse(tc.a), MustParse(tc.b)
			alpha := NewAlphabet(append(Symbols(ea), Symbols(eb)...))
			alpha.Intern("\x00other")
			na, _ := Compile(ea, alpha)
			nb, _ := Compile(eb, alpha)
			if !na.Matches(witness) || nb.Matches(witness) {
				t.Errorf("bad witness %v for Includes(%q,%q)", witness, tc.a, tc.b)
			}
		}
	}
}

func TestIncludesWithMinimization(t *testing.T) {
	a, b := MustParse(".* log .* dpi .*"), MustParse(".* log .*")
	got, _, err := Includes(a, b, Options{Minimize: true})
	if err != nil || !got {
		t.Fatalf("minimized inclusion failed: %v %v", got, err)
	}
}

func TestDotCoversUnmentionedLocations(t *testing.T) {
	// ". ⊆ log" must fail: dot matches locations other than log.
	ok, witness, err := Includes(MustParse("."), MustParse("log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal(". should not be included in log")
	}
	if len(witness) != 1 {
		t.Fatalf("witness = %v, want a single location", witness)
	}
}

func TestEquivalent(t *testing.T) {
	eq, err := Equivalent(MustParse("(a|b)*"), MustParse("(b|a)*"))
	if err != nil || !eq {
		t.Fatalf("(a|b)* ≡ (b|a)* failed: %v %v", eq, err)
	}
	eq, err = Equivalent(MustParse("a*"), MustParse("a+"))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("a* should differ from a+")
	}
}

func TestEmptyLanguage(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"a", false},
		{".*", false},
		{"!(.*)", true},
		{"a !(b)", false}, // complement of {b} contains ε, so "a" is accepted
		{"a !(.*)", true}, // concatenation with the empty language
	} {
		got, err := EmptyLanguage(MustParse(tc.src))
		if err != nil {
			t.Fatalf("EmptyLanguage(%q): %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("EmptyLanguage(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEpsFree(t *testing.T) {
	e := MustParse("h1 .* h2")
	alpha := alphaFor(e, "s1")
	n, err := Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	ef := n.EpsFree()
	// Simulate: from start, only h1 moves; after h1 the wildcard loop and
	// h2 are available.
	h1 := alpha.Symbol("h1")
	s1 := alpha.Symbol("s1")
	if len(ef.Move(ef.Start, s1)) != 0 {
		t.Error("start state should not move on s1")
	}
	m := ef.Move(ef.Start, h1)
	if len(m) == 0 {
		t.Fatal("start state should move on h1")
	}
	if ef.Accept[ef.Start] {
		t.Error("start should not accept")
	}
}

func TestSymSet(t *testing.T) {
	s := NewSymSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) || s.Has(128) {
		t.Error("SymSet membership wrong")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	c := s.Clone()
	c.Add(5)
	if s.Has(5) {
		t.Error("Clone aliases storage")
	}
	f := NewSymSet(70)
	f.Fill(70)
	if f.Count() != 70 {
		t.Errorf("Fill count = %d, want 70", f.Count())
	}
}

func TestAlphabet(t *testing.T) {
	a := NewAlphabet([]string{"x", "y", "x"})
	if a.Size() != 2 {
		t.Fatalf("Size = %d, want 2", a.Size())
	}
	if a.Symbol("x") != 0 || a.Symbol("y") != 1 || a.Symbol("z") != -1 {
		t.Error("Symbol lookup wrong")
	}
	if a.Name(1) != "y" {
		t.Error("Name lookup wrong")
	}
	id := a.Intern("z")
	if id != 2 || a.Symbol("z") != 2 {
		t.Error("Intern wrong")
	}
}

// randomExpr generates a random expression over a small vocabulary.
// Negation is excluded (its determinization cost dwarfs the others and is
// covered separately).
func randomExpr(r *rand.Rand, depth int) Expr {
	vocab := []string{"a", "b", "c"}
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return Any{}
		default:
			return Sym{Name: vocab[r.Intn(len(vocab))]}
		}
	}
	switch r.Intn(4) {
	case 0:
		return Concat{randomExpr(r, depth-1), randomExpr(r, depth-1)}
	case 1:
		return Alt{randomExpr(r, depth-1), randomExpr(r, depth-1)}
	case 2:
		return Star{randomExpr(r, depth-1)}
	default:
		return Sym{Name: vocab[r.Intn(len(vocab))]}
	}
}

// Property: inclusion is reflexive, and L(a) ⊆ L(a|b).
func TestIncludesProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 3)
		b := randomExpr(r, 3)
		refl, _, err := Includes(a, a, Options{})
		if err != nil || !refl {
			return false
		}
		sub, _, err := Includes(a, Alt{a, b}, Options{})
		return err == nil && sub
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-tripping an expression through String/Parse preserves the
// language.
func TestParseStringRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		// ε and ∅ don't have concrete syntax; skip expressions containing
		// them (randomExpr never emits them anyway).
		s := e.String()
		parsed, err := Parse(s)
		if err != nil {
			return false
		}
		eq, err := Equivalent(e, parsed)
		return err == nil && eq
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func buildChainExpr(n int) Expr {
	parts := make([]string, 0, 2*n+1)
	parts = append(parts, ".*")
	for i := 0; i < n; i++ {
		parts = append(parts, fmt.Sprintf("w%d", i), ".*")
	}
	return MustParse(strings.Join(parts, " "))
}

func BenchmarkInclusion(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		a := buildChainExpr(n)
		sup := buildChainExpr(n / 2)
		b.Run(fmt.Sprintf("waypoints=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Includes(a, sup, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
