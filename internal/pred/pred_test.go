package pred

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func atom(f, v string) Pred { return Test{Field: Field(f), Value: v} }

func mustSat(t *testing.T, p Pred) bool {
	t.Helper()
	ok, err := Satisfiable(p)
	if err != nil {
		t.Fatalf("Satisfiable(%s): %v", p, err)
	}
	return ok
}

func mustImplies(t *testing.T, p, q Pred) bool {
	t.Helper()
	ok, err := Implies(p, q)
	if err != nil {
		t.Fatalf("Implies(%s, %s): %v", p, q, err)
	}
	return ok
}

func TestConstants(t *testing.T) {
	if !mustSat(t, True) {
		t.Error("true should be satisfiable")
	}
	if mustSat(t, False) {
		t.Error("false should be unsatisfiable")
	}
	if mustSat(t, Negate(True)) {
		t.Error("!true should be unsatisfiable")
	}
}

func TestAtomSat(t *testing.T) {
	p := atom("tcp.dst", "80")
	if !mustSat(t, p) {
		t.Error("atom should be satisfiable")
	}
	if !mustSat(t, Negate(p)) {
		t.Error("negated atom should be satisfiable")
	}
}

func TestConflictingValues(t *testing.T) {
	p := Conj(atom("tcp.dst", "80"), atom("tcp.dst", "22"))
	if mustSat(t, p) {
		t.Error("tcp.dst=80 and tcp.dst=22 should be unsatisfiable")
	}
	q := Conj(atom("tcp.dst", "80"), atom("ip.proto", "6"))
	if !mustSat(t, q) {
		t.Error("different fields should be satisfiable")
	}
}

func TestPositiveAndNegatedSameValue(t *testing.T) {
	p := Conj(atom("tcp.dst", "80"), Negate(atom("tcp.dst", "80")))
	if mustSat(t, p) {
		t.Error("x=80 and x!=80 should be unsatisfiable")
	}
	q := Conj(atom("tcp.dst", "80"), Negate(atom("tcp.dst", "22")))
	if !mustSat(t, q) {
		t.Error("x=80 and x!=22 should be satisfiable")
	}
}

func TestDomainExhaustion(t *testing.T) {
	// ip.proto has domain size 256: negating all 256 values is unsat,
	// negating 255 still leaves one value.
	all := make([]Pred, 0, 256)
	for v := 0; v < 256; v++ {
		all = append(all, Negate(Test{Field: "ip.proto", Value: itoa(v)}))
	}
	if mustSat(t, Conj(all...)) {
		t.Error("negating the whole ip.proto domain should be unsatisfiable")
	}
	if !mustSat(t, Conj(all[:255]...)) {
		t.Error("negating 255 of 256 values should be satisfiable")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestDisjoint(t *testing.T) {
	http := Conj(atom("ip.proto", "6"), atom("tcp.dst", "80"))
	ssh := Conj(atom("ip.proto", "6"), atom("tcp.dst", "22"))
	ov, err := Overlaps(http, ssh)
	if err != nil || ov {
		t.Errorf("http/ssh should be disjoint: %v %v", ov, err)
	}
	tcp := atom("ip.proto", "6")
	ov, err = Overlaps(http, tcp)
	if err != nil || !ov {
		t.Errorf("http should overlap tcp: %v %v", ov, err)
	}
}

func TestImplies(t *testing.T) {
	http := Conj(atom("ip.proto", "6"), atom("tcp.dst", "80"))
	tcp := atom("ip.proto", "6")
	if !mustImplies(t, http, tcp) {
		t.Error("http should imply tcp")
	}
	if mustImplies(t, tcp, http) {
		t.Error("tcp should not imply http")
	}
	if !mustImplies(t, False, http) {
		t.Error("false implies everything")
	}
	if !mustImplies(t, http, True) {
		t.Error("everything implies true")
	}
}

// The refinement example from §4.1: tcp traffic partitioned into dst=80 and
// dst!=80 must cover the original and be pairwise disjoint.
func TestSection41Partition(t *testing.T) {
	tcp := atom("ip.proto", "6")
	web := Conj(tcp, atom("tcp.dst", "80"))
	rest := Conj(tcp, Negate(atom("tcp.dst", "80")))
	ok, err := Covers(tcp, []Pred{web, rest})
	if err != nil || !ok {
		t.Fatalf("partition should cover tcp: %v %v", ok, err)
	}
	ov, err := Overlaps(web, rest)
	if err != nil || ov {
		t.Fatalf("partition should be disjoint: overlaps=%v %v", ov, err)
	}
	// A lossy partition must be detected.
	ok, err = Covers(tcp, []Pred{web})
	if err != nil || ok {
		t.Fatalf("web alone should not cover tcp: %v %v", ok, err)
	}
}

func TestEquivalentDeMorgan(t *testing.T) {
	a := atom("tcp.dst", "80")
	b := atom("tcp.dst", "22")
	lhs := Negate(Disj(a, b))
	rhs := Conj(Negate(a), Negate(b))
	eq, err := Equivalent(lhs, rhs)
	if err != nil || !eq {
		t.Fatalf("De Morgan equivalence failed: %v %v", eq, err)
	}
}

func TestFieldsAndSize(t *testing.T) {
	p := Conj(atom("eth.src", "aa"), Disj(atom("tcp.dst", "80"), Negate(atom("eth.src", "bb"))))
	fs := Fields(p)
	if len(fs) != 2 || fs[0] != "eth.src" || fs[1] != "tcp.dst" {
		t.Errorf("Fields = %v", fs)
	}
	if Size(p) < 5 {
		t.Errorf("Size = %d, want >= 5", Size(p))
	}
}

func TestMatches(t *testing.T) {
	p := Conj(atom("ip.proto", "6"), Negate(atom("tcp.dst", "22")))
	pkt := map[Field]string{"ip.proto": "6", "tcp.dst": "80"}
	if !Matches(p, pkt) {
		t.Error("packet should match")
	}
	pkt["tcp.dst"] = "22"
	if Matches(p, pkt) {
		t.Error("ssh packet should not match")
	}
	if !Matches(True, nil) || Matches(False, nil) {
		t.Error("constants mis-evaluate")
	}
}

func TestDomainSize(t *testing.T) {
	if DomainSize("ip.proto") != 256 {
		t.Error("ip.proto domain wrong")
	}
	if DomainSize("eth.src") != math.Pow(2, 48) {
		t.Error("eth.src domain wrong")
	}
	if !math.IsInf(DomainSize("custom.field"), 1) {
		t.Error("unknown field should be unbounded")
	}
}

func TestStringRendering(t *testing.T) {
	p := Conj(atom("ip.proto", "6"), Negate(atom("tcp.dst", "22")))
	want := "ip.proto = 6 and !(tcp.dst = 22)"
	if got := Format(p); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestSearchBudgetGuard(t *testing.T) {
	// n independent disjunctions over distinct fields followed by a
	// contradiction force the search to visit 2^n branches before
	// concluding unsat; n=25 exceeds the step budget and must error,
	// not hang.
	p := True
	for i := 0; i < 25; i++ {
		f := "custom.f" + itoa(i)
		p = Conj(p, Disj(atom(f, "0"), atom(f, "1")))
	}
	p = Conj(p, atom("ip.proto", "6"), atom("ip.proto", "7"))
	if _, err := Satisfiable(p); err == nil {
		t.Error("expected search budget error")
	}
}

func TestLargePartitionIsFast(t *testing.T) {
	// The Fig. 9(a) workload shape: a parent predicate partitioned into
	// thousands of children must verify quickly (early pruning keeps the
	// search linear despite the exponential worst case).
	parent := atom("ip.proto", "6")
	var parts []Pred
	for i := 0; i < 2000; i++ {
		parts = append(parts, Conj(parent, atom("tcp.dst", itoa(i))))
	}
	rest := parent
	for i := 0; i < 2000; i++ {
		rest = Conj(rest, Negate(atom("tcp.dst", itoa(i))))
	}
	parts = append(parts, rest)
	ok, err := Covers(parent, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("partition should cover parent")
	}
}

// randomPred builds a small random predicate over a tiny vocabulary.
func randomPred(r *rand.Rand, depth int) Pred {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			fields := []string{"ip.proto", "tcp.dst", "eth.src"}
			vals := []string{"1", "2", "3"}
			return atom(fields[r.Intn(len(fields))], vals[r.Intn(len(vals))])
		}
	}
	switch r.Intn(3) {
	case 0:
		return Conj(randomPred(r, depth-1), randomPred(r, depth-1))
	case 1:
		return Disj(randomPred(r, depth-1), randomPred(r, depth-1))
	default:
		return Negate(randomPred(r, depth-1))
	}
}

// Property: Implies is reflexive and p ∧ q implies p.
func TestImpliesProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := randomPred(r, 3)
		q := randomPred(r, 3)
		if ok, err := Implies(p, p); err != nil || !ok {
			t.Fatalf("Implies(p,p) = %v,%v for %s", ok, err, p)
		}
		if ok, err := Implies(Conj(p, q), p); err != nil || !ok {
			t.Fatalf("Implies(p∧q,p) = %v,%v for %s, %s", ok, err, p, q)
		}
		if ok, err := Implies(p, Disj(p, q)); err != nil || !ok {
			t.Fatalf("Implies(p,p∨q) = %v,%v", ok, err)
		}
	}
}

// Property: a predicate and its negation are disjoint and cover everything.
func TestExcludedMiddle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomPred(r, 3)
		ov, err := Overlaps(p, Negate(p))
		if err != nil || ov {
			t.Fatalf("p and !p not disjoint: %s", p)
		}
		c, err := Covers(True, []Pred{p, Negate(p)})
		if err != nil || !c {
			t.Fatalf("p or !p does not cover true: %s", p)
		}
	}
}

// Property (via testing/quick): Matches agrees with Satisfiable — if a
// concrete packet matches p then p is satisfiable.
func TestMatchesImpliesSat(t *testing.T) {
	check := func(seed int64, proto, dst uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPred(r, 3)
		pkt := map[Field]string{
			"ip.proto": itoa(int(proto % 3)),
			"tcp.dst":  itoa(int(dst % 3)),
			"eth.src":  "1",
		}
		if !Matches(p, pkt) {
			return true // vacuous
		}
		ok, err := Satisfiable(p)
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkImpliesDeep(b *testing.B) {
	var ps []Pred
	for i := 0; i < 12; i++ {
		ps = append(ps, Conj(atom("ip.proto", "6"), atom("tcp.dst", itoa(i))))
	}
	whole := atom("ip.proto", "6")
	union := Disj(ps...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Implies(union, whole); err != nil {
			b.Fatal(err)
		}
	}
}
