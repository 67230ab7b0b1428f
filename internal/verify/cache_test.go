package verify

import (
	"strings"
	"testing"

	"merlin/internal/policy"
	"merlin/internal/pred"
)

func TestCacheUnchangedChildNeverReverified(t *testing.T) {
	c := NewCache()
	orig := mustPolicy(t, originalSrc)
	ref := mustPolicy(t, refinedSrc)
	rep1, err := c.CheckRefinement(orig, ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.OK() {
		t.Fatalf("valid refinement rejected: %v", rep1.Violations)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first check stats = %+v", st)
	}
	// Re-parsing produces structurally equal but unshared policies: the
	// fingerprint, not pointer identity, must drive the hit.
	rep2, err := c.CheckRefinement(mustPolicy(t, originalSrc), mustPolicy(t, refinedSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != rep1 {
		t.Fatal("policy-level hit should return the memoized report")
	}
	st = c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("repeat check stats = %+v", st)
	}
	// Minimize is part of the verdict key: same policies, different
	// options, fresh check.
	if _, err := c.CheckRefinement(orig, ref, Options{Minimize: true}); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Misses != 2 {
		t.Fatalf("minimize variant should miss: %+v", st)
	}
}

func TestCacheParentRedelegationInvalidates(t *testing.T) {
	c := NewCache()
	ref := mustPolicy(t, refinedSrc)
	rep, err := c.CheckRefinement(mustPolicy(t, originalSrc), ref, Options{})
	if err != nil || !rep.OK() {
		t.Fatalf("%v %v", err, rep)
	}
	// The parent re-delegates with a smaller budget: its fingerprint
	// changes, so the memoized OK verdict is unreachable and the child is
	// re-verified — and now rejected.
	shrunk := strings.Replace(originalSrc, "100MB/s", "60MB/s", 1)
	rep2, err := c.CheckRefinement(mustPolicy(t, shrunk), ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK() {
		t.Fatal("stale verdict served after parent re-delegation")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// chainLevel refines every statement of the previous level by splitting
// it on a fresh header field value, halving each cap.
func chainLevel(parent *policy.Policy, level int) *policy.Policy {
	out := &policy.Policy{}
	var terms []policy.Formula
	// One header field per level: values of the same field are mutually
	// exclusive, so reusing a field would make deeper splits empty.
	fields := []pred.Test{
		{Field: "ip.tos", Value: "0"},
		{Field: "tcp.src", Value: "1"},
		{Field: "tcp.dst", Value: "2"},
		{Field: "ip.src", Value: "10.0.0.3"},
		{Field: "ip.dst", Value: "10.0.0.4"},
	}
	for _, s := range parent.Statements {
		split := fields[(level-1)%len(fields)]
		lo := policy.Statement{
			ID:        s.ID + "l",
			Predicate: pred.Conj(s.Predicate, split),
			Path:      s.Path,
		}
		hi := policy.Statement{
			ID:        s.ID + "h",
			Predicate: pred.Conj(s.Predicate, pred.Negate(split)),
			Path:      s.Path,
		}
		out.Statements = append(out.Statements, lo, hi)
	}
	allocs, _ := policy.Localize(parent.Formula, nil)
	for _, s := range parent.Statements {
		half := allocs[s.ID].Max / 2
		terms = append(terms,
			policy.Max{Expr: policy.BandExpr{IDs: []string{s.ID + "l"}}, Rate: half},
			policy.Max{Expr: policy.BandExpr{IDs: []string{s.ID + "h"}}, Rate: half})
	}
	out.Formula = policy.ConjFormula(terms...)
	return out
}

// TestDeepDelegationChain checks a ≥5-level refinement chain: each level
// verifies against its immediate parent, and re-walking the chain is all
// cache hits.
func TestDeepDelegationChain(t *testing.T) {
	c := NewCache()
	root := mustPolicy(t, `[ x : ip.proto = 6 -> .* ], max(x, 128MB/s)`)
	chain := []*policy.Policy{root}
	for level := 1; level <= 5; level++ {
		chain = append(chain, chainLevel(chain[level-1], level))
	}
	if len(chain[5].Statements) != 32 {
		t.Fatalf("leaf statements = %d", len(chain[5].Statements))
	}
	for i := 1; i < len(chain); i++ {
		rep, err := c.CheckRefinement(chain[i-1], chain[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("level %d rejected: %v", i, rep.Violations[0])
		}
	}
	st := c.Stats()
	if st.Misses != 5 {
		t.Fatalf("first walk stats = %+v", st)
	}
	// The whole chain re-verifies for free — the periodic re-validation
	// a negotiator hierarchy runs after any doubt.
	for i := 1; i < len(chain); i++ {
		if _, err := c.CheckRefinement(chain[i-1], chain[i], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st = c.Stats(); st.Hits != 5 || st.Misses != 5 {
		t.Fatalf("second walk stats = %+v", st)
	}
	// A leaf-level over-allocation still fails against its parent.
	bad := &policy.Policy{Statements: chain[5].Statements, Formula: policy.ConjFormula(
		policy.Max{Expr: policy.BandExpr{IDs: []string{chain[5].Statements[0].ID}}, Rate: 256 * 8e6},
	)}
	rep, err := c.CheckRefinement(chain[4], bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("leaf over-allocation accepted")
	}
}

// TestSiblingScopeOverlapRejected pins down the delegation-tree variant:
// a sibling refining traffic already delegated to another sibling's scope
// is caught as a coverage escape against its own delegation.
func TestSiblingScopeOverlapRejected(t *testing.T) {
	pol := mustPolicy(t, `
[ a : tcp.dst = 80 -> .*
  b : tcp.dst = 22 -> .* ],
max(a, 10MB/s) and max(b, 10MB/s)
`)
	scopeA := pred.Test{Field: "ip.src", Value: "10.0.0.1"}
	scopeB := pred.Test{Field: "ip.src", Value: "10.0.0.2"}
	subA, err := Delegate(pol, scopeA)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := Delegate(pol, scopeB)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	// Tenant B proposes a policy that also classifies tenant A's sources:
	// valid against nothing — its own delegation rejects the overlap.
	greedy := &policy.Policy{
		Statements: append(append([]policy.Statement{}, subB.Statements...), subA.Statements[0]),
		Formula:    subB.Formula,
	}
	rep, err := c.CheckRefinement(subB, greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("sibling scope overlap accepted")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "coverage" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected coverage violation, got %v", rep.Violations)
	}
	// Each sibling's own delegation still verifies (identity refinement).
	for _, sub := range []*policy.Policy{subA, subB} {
		rep, err := c.CheckRefinement(sub, sub, Options{})
		if err != nil || !rep.OK() {
			t.Fatalf("identity refinement rejected: %v %v", err, rep)
		}
	}
}

func TestPolicyFingerprintSensitivity(t *testing.T) {
	base := mustPolicy(t, originalSrc)
	same := mustPolicy(t, originalSrc)
	if PolicyFingerprint(base) != PolicyFingerprint(same) {
		t.Fatal("structurally equal policies fingerprint differently")
	}
	for name, src := range map[string]string{
		"formula":   strings.Replace(originalSrc, "100MB/s", "99MB/s", 1),
		"predicate": strings.Replace(originalSrc, "192.168.1.2", "192.168.1.3", 1),
		"path":      strings.Replace(originalSrc, "-> .*", "-> .* log .*", 1),
		"id": strings.Replace(strings.Replace(originalSrc,
			"x :", "y :", 1), "max(x,", "max(y,", 1),
	} {
		if PolicyFingerprint(base) == PolicyFingerprint(mustPolicy(t, src)) {
			t.Fatalf("%s change not reflected in fingerprint", name)
		}
	}
}

func BenchmarkVerifyPartitionCached(b *testing.B) {
	orig, ref := buildPartition(b, 50)
	c := NewCache()
	if _, err := c.CheckRefinement(orig, ref, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := c.CheckRefinement(orig, ref, Options{})
		if err != nil || !rep.OK() {
			b.Fatalf("%v %v", err, rep.Violations)
		}
	}
}
