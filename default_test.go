package merlin_test

import (
	"reflect"
	"testing"
	"time"

	"merlin"
	"merlin/internal/corpus"
)

// TestDefaultStatementCompileScale compiles tenant guarantees with
// Options{}, so the pre-processor's totality default (§2.1) — a
// best-effort statement over the negation of every other predicate — is
// lowered for every host pair: 240 pairs on a k=4 fat tree, 186,192 on a
// k=12 one. Lowering must expand that predicate once per statement, not
// once per pair, and must not hash it per pair either: each compile has
// to finish in seconds and stay deterministic.
func TestDefaultStatementCompileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles fat trees with the totality default; skipped in -short")
	}
	for _, tc := range []struct {
		topo                string
		tenants, guarantees int
		limit               time.Duration
	}{
		{"fattree-k4", 4, 6, 10 * time.Second},
		{"fattree-k12", 8, 6, 2 * time.Second},
	} {
		sc, err := corpus.Generate(corpus.Spec{Topo: tc.topo, Suite: "tenants", Seed: 1, Tenants: tc.tenants, Guarantees: tc.guarantees})
		if err != nil {
			t.Fatal(err)
		}
		if n, want := len(sc.Guarantee), tc.tenants*tc.guarantees; n != want {
			t.Fatalf("%s: scenario has %d guarantees, want %d", tc.topo, n, want)
		}
		pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
		if err != nil {
			t.Fatal(err)
		}
		compile := func() *merlin.Result {
			t.Helper()
			start := time.Now()
			res, err := merlin.Compile(pol, sc.Topology, sc.Placement, merlin.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > tc.limit {
				t.Fatalf("%s: compile took %v, want under %v", tc.topo, d, tc.limit)
			}
			return res
		}
		a, b := compile(), compile()
		if !reflect.DeepEqual(a.Outputs, b.Outputs) {
			t.Fatalf("%s: two compiles of the same policy produced different outputs", tc.topo)
		}
	}
}

// TestGuaranteedCompileScale compiles 96 region-confined tenant
// guarantees on a k=16 fat tree (1,024 hosts). Every guarantee's anchored
// product graph determinizes and minimizes an automaton over the whole
// 1,344-location alphabet, so each automaton step must cost one move per
// symbol class, not one per location: the compile has to finish in
// seconds and stay deterministic.
func TestGuaranteedCompileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 96-guarantee k=16 fat tree; skipped in -short")
	}
	sc, err := corpus.Generate(corpus.Spec{Topo: "fattree-k16", Suite: "tenants", Seed: 1, Tenants: 16, Guarantees: 6})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sc.Guarantee); n != 96 {
		t.Fatalf("scenario has %d guarantees, want 96", n)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *merlin.Result {
		t.Helper()
		start := time.Now()
		res, err := merlin.Compile(pol, sc.Topology, sc.Placement, merlin.Options{NoDefault: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("compile took %v, want under 5s", d)
		}
		return res
	}
	a, b := compile(), compile()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Fatal("two compiles of the same policy produced different outputs")
	}
}

// TestChainsCompileScale compiles 48 middlebox-chain guarantees on a k=16
// fat tree. Every shard's cheapest routes fit every cable, so each request
// must be one shortest-path run over its product graph, with no branch and
// bound: the compile has to finish in seconds and stay deterministic.
func TestChainsCompileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 48-guarantee k=16 fat tree; skipped in -short")
	}
	sc, err := corpus.Generate(corpus.Spec{Topo: "fattree-k16", Suite: "chains", Seed: 1, Tenants: 8, Guarantees: 6})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sc.Guarantee); n != 48 {
		t.Fatalf("scenario has %d guarantees, want 48", n)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *merlin.Result {
		t.Helper()
		start := time.Now()
		res, err := merlin.Compile(pol, sc.Topology, sc.Placement, merlin.Options{NoDefault: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("compile took %v, want under 2s", d)
		}
		return res
	}
	a, b := compile(), compile()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Fatal("two compiles of the same policy produced different outputs")
	}
}

// TestChainsRevisitingTreeRetag compiles the zoo-14 middlebox-chain draws
// whose best-effort waypoint paths revisit a switch right after ingress.
// Plans sharing one sink tree share its tag, so the first forwarding hop
// after ingress can collide with a rule another plan bound under that
// tag; the retag must then move the plan's own ingress classification
// onto the fresh tag instead of failing with "retag: no prior rule".
func TestChainsRevisitingTreeRetag(t *testing.T) {
	for _, seed := range []int64{286, 311, 493, 943, 1349} {
		sc, err := corpus.Generate(corpus.Spec{Topo: "zoo-14", Suite: "chains", Seed: seed, Tenants: 8, Guarantees: 6})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
		if err != nil {
			t.Fatal(err)
		}
		opts := merlin.Options{NoDefault: true, Workers: 2, Targets: merlin.BackendNames()}
		if _, err := merlin.Compile(pol, sc.Topology, sc.Placement, opts); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
