package merlin_test

import (
	"reflect"
	"testing"
	"time"

	"merlin"
	"merlin/internal/corpus"
)

// TestDefaultStatementCompileScale compiles 24 tenant guarantees on a
// k=4 fat tree with Options{}, so the pre-processor's totality default
// (§2.1) — a best-effort statement over the negation of every other
// predicate — is lowered for all 240 host pairs. Lowering must expand
// that predicate once, not once per pair: the compile has to finish in
// seconds and stay deterministic.
func TestDefaultStatementCompileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 24-guarantee fat tree with the totality default; skipped in -short")
	}
	sc, err := corpus.Generate(corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Seed: 1, Tenants: 4, Guarantees: 6})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sc.Guarantee); n != 24 {
		t.Fatalf("scenario has %d guarantees, want 24", n)
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
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("compile took %v, want under 10s", d)
		}
		return res
	}
	a, b := compile(), compile()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Fatal("two compiles of the same policy produced different outputs")
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
// fat tree. Every shard is netflow-eligible, so each request must be one
// shortest-path run over its product graph: the compile has to finish in
// seconds and stay deterministic.
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
