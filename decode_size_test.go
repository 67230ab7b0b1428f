package merlin_test

import (
	"testing"

	merlin "merlin"
	"merlin/internal/corpus"
)

// TestDecodeDeltaIndependentOfPolicySize: decoding a delta parses only
// the delta's own text, so the same one-term formula delta and the same
// one-statement add cost about as many allocations against a
// 10-statement policy as against the 1000×1 delegation policy. Counting
// allocations rather than time keeps the guard independent of the
// machine; the whole-policy decoder's counts grew with the statement
// count.
func TestDecodeDeltaIndependentOfPolicySize(t *testing.T) {
	allocs := func(tenants int) (formula, add float64) {
		sc, err := corpus.Generate(corpus.Spec{Topo: "fattree-k8", Suite: "delegation", Seed: 1, Tenants: tenants, Guarantees: 1})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
		if err != nil {
			t.Fatal(err)
		}
		if len(pol.Statements) != tenants {
			t.Fatalf("delegation %d×1 has %d statements", tenants, len(pol.Statements))
		}
		c := merlin.NewCompiler(sc.Topology, nil, merlin.Options{NoDefault: true})
		if _, err := c.Compile(pol); err != nil {
			t.Fatal(err)
		}
		first := pol.Statements[0].ID
		decode := func(w merlin.WireDelta) float64 {
			if _, err := c.DecodeDelta(w); err != nil {
				t.Fatalf("%d statements: %+v: %v", tenants, w, err)
			}
			return testing.AllocsPerRun(20, func() { _, _ = c.DecodeDelta(w) })
		}
		formula = decode(merlin.WireDelta{Formula: "max(" + first + ", 10Mbps)"})
		add = decode(merlin.WireDelta{Add: []string{"zadd : (tcp.dst = 80) -> .*"}})
		return formula, add
	}
	smallF, smallA := allocs(10)
	bigF, bigA := allocs(1000)
	t.Logf("allocations per decode: formula %v → %v, add %v → %v (10 → 1000 statements)", smallF, bigF, smallA, bigA)
	if bigF > 2*smallF || bigA > 2*smallA {
		t.Fatalf("decode allocations grow with the policy: formula %v → %v, add %v → %v (10 → 1000 statements)", smallF, bigF, smallA, bigA)
	}
}
