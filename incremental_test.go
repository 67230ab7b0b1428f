package merlin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/policy"
)

// sameCompiled asserts that an incremental result equals what a fresh
// one-shot Compile of the same policy produces.
func sameCompiled(t *testing.T, label string, got *Result, pol *Policy, tp *Topology, place Placement, opts Options) {
	t.Helper()
	want, err := Compile(pol, tp, place, opts)
	if err != nil {
		t.Fatalf("%s: fresh compile: %v", label, err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: incremental output differs from fresh compile", label)
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s: paths differ: %v vs %v", label, got.Paths, want.Paths)
	}
	if !reflect.DeepEqual(got.Placements, want.Placements) {
		t.Fatalf("%s: placements differ", label)
	}
	if !reflect.DeepEqual(got.Allocations, want.Allocations) {
		t.Fatalf("%s: allocations differ", label)
	}
}

// capFormula builds "max(x+y, xyCap) and min(z, zMin)" — the paper
// example's formula with adjustable rates.
func capFormula(xyCap, zMin float64) policy.Formula {
	return policy.ConjFormula(
		policy.Max{Expr: policy.BandExpr{IDs: []string{"x", "y"}}, Rate: xyCap},
		policy.Min{Expr: policy.BandExpr{IDs: []string{"z"}}, Rate: zMin},
	)
}

func TestCompilerUpdateBeforeCompile(t *testing.T) {
	c := NewCompiler(Example(Gbps), nil, Options{})
	if _, err := c.Update(Delta{}); err == nil {
		t.Fatal("Update before Compile accepted")
	}
}

// TestCompilerCapChangePatches covers the negotiators' fast path: a
// caps-only formula change must reuse every artifact, patch only the tc
// commands, and still match a fresh compile exactly.
func TestCompilerCapChangePatches(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	c := NewCompiler(tp, place, Options{})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	if first.Allocations["x"].Max != 25*MBps {
		t.Fatalf("unexpected baseline allocation: %+v", first.Allocations["x"])
	}
	base := c.Stats()

	diff, err := c.Update(Delta{Formula: capFormula(40*MBps, 10*MBps)})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.StatementBuilds != base.StatementBuilds || st.GraphBuilds != base.GraphBuilds ||
		st.TreeBuilds != base.TreeBuilds || st.AnchoredBuilds != base.AnchoredBuilds {
		t.Fatalf("cap change rebuilt artifacts: %+v -> %+v", base, st)
	}
	if st.SolvesReused != base.SolvesReused+1 {
		t.Fatalf("cap change re-solved the MIP: %+v", st)
	}
	if st.PatchedCodegens != base.PatchedCodegens+1 {
		t.Fatalf("cap change did not take the codegen patch path: %+v", st)
	}
	// The diff touches only tc commands and, since the end-host
	// interpreter rate limits moved with the cap, host programs — both
	// installed and removed, since the caps moved rather than appeared.
	for name, bd := range diff.Backends {
		switch name {
		case codegen.TargetTC, codegen.TargetHost:
			if len(bd.Install) == 0 || len(bd.Remove) == 0 {
				t.Fatalf("cap change produced no %s delta: %+v", name, bd)
			}
		default:
			if !bd.Empty() {
				t.Fatalf("cap change diffed the %s backend: %+v", name, bd)
			}
		}
	}

	// The incremental result matches a fresh compile of the same policy.
	newPol := &Policy{Statements: pol.Statements, Formula: capFormula(40*MBps, 10*MBps)}
	sameCompiled(t, "cap-change", c.Result(), newPol, tp, place, Options{})
}

// TestCompilerRateChangeWarmSolves covers delta re-provisioning: changing
// a guarantee's rate keeps the model shape, so the re-solve warm-starts
// from the previous optimal basis and the output matches a fresh compile.
func TestCompilerRateChangeWarmSolves(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	c := NewCompiler(tp, place, Options{})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	if _, err := c.Update(Delta{Formula: capFormula(50*MBps, 20*MBps)}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WarmSolves != base.WarmSolves+1 {
		t.Fatalf("rate change did not warm-start: %+v", st)
	}
	if st.StatementBuilds != base.StatementBuilds || st.GraphBuilds != base.GraphBuilds ||
		st.AnchoredBuilds != base.AnchoredBuilds || st.TreeBuilds != base.TreeBuilds {
		t.Fatalf("rate change rebuilt graph artifacts: %+v -> %+v", base, st)
	}
	newPol := &Policy{Statements: pol.Statements, Formula: capFormula(50*MBps, 20*MBps)}
	sameCompiled(t, "rate-change", c.Result(), newPol, tp, place, Options{})
}

// TestCompilerAddRemoveStatement covers statement-set deltas: adding a
// statement builds only its artifacts; removing it restores the original
// configuration.
func TestCompilerAddRemoveStatement(t *testing.T) {
	tp := Example(Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 21) -> .* ]
`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	firstOut := first.Outputs

	extraSrc := `[ w : (eth.src = ` + h2.MAC + ` and eth.dst = ` + h1.MAC + ` and tcp.dst = 22) -> .* ]`
	extraPol, err := ParsePolicy(extraSrc, tp)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	diff, err := c.Update(Delta{Add: extraPol.Statements})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.StatementBuilds != base.StatementBuilds+1 {
		t.Fatalf("add rebuilt %d statements, want 1", st.StatementBuilds-base.StatementBuilds)
	}
	if in, _ := diff.Counts(); in.OpenFlow == 0 {
		t.Fatal("adding a statement installed no rules")
	}
	newPol := &Policy{Statements: append(append([]Statement(nil), pol.Statements...), extraPol.Statements...), Formula: pol.Formula}
	sameCompiled(t, "add", c.Result(), newPol, tp, nil, Options{NoDefault: true})

	// Removing the statement restores the original configuration. The
	// diff both removes w's rules and reinstalls x/y's classification at
	// their original priorities (priorities are position-relative).
	diff, err = c.Update(Delta{Remove: []string{"w"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, rm := diff.Counts(); rm.OpenFlow == 0 {
		t.Fatalf("removing the statement removed no rules: %+v", diff)
	}
	if !reflect.DeepEqual(c.Result().Outputs, firstOut) {
		t.Fatal("remove did not restore the original configuration")
	}

	if _, err := c.Update(Delta{Remove: []string{"nope"}}); err == nil {
		t.Fatal("removing an unknown statement accepted")
	}
	if _, err := c.Update(Delta{Add: pol.Statements[:1]}); err == nil {
		t.Fatal("adding a duplicate statement accepted")
	}
}

// TestCompilerFailedUpdateDoesNotPoisonCache: a delta that fails after
// the statement stage leaves its artifacts cached; retrying the same
// delta must fail again rather than spuriously serving the previous
// policy's rules through the codegen patch path.
func TestCompilerFailedUpdateDoesNotPoisonCache(t *testing.T) {
	tp := Example(Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	goodSrc := `[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + `) -> .* ]`
	good, err := ParsePolicy(goodSrc, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Same ID, unsatisfiable path: "scrub" has no placement, so the
	// failure surfaces in the best-effort/codegen stages — after the
	// statement cache has been written.
	badSrc := `[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + `) -> .* scrub .* ]`
	bad, err := ParsePolicy(badSrc, tp)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(good)
	if err != nil {
		t.Fatal(err)
	}
	swap := Delta{Remove: []string{"x"}, Add: bad.Statements}
	if _, err := c.Update(swap); err == nil {
		t.Fatal("unsatisfiable statement accepted")
	}
	if _, err := c.Update(swap); err == nil {
		t.Fatal("retried unsatisfiable statement accepted (stale patch served)")
	}
	if got := c.Result(); got != first {
		t.Fatal("failed updates replaced the last good result")
	}
	// The compiler still works — and still matches a fresh compile —
	// after the failed attempts.
	if _, err := c.Compile(good); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "recovery", c.Result(), good, tp, nil, Options{NoDefault: true})
}

// TestCompilerReorderAfterFailedPass: a failed pass writes the statement
// cache from a reordered policy; a follow-up compile sharing that
// reordered slice must not take the patch path against the older
// result's priorities.
func TestCompilerReorderAfterFailedPass(t *testing.T) {
	tp := Example(Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 21) -> .* ],
max(x, 30MB/s)
`
	polA, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(polA); err != nil {
		t.Fatal(err)
	}
	// Reordered statements + an infeasible guarantee: the pass fails in
	// provisioning, after the statement cache was written from reordered.
	reordered := []Statement{polA.Statements[1], polA.Statements[0]}
	infeasible := policy.ConjFormula(
		policy.Max{Expr: policy.BandExpr{IDs: []string{"x"}}, Rate: 200 * Gbps},
		policy.Min{Expr: policy.BandExpr{IDs: []string{"x"}}, Rate: 100 * Gbps},
	)
	if _, err := c.Compile(&Policy{Statements: reordered, Formula: infeasible}); err == nil {
		t.Fatal("infeasible guarantee accepted")
	}
	// Retry with the reordered slice and a satisfiable formula: the
	// output must match a fresh compile of the reordered policy (x and y
	// swap first-match priorities), not the cached polA rules.
	retry := &Policy{Statements: reordered, Formula: polA.Formula}
	if _, err := c.Compile(retry); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "reorder-after-failure", c.Result(), retry, tp, nil, Options{NoDefault: true})
}

// TestCompilerPlacementChange covers Delta.Place: moving a function must
// re-resolve path expressions and reroute through the new location.
func TestCompilerPlacementChange(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"m1"}, "nat": {"m1"}}
	c := NewCompiler(tp, place, Options{})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	newPlace := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	if _, err := c.Update(Delta{Place: newPlace}); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "placement", c.Result(), pol, tp, newPlace, Options{})

	// A rejected placement (nat unplaceable → z's path unsatisfiable)
	// must not take effect: the next pass still compiles under the last
	// accepted placement.
	if _, err := c.Update(Delta{Place: Placement{"dpi": {"m1"}}}); err == nil {
		t.Fatal("placement breaking a guaranteed path accepted")
	}
	if _, err := c.Update(Delta{Formula: capFormula(45*MBps, 10*MBps)}); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "placement-rollback", c.Result(),
		&Policy{Statements: pol.Statements, Formula: capFormula(45*MBps, 10*MBps)},
		tp, newPlace, Options{})
}

// tenantRingPolicy builds a two-tenant policy on an 8-switch ring: each
// tenant's guarantees are confined by their path expressions to opposite
// arcs of the ring, so provisioning decomposes into one link-disjoint
// shard per tenant. bRate is tenant B's guarantee rate.
func tenantRingPolicy(t testing.TB, tp *Topology, bRate string) *Policy {
	t.Helper()
	ids := tp.Identities()
	mac := func(host string) string {
		id, _ := ids.Of(tp.MustLookup(host))
		return id.MAC
	}
	arc := func(lo, hi int) string {
		var names []string
		for i := lo; i < hi; i++ {
			names = append(names, fmt.Sprintf("s%d", i), fmt.Sprintf("h%d_0", i))
		}
		return "(" + strings.Join(names, "|") + ")*"
	}
	src := fmt.Sprintf(`
[ a0 : (eth.src = %s and eth.dst = %s) -> %s at min(20MB/s)
  b0 : (eth.src = %s and eth.dst = %s) -> %s at min(%s) ]`,
		mac("h0_0"), mac("h3_0"), arc(0, 4),
		mac("h4_0"), mac("h7_0"), arc(4, 8), bRate)
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestCompilerShardedDeltaResolvesOnlyTouchedShards covers sharding
// through the incremental layer: with two link-disjoint tenants, a rate
// change in tenant B warm-starts only B's shard and reuses tenant A's
// cached solution outright.
func TestCompilerShardedDeltaResolvesOnlyTouchedShards(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := tenantRingPolicy(t, tp, "10MB/s")
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.ShardsSolved != 2 {
		t.Fatalf("base compile solved %d shards, want 2 (one per tenant)", base.ShardsSolved)
	}

	changed := tenantRingPolicy(t, tp, "30MB/s")
	if _, err := c.Update(Delta{Formula: changed.Formula}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ShardsWarm != base.ShardsWarm+1 {
		t.Fatalf("tenant B's rate change warm-started %d shards, want 1: %+v", st.ShardsWarm-base.ShardsWarm, st)
	}
	if st.ShardsReused != base.ShardsReused+1 {
		t.Fatalf("tenant A's untouched shard was not reused: %+v", st)
	}
	if st.ShardsSolved != base.ShardsSolved {
		t.Fatalf("rate change solved a shard cold: %+v", st)
	}
	if st.WarmSolves != base.WarmSolves+1 {
		t.Fatalf("warm-only run not counted as a warm solve: %+v", st)
	}
	if st.StatementBuilds != base.StatementBuilds || st.AnchoredBuilds != base.AnchoredBuilds {
		t.Fatalf("rate change rebuilt statement artifacts: %+v -> %+v", base, st)
	}

	// The incremental result matches a fresh compile of the same policy.
	newPol := &Policy{Statements: pol.Statements, Formula: changed.Formula}
	sameCompiled(t, "sharded-rate-change", c.Result(), newPol, tp, nil, Options{NoDefault: true})
}
