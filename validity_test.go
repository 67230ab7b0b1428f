package merlin

import (
	"reflect"
	"testing"
)

// ringPolicy parses one best-effort statement x from h1_0 to h0_0 on a
// ring, confined to path, with an optional formula.
func ringPolicy(t *testing.T, tp *Topology, path, formula string) *Policy {
	t.Helper()
	ids := tp.Identities()
	src, _ := ids.Of(tp.MustLookup("h1_0"))
	dst, _ := ids.Of(tp.MustLookup("h0_0"))
	text := `[ x : (eth.src = ` + src.MAC + ` and eth.dst = ` + dst.MAC + `) -> ` + path + ` ]`
	if formula != "" {
		text += `, ` + formula
	}
	pol, err := ParsePolicy(text, tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestCompileSeesStatementEditedInPlace: a statement artifact answers only
// the predicate and path it was built from, so a policy edited in place
// after a compile is recompiled, not served from the stale artifact.
func TestCompileSeesStatementEditedInPlace(t *testing.T) {
	tp := Ring(5, 1, Gbps)
	opts := Options{NoDefault: true}
	pol := ringPolicy(t, tp, ".*", "")
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	// The long way round: h1_0 reaches h0_0 through s2, s3 and s4.
	pol.Statements[0].Path = ringPolicy(t, tp, "h1_0 s1 s2 s3 s4 s0 h0_0", "").Statements[0].Path
	res, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res.Outputs, first.Outputs) {
		t.Fatal("the edited path expression left the output unchanged")
	}
	sameCompiled(t, "edited-in-place", res, pol, Ring(5, 1, Gbps), nil, opts)
}

// TestOffPathFailurePatchesCodegen: a failure that no used tree path
// crosses keeps every sink tree, so a pass delivering it with a cap change
// patches the caps instead of lowering again — and still equals a cold
// compile on the degraded ring.
func TestOffPathFailurePatchesCodegen(t *testing.T) {
	tp := Ring(5, 1, Gbps)
	opts := Options{NoDefault: true}
	pol := ringPolicy(t, tp, ".*", "max(x, 100Mbps)")
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	// Toward h0_0, s2 routes via s1 and s3 via s4: no tree path uses s2-s3.
	capped := ringPolicy(t, tp, ".*", "max(x, 50Mbps)")
	if _, err := c.Update(Delta{Formula: capped.Formula, Topo: []TopoEvent{LinkFailure("s2", "s3")}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.TreesKept != base.TreesKept+1 || st.TreeBuilds != base.TreeBuilds {
		t.Fatalf("off-path failure did not keep the sink tree: %+v -> %+v", base, st)
	}
	if st.PatchedCodegens != base.PatchedCodegens+1 || st.FullCodegens != base.FullCodegens {
		t.Fatalf("off-path failure ran %d full / %d patched codegens, want 0/1",
			st.FullCodegens-base.FullCodegens, st.PatchedCodegens-base.PatchedCodegens)
	}
	if caps := c.Result().IR.Caps; len(caps) != 1 || caps[0].MaxBps != 50*Mbps {
		t.Fatalf("patched caps %+v, want one 50Mbps cap", caps)
	}
	degraded := Ring(5, 1, Gbps)
	if _, err := degraded.SetLinkState(degraded.MustLookup("s2"), degraded.MustLookup("s3"), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "off-path-failure", c.Result(), capped, degraded, nil, opts)
}

// TestCapacityChangeInRejectedDeltaResolvesOnRetry: a capacity change is a
// fact even when the rest of its delta is rejected. The cached solution
// records the capacities it was solved against, so a formula-only retry
// re-solves the re-dimensioned cable's shard warm and reuses the other.
func TestCapacityChangeInRejectedDeltaResolvesOnRetry(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := tenantRingPolicy(t, tp, "10MB/s")
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	ev := CapacityChange("s5", "s6", 90*MBps)
	if _, err := c.Update(Delta{Topo: []TopoEvent{ev}, Remove: []string{"nope"}}); err == nil {
		t.Fatal("delta removing an unknown statement accepted")
	}
	if l, _ := tp.FindLink(tp.MustLookup("s5"), tp.MustLookup("s6")); l.Capacity != 90*MBps {
		t.Fatalf("rejected delta rolled back the capacity change (capacity %g)", l.Capacity)
	}
	if _, err := c.Update(Delta{Formula: pol.Formula}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ShardsWarm != base.ShardsWarm+1 || st.ShardsReused != base.ShardsReused+1 || st.ShardsSolved != base.ShardsSolved {
		t.Fatalf("retry: want tenant B warm + tenant A reused, got %+v -> %+v", base, st)
	}
	capTopo := Ring(8, 1, 100*MBps)
	if _, err := capTopo.SetCableCapacity(capTopo.MustLookup("s5"), capTopo.MustLookup("s6"), 90*MBps); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "capacity-retry", c.Result(), pol, capTopo, nil, opts)
}
