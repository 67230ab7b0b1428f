package merlin

import "testing"

// TestApplyTopoBatchCoalescesStorm covers the correlated-failure story:
// a switch dies and its loss-of-light link alarms arrive moments later,
// collected into one batch (merlind's debounce window). ApplyTopoBatch
// applies the storm as one invalidation sweep and one recompile — three
// events, one Update, one diff.
func TestApplyTopoBatchCoalescesStorm(t *testing.T) {
	tp := FatTree(4, Gbps)
	pol, err := ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	var diffs int
	var errs []error
	storm := []TopoEvent{
		SwitchFailure("agg0_0"),
		LinkFailure("agg0_0", "edge0_0"),
		LinkFailure("agg0_0", "edge0_1"),
	}
	applied := c.ApplyTopoBatch(storm,
		func(*Diff) { diffs++ },
		func(err error) { errs = append(errs, err) })

	if len(errs) != 0 {
		t.Fatalf("storm produced errors: %v", errs)
	}
	if diffs != 1 || len(applied) != len(storm) {
		t.Fatalf("storm produced %d diffs and applied %d events, want 1 diff for all %d", diffs, len(applied), len(storm))
	}
	st := c.Stats()
	if st.Updates != base.Updates+1 {
		t.Fatalf("storm cost %d updates, want 1", st.Updates-base.Updates)
	}
	if st.TopoEvents != base.TopoEvents+3 {
		t.Fatalf("applied %d events, want 3", st.TopoEvents-base.TopoEvents)
	}
	// One sweep: the switch failure patches the lone best-effort graph in
	// place once; the redundant link alarms are no-ops.
	if st.GraphsPatched != base.GraphsPatched+1 {
		t.Fatalf("storm patched %d graphs, want 1", st.GraphsPatched-base.GraphsPatched)
	}
	if st.GraphsInvalidated != base.GraphsInvalidated || st.GraphBuilds != base.GraphBuilds {
		t.Fatalf("storm evicted or rebuilt graphs the patch path should repair: %+v -> %+v", base, st)
	}
}

// TestFailurePatchesOnlyIncidentBestEffortGraphs covers selective
// best-effort repair: a link failure touches only the minimized product
// graphs whose cable incidence includes an affected cable — the same
// scoping the anchored graphs already get — and repairs those in place
// (WithoutLinks) instead of rebuilding, evicting only the sink trees
// whose used paths crossed the cable.
// islandTopo builds two 2-host switch islands joined by a single s1-s2
// trunk. Identities are deterministic in construction order, so policies
// parsed against one instance compile against another.
func islandTopo() *Topology {
	tp := NewTopology()
	s1 := tp.AddSwitch("s1")
	s2 := tp.AddSwitch("s2")
	h1 := tp.AddHost("h1")
	h2 := tp.AddHost("h2")
	h3 := tp.AddHost("h3")
	h4 := tp.AddHost("h4")
	tp.AddLink(h1, s1, Gbps)
	tp.AddLink(h2, s1, Gbps)
	tp.AddLink(h3, s2, Gbps)
	tp.AddLink(h4, s2, Gbps)
	tp.AddLink(s1, s2, Gbps)
	return tp
}

func TestFailurePatchesOnlyIncidentBestEffortGraphs(t *testing.T) {
	tp := islandTopo()
	ids := tp.Identities()
	m1, _ := ids.Of(tp.MustLookup("h1"))
	m2, _ := ids.Of(tp.MustLookup("h2"))
	m3, _ := ids.Of(tp.MustLookup("h3"))
	m4, _ := ids.Of(tp.MustLookup("h4"))
	// Statement a is pinned to the s1 island by its path expression, so
	// its minimized graph never rides the s1-s2 trunk; statement b's .*
	// graph spans the whole topology.
	src := `
[ a : (eth.src = ` + m1.MAC + ` and eth.dst = ` + m2.MAC + `) -> h1 s1 h2
  b : (eth.src = ` + m3.MAC + ` and eth.dst = ` + m4.MAC + `) -> .* ]`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.GraphBuilds != 2 || base.TreeBuilds != 2 {
		t.Fatalf("baseline built %d graphs / %d trees, want 2/2", base.GraphBuilds, base.TreeBuilds)
	}

	// Failing the trunk affects only statement b's graph; both hosts of
	// each statement stay connected, so the recompile succeeds.
	if _, err := c.ApplyTopo(LinkFailure("s1", "s2")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.GraphsPatched != base.GraphsPatched+1 {
		t.Fatalf("patched %d best-effort graphs, want only b's 1", st.GraphsPatched-base.GraphsPatched)
	}
	if st.GraphsInvalidated != base.GraphsInvalidated || st.GraphBuilds != base.GraphBuilds {
		t.Fatalf("b's graph was evicted or rebuilt instead of patched in place: %+v -> %+v", base, st)
	}
	// b's tree routes h1, h2 and s1 over the trunk, so it cannot survive
	// the patch and is rebuilt on the repaired graph.
	if st.TreesInvalidated != base.TreesInvalidated+1 || st.TreeBuilds != base.TreeBuilds+1 {
		t.Fatalf("recompile evicted %d / rebuilt %d trees, want only b's 1/1",
			st.TreesInvalidated-base.TreesInvalidated, st.TreeBuilds-base.TreeBuilds)
	}
	// The patched graph must be indistinguishable from a cold build on the
	// degraded topology: compiled output, paths and placements all match.
	degraded := islandTopo()
	if _, err := degraded.SetLinkState(degraded.MustLookup("s1"), degraded.MustLookup("s2"), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "trunk-failure-patch", c.Result(), pol, degraded, nil, Options{NoDefault: true})

	// Recovery is selective too: only b's graph was patched while the
	// trunk was down (the patch stamped it with the outage), so only it —
	// and its tree — drops. Statement a's island graph, built under full
	// connectivity and untouched by the failure, survives both events.
	if _, err := c.ApplyTopo(LinkRecovery("s1", "s2")); err != nil {
		t.Fatal(err)
	}
	st2 := c.Stats()
	if st2.GraphsInvalidated != st.GraphsInvalidated+1 || st2.TreesInvalidated != st.TreesInvalidated+1 {
		t.Fatalf("recovery evicted %d graphs / %d trees, want only b's 1/1",
			st2.GraphsInvalidated-st.GraphsInvalidated, st2.TreesInvalidated-st.TreesInvalidated)
	}
	if st2.GraphBuilds != st.GraphBuilds+1 || st2.TreeBuilds != st.TreeBuilds+1 {
		t.Fatalf("recovery recompile rebuilt %d graphs / %d trees, want 1/1",
			st2.GraphBuilds-st.GraphBuilds, st2.TreeBuilds-st.TreeBuilds)
	}
	sameCompiled(t, "trunk-recovery", c.Result(), pol, islandTopo(), nil, Options{NoDefault: true})
}

// TestFailureKeepsTreesOffUsedPaths pins the surviving-tree half of the
// patch path: on an odd ring every node has a unique shortest route to the
// destination, so failing the one cable no tree path uses patches the
// spanning graph in place but keeps the sink tree verbatim — no tree
// eviction, no rebuild — and the compiled output is byte-identical to a
// cold compile on the degraded ring.
func TestFailureKeepsTreesOffUsedPaths(t *testing.T) {
	tp := Ring(5, 1, Gbps)
	ids := tp.Identities()
	src, _ := ids.Of(tp.MustLookup("h1_0"))
	dst, _ := ids.Of(tp.MustLookup("h0_0"))
	pol, err := ParsePolicy(
		`[ x : (eth.src = `+src.MAC+` and eth.dst = `+dst.MAC+`) -> .* ]`, tp)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	// Toward h0_0, s2 routes via s1 (2 hops, not 3 via s3) and s3 via s4,
	// so the s2-s3 cable carries no tree path — only graph edges.
	if _, err := c.ApplyTopo(LinkFailure("s2", "s3")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.GraphsPatched != base.GraphsPatched+1 || st.GraphBuilds != base.GraphBuilds {
		t.Fatalf("spanning graph not patched in place: %+v -> %+v", base, st)
	}
	if st.TreesKept != base.TreesKept+1 || st.TreesInvalidated != base.TreesInvalidated ||
		st.TreeBuilds != base.TreeBuilds {
		t.Fatalf("off-path failure did not keep the sink tree: %+v -> %+v", base, st)
	}
	degraded := Ring(5, 1, Gbps)
	if _, err := degraded.SetLinkState(degraded.MustLookup("s2"), degraded.MustLookup("s3"), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "kept-tree-failure", c.Result(), pol, degraded, nil, opts)

	// The patch stamped the graph with the outage, so recovery evicts and
	// rebuilds it — the kept tree must not outlive its graph.
	if _, err := c.ApplyTopo(LinkRecovery("s2", "s3")); err != nil {
		t.Fatal(err)
	}
	st2 := c.Stats()
	if st2.GraphsInvalidated != st.GraphsInvalidated+1 || st2.TreesInvalidated != st.TreesInvalidated+1 {
		t.Fatalf("recovery did not evict the patched graph and its tree: %+v -> %+v", st, st2)
	}
	sameCompiled(t, "kept-tree-recovery", c.Result(), pol, Ring(5, 1, Gbps), nil, opts)
}
