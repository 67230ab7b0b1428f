package merlin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/policy"
	"merlin/internal/sim"
	"merlin/internal/topo"
)

// podPolicy builds a per-pod multi-tenant policy on a k-ary fat tree:
// tenant p asks for n guarantees between host pairs inside pod p, each
// confined to the pod by its path expression, so provisioning decomposes
// into one link-disjoint shard per pod — the failover benchmark's
// workload (internal/experiments tenantPair/tenantPolicy, which this
// package cannot import without a cycle) at test scale. The tests below
// carry their own shard-count and invalidation assertions, so drift from
// the benchmark pairing would not weaken them.
func podPolicy(t *testing.T, tp *Topology, k, n int) *Policy {
	t.Helper()
	half := k / 2
	mac := func(name string) string { return topo.MACOf(tp.MustLookup(name)) }
	var sb strings.Builder
	sb.WriteString("[")
	for p := 0; p < k; p++ {
		var names []string
		for i := 0; i < half; i++ {
			names = append(names, fmt.Sprintf("agg%d_%d", p, i), fmt.Sprintf("edge%d_%d", p, i))
			for h := 0; h < half; h++ {
				names = append(names, fmt.Sprintf("h%d_%d_%d", p, i, h))
			}
		}
		expr := "( " + strings.Join(names, " | ") + " )*"
		for g := 0; g < n; g++ {
			se, sh := g%half, (g/half)%half
			de, dh := (g+1)%half, (g+2)%half
			src := fmt.Sprintf("h%d_%d_%d", p, se, sh)
			dst := fmt.Sprintf("h%d_%d_%d", p, de, dh)
			if src == dst {
				dh = (dh + 1) % half
				dst = fmt.Sprintf("h%d_%d_%d", p, de, dh)
			}
			fmt.Fprintf(&sb, " t%dg%d : (eth.src = %s and eth.dst = %s) -> %s at min(%dMbps) ;",
				p, g, mac(src), mac(dst), expr, 10+5*g)
		}
	}
	sb.WriteString("]")
	pol, err := ParsePolicy(sb.String(), tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// switchHop returns the first switch-to-switch hop on a compiled path.
func switchHop(t *testing.T, tp *Topology, path []string) (string, string) {
	t.Helper()
	for i := 1; i < len(path); i++ {
		a, okA := tp.Lookup(path[i-1])
		b, okB := tp.Lookup(path[i])
		if okA && okB && tp.Node(a).Kind == topo.Switch && tp.Node(b).Kind == topo.Switch {
			return path[i-1], path[i]
		}
	}
	t.Fatalf("no switch-switch hop on %v", path)
	return "", ""
}

// TestCompilerLinkDownRoundTrip is the failure-recovery acceptance test:
// a link failure invalidates only the touched pod's artifacts and shard,
// the degraded output is byte-identical to a cold compile of the degraded
// topology, and after recovery the output is byte-identical to a cold
// compile of the pristine topology — the compiler survives the full
// LinkDown→LinkUp round trip.
func TestCompilerLinkDownRoundTrip(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ShardsSolved != k {
		t.Fatalf("base compile solved %d shards, want %d (one per pod)", st.ShardsSolved, k)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])
	base := c.Stats()

	downDiff, err := c.ApplyTopo(LinkFailure(a, b))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := st.AnchoredInvalidated - base.AnchoredInvalidated; got != 2 {
		t.Fatalf("failure invalidated %d anchored graphs, want only pod 0's 2", got)
	}
	if st.ShardsSolved != base.ShardsSolved+1 || st.ShardsReused != base.ShardsReused+k-1 {
		t.Fatalf("failure was not shard-local: %+v -> %+v", base, st)
	}
	if st.TopoEvents != base.TopoEvents+1 {
		t.Fatalf("TopoEvents not counted: %+v", st)
	}
	in, rm := downDiff.Counts()
	if in.Total() == 0 || rm.Total() == 0 {
		t.Fatalf("failure produced an empty reroute diff: %+v", downDiff)
	}
	// No surviving path crosses the failed cable.
	for id, path := range c.Result().Paths {
		for i := 1; i < len(path); i++ {
			if (path[i-1] == a && path[i] == b) || (path[i-1] == b && path[i] == a) {
				t.Fatalf("%s still routed across failed link %s-%s", id, a, b)
			}
		}
	}
	// Byte-identical to a cold compile of the degraded topology.
	failedTopo := FatTree(k, Gbps)
	if _, err := failedTopo.SetLinkState(failedTopo.MustLookup(a), failedTopo.MustLookup(b), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "link-down", c.Result(), pol, failedTopo, nil, opts)

	upDiff, err := c.ApplyTopo(LinkRecovery(a, b))
	if err != nil {
		t.Fatal(err)
	}
	// Recovery restores the original configuration exactly, so its diff is
	// the failure diff reversed.
	if !reflect.DeepEqual(c.Result().Outputs, first.Outputs) {
		t.Fatal("recovery did not restore the original configuration")
	}
	upIn, upRm := upDiff.Counts()
	if upIn != rm || upRm != in {
		t.Fatalf("recovery diff %v/%v is not the failure diff %v/%v reversed", upIn, upRm, in, rm)
	}
	// And byte-identical to a cold compile on a pristine topology.
	sameCompiled(t, "round-trip", c.Result(), pol, FatTree(k, Gbps), nil, opts)
}

// TestCompilerSwitchDownRecovery: failing an aggregation switch reroutes
// every tenant path around it and matches a cold compile of the degraded
// topology; recovery restores the pristine configuration.
func TestCompilerSwitchDownRecovery(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.ApplyTopo(SwitchFailure("agg0_0")); err != nil {
		t.Fatal(err)
	}
	for id, path := range c.Result().Paths {
		for _, loc := range path {
			if loc == "agg0_0" {
				t.Fatalf("%s still routed through failed switch: %v", id, path)
			}
		}
	}
	failedTopo := FatTree(k, Gbps)
	if _, err := failedTopo.SetNodeState(failedTopo.MustLookup("agg0_0"), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "switch-down", c.Result(), pol, failedTopo, nil, opts)

	if _, err := c.ApplyTopo(SwitchRecovery("agg0_0")); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Result().Outputs, first.Outputs) {
		t.Fatal("switch recovery did not restore the original configuration")
	}
}

// TestCompilerCapacityChangeWarmResolves: a capacity change re-solves only
// the shards that can ride the re-dimensioned cable (warm-started), reuses
// the rest, and matches a cold compile against the new capacities. An
// infeasible capacity drop is reported without corrupting state.
func TestCompilerCapacityChangeWarmResolves(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := tenantRingPolicy(t, tp, "10MB/s")
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	// 100 -> 90 MB/s on tenant B's only path: still feasible, same route,
	// but B's shard must re-solve against the new coefficient.
	if _, err := c.ApplyTopo(CapacityChange("s5", "s6", 90*MBps)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ShardsWarm != base.ShardsWarm+1 || st.ShardsReused != base.ShardsReused+1 || st.ShardsSolved != base.ShardsSolved {
		t.Fatalf("capacity change: want tenant B warm + tenant A reused, got %+v -> %+v", base, st)
	}
	if st.StatementBuilds != base.StatementBuilds || st.AnchoredBuilds != base.AnchoredBuilds ||
		st.GraphBuilds != base.GraphBuilds || st.TreeBuilds != base.TreeBuilds {
		t.Fatalf("capacity change rebuilt graph artifacts: %+v -> %+v", base, st)
	}
	capTopo := Ring(8, 1, 100*MBps)
	if _, err := capTopo.SetCableCapacity(capTopo.MustLookup("s5"), capTopo.MustLookup("s6"), 90*MBps); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "capacity-change", c.Result(), pol, capTopo, nil, opts)

	// Dropping below tenant B's 10MB/s guarantee is infeasible: the event
	// sticks (it is a fact), the update fails, the last good result stays.
	last := c.Result()
	if _, err := c.ApplyTopo(CapacityChange("s5", "s6", 5*MBps)); err == nil {
		t.Fatal("infeasible capacity drop accepted")
	}
	if c.Result() != last {
		t.Fatal("failed capacity update replaced the last good result")
	}
	// Restoring capacity recovers, and the result matches a fresh compile.
	if _, err := c.ApplyTopo(CapacityChange("s5", "s6", 100*MBps)); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "capacity-restore", c.Result(), pol, Ring(8, 1, 100*MBps), nil, opts)
}

// TestCompilerTopoEventSticksOnFailedUpdate: topology events are facts —
// a delta whose policy part is rejected still applies the event and
// taints the caches, so the next pass compiles against the degraded
// topology rather than serving stale shard solutions.
func TestCompilerTopoEventSticksOnFailedUpdate(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])

	// The policy part is invalid (unknown statement), so Update fails —
	// after the failure event mutated the topology and tainted the caches.
	if _, err := c.Update(Delta{Topo: []TopoEvent{LinkFailure(a, b)}, Remove: []string{"nope"}}); err == nil {
		t.Fatal("delta removing an unknown statement accepted")
	}
	if l, ok := tp.FindLink(tp.MustLookup(a), tp.MustLookup(b)); ok {
		t.Fatalf("failed update rolled back the link failure (link %d live)", l.ID)
	}

	// An empty follow-up update must recompile against the degraded
	// topology — not serve the pre-failure shard solutions or rules.
	if _, err := c.Update(Delta{}); err != nil {
		t.Fatal(err)
	}
	failedTopo := FatTree(k, Gbps)
	if _, err := failedTopo.SetLinkState(failedTopo.MustLookup(a), failedTopo.MustLookup(b), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "event-sticks", c.Result(), pol, failedTopo, nil, opts)

	// Unknown nodes and absent cables are rejected up front, before any
	// mutation.
	if _, err := c.ApplyTopo(LinkFailure("nope", a)); err == nil {
		t.Fatal("event naming an unknown node accepted")
	}
	if _, err := c.ApplyTopo(LinkFailure("agg0_0", "agg0_1")); err == nil {
		t.Fatal("event naming an absent cable accepted")
	}
	if _, err := c.ApplyTopo(CapacityChange(a, b, -1)); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// TestApplyTopoBatchMixedBatch: a malformed event coalesced into the same
// batch as real failures must not discard them — events are facts — nor
// split the batch. The bad event is reported; the three valid failures
// apply as one Update with one reroute diff.
func TestApplyTopoBatchMixedBatch(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	var valid []TopoEvent
	for _, id := range []string{"t0g0", "t1g0", "t2g0"} {
		valid = append(valid, LinkFailure(switchHop(t, tp, first.Paths[id])))
	}
	base := c.Stats()

	var diffs []*Diff
	var errs []error
	batch := append(valid[:2:2], LinkFailure("no-such-node", "agg0_0"), valid[2])
	applied := c.ApplyTopoBatch(batch,
		func(d *Diff) { diffs = append(diffs, d) }, func(err error) { errs = append(errs, err) })
	if !reflect.DeepEqual(applied, valid) {
		t.Fatalf("applied = %v, want only the valid failures %v", applied, valid)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no-such-node") {
		t.Fatalf("want 1 unknown-node error, got %v", errs)
	}
	if len(diffs) != 1 {
		t.Fatalf("valid failures in a mixed batch produced %d diffs, want 1", len(diffs))
	}
	if got := c.Stats().Updates - base.Updates; got != 1 {
		t.Fatalf("mixed batch cost %d updates, want 1", got)
	}
	in, rm := diffs[0].Counts()
	if in.Total() == 0 || rm.Total() == 0 {
		t.Fatalf("mixed-batch reroute diff empty: %+v", diffs[0])
	}
	for _, ev := range valid {
		if l, ok := tp.FindLink(tp.MustLookup(ev.A), tp.MustLookup(ev.B)); ok {
			t.Fatalf("valid failure was dropped with the malformed event (link %d live)", l.ID)
		}
	}
}

// TestCompilerHostDetach: losing a host's access link makes the detached
// host's traffic uncompilable. The incremental compiler reports the same
// error a cold compile of the degraded topology would — for best-effort
// all-pairs traffic (codegen finds the pair unreachable) and for a
// guarantee anchored at the host (provisioning finds it infeasible) —
// keeps the last good result, and recovers cleanly when the link comes
// back. Dropping the affected statements is the controller's call.
func TestCompilerHostDetach(t *testing.T) {
	tp := FatTree(4, Gbps)
	pol, err := ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	last := c.Result()
	_, err = c.ApplyTopo(LinkFailure("edge0_0", "h0_0_0"))
	if err == nil {
		t.Fatal("all-pairs policy compiled with a detached host")
	}
	// The incremental error matches the cold compile's semantic.
	failedTopo := FatTree(4, Gbps)
	if _, err := failedTopo.SetLinkState(failedTopo.MustLookup("edge0_0"), failedTopo.MustLookup("h0_0_0"), false); err != nil {
		t.Fatal(err)
	}
	if _, coldErr := Compile(pol, failedTopo, nil, opts); coldErr == nil || coldErr.Error() != err.Error() {
		t.Fatalf("incremental error %q differs from cold compile's %q", err, coldErr)
	}
	if c.Result() != last {
		t.Fatal("failed update replaced the last good result")
	}
	// Recovery makes the policy compilable again, identically to pristine.
	if _, err := c.ApplyTopo(LinkRecovery("edge0_0", "h0_0_0")); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "host-reattach", c.Result(), pol, FatTree(4, Gbps), nil, opts)

	// A guarantee from the detached host is unsatisfiable: the update
	// fails cleanly and the last good result survives.
	guar := podPolicy(t, tp, 4, 1)
	c2 := NewCompiler(FatTree(4, Gbps), nil, opts)
	if _, err := c2.Compile(guar); err != nil {
		t.Fatal(err)
	}
	lastGuar := c2.Result()
	if _, err := c2.ApplyTopo(LinkFailure("edge0_0", "h0_0_0")); err == nil {
		t.Fatal("guarantee from a detached host accepted")
	}
	if c2.Result() != lastGuar {
		t.Fatal("failed update replaced the last good result")
	}
}

// minFormula rebuilds the pod policy's formula with tenant p0's first
// guarantee moved to newRate, leaving every other guarantee at its
// original rate — the negotiation tick of the e2e scenario.
func minFormula(k, n int, newRate float64) policy.Formula {
	f := policy.Formula(policy.FTrue{})
	for p := 0; p < k; p++ {
		for g := 0; g < n; g++ {
			rate := float64(10+5*g) * Mbps
			if p == 0 && g == 0 {
				rate = newRate
			}
			f = policy.ConjFormula(f, policy.Min{
				Expr: policy.BandExpr{IDs: []string{fmt.Sprintf("t%dg%d", p, g)}},
				Rate: rate,
			})
		}
	}
	return f
}

// TestFailoverBetweenNegotiationTicks is the end-to-end dynamic story: a
// hub drives rate renegotiation ticks through Compiler.WatchHub while a
// link failure arrives between ticks through Compiler.ApplyTopo, and a
// flow-level simulation follows the compiled paths throughout — traffic
// blackholes at the failure, the reroute diff restores it, and the next
// negotiation tick proceeds incrementally on the degraded topology.
func TestFailoverBetweenNegotiationTicks(t *testing.T) {
	const k, n = 4, 2
	tp := FatTree(k, Gbps)
	// Tenant 0 renegotiates its first guarantee: an MMFS guarantee session
	// alone in its shard is granted exactly the demand it declares, up to
	// the 10 Mbps it was delegated.
	hub, err := NewHub(podPolicy(t, tp, k, n), HubOptions{MMFS: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.AddShard("pod0", Gbps); err != nil {
		t.Fatal(err)
	}
	tenant, err := hub.Register("tenant0", "pod0", []string{"t0g0"}, AIMDState{})
	if err != nil {
		t.Fatal(err)
	}
	tenant.Guarantee()
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	res, err := c.Compile(hub.Policy())
	if err != nil {
		t.Fatal(err)
	}

	// Flow-level simulation riding the compiled paths.
	net := sim.New(tp)
	flows := map[string]*sim.Flow{}
	syncFlows := func() {
		for id, names := range c.Result().Paths {
			nodes := make([]topo.NodeID, len(names))
			for i, nm := range names {
				nodes[i] = tp.MustLookup(nm)
			}
			min := c.Result().Allocations[id].Min
			if f, ok := flows[id]; ok {
				if err := net.Reroute(f, nodes); err != nil {
					t.Fatalf("reroute %s: %v", id, err)
				}
				f.MinRate = min
			} else {
				f, err := net.AddFlowOnPath(id, nodes, min, min, 0)
				if err != nil {
					t.Fatalf("flow %s: %v", id, err)
				}
				flows[id] = f
			}
		}
	}
	syncFlows()
	net.Step(1)
	if len(net.FailedFlows()) != 0 {
		t.Fatal("healthy network reports failed flows")
	}
	for id, f := range flows {
		if f.Rate < f.MinRate {
			t.Fatalf("%s below its guarantee before failure: %v < %v", id, f.Rate, f.MinRate)
		}
	}

	// The hub drives renegotiation ticks through WatchHub.
	var tickDiffs []*Diff
	c.WatchHub(hub, func(d *Diff) { tickDiffs = append(tickDiffs, d) })

	// Tick 1: tenant 0 renegotiates its first guarantee 10 -> 8 Mbps
	// (negotiation refines: guarantees only shrink against the parent).
	tenant.OfferDemand(8 * Mbps)
	if rep, err := hub.Tick(); err != nil || !rep.Committed {
		t.Fatalf("tick 1: %+v, %v", rep, err)
	}
	syncFlows()
	net.Step(1)

	// Failure between ticks.
	a, b := switchHop(t, tp, res.Paths["t0g0"])
	if failDiff, err := c.ApplyTopo(LinkFailure(a, b)); err != nil || failDiff == nil {
		t.Fatalf("failure event produced no diff: %v", err)
	}
	// The dataplane still runs the stale paths: traffic into the failure
	// blackholes until the reroute is applied.
	net.Step(1)
	if len(net.FailedFlows()) == 0 {
		t.Fatal("failure did not blackhole any simulated flow")
	}
	syncFlows() // apply the reroute
	net.Step(1)
	if len(net.FailedFlows()) != 0 {
		t.Fatal("reroute left flows across the failed link")
	}
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}
	for id, f := range flows {
		if f.Rate < f.MinRate {
			t.Fatalf("%s below its guarantee after reroute: %v < %v", id, f.Rate, f.MinRate)
		}
	}

	// Tick 2 lands after the failure: renegotiation proceeds incrementally
	// on the degraded topology.
	base := c.Stats()
	tenant.OfferDemand(6 * Mbps)
	if rep, err := hub.Tick(); err != nil || !rep.Committed {
		t.Fatalf("tick 2: %+v, %v", rep, err)
	}
	st := c.Stats()
	if st.StatementBuilds != base.StatementBuilds || st.AnchoredBuilds != base.AnchoredBuilds {
		t.Fatalf("post-failure tick rebuilt statement artifacts: %+v -> %+v", base, st)
	}
	if st.ShardsSolved != base.ShardsSolved {
		t.Fatalf("post-failure tick solved a shard cold: %+v -> %+v", base, st)
	}
	syncFlows()
	net.Step(1)
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}
	if got := flows["t0g0"].MinRate; got != 6*Mbps {
		t.Fatalf("tick 2 guarantee not applied: %v", got)
	}
	if len(tickDiffs) != 2 {
		t.Fatalf("got %d negotiation diffs, want 2", len(tickDiffs))
	}

	// End state matches a cold compile of the degraded topology with the
	// final formula.
	failedTopo := FatTree(k, Gbps)
	if _, err := failedTopo.SetLinkState(failedTopo.MustLookup(a), failedTopo.MustLookup(b), false); err != nil {
		t.Fatal(err)
	}
	finalPol := &Policy{Statements: hub.Policy().Statements, Formula: minFormula(k, n, 6*Mbps)}
	sameCompiled(t, "e2e-final", c.Result(), finalPol, failedTopo, nil, opts)
}
