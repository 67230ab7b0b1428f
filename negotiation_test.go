package merlin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ringMAC and ringArc mirror tenantRingPolicy's building blocks for the
// hub tests: two tenants pinned to disjoint halves of an 8-ring.
func ringMAC(tp *Topology, host string) string {
	id, _ := tp.Identities().Of(tp.MustLookup(host))
	return id.MAC
}

func ringArc(lo, hi int) string {
	var names []string
	for i := lo; i < hi; i++ {
		names = append(names, fmt.Sprintf("s%d", i), fmt.Sprintf("h%d_0", i))
	}
	return "(" + strings.Join(names, "|") + ")*"
}

func hubRingPolicy(t *testing.T, tp *Topology, rates string) *Policy {
	t.Helper()
	src := fmt.Sprintf(`
[ a0 : (eth.src = %s and eth.dst = %s) -> %s %s
  b0 : (eth.src = %s and eth.dst = %s) -> %s %s ]`,
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4), rates,
		ringMAC(tp, "h4_0"), ringMAC(tp, "h7_0"), ringArc(4, 8), rates)
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestCompilerWatchHubCapTicksPatch drives batched cap reallocation ticks
// through a bound compiler: every committed tick must take the
// patched-codegen fast path, never rebuild an artifact, and leave the
// compiled state equal to a fresh compile of the hub's policy.
func TestCompilerWatchHubCapTicksPatch(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	hub, err := NewHub(hubRingPolicy(t, tp, "at max(40MB/s)"), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(hub.Policy()); err != nil {
		t.Fatal(err)
	}
	// Caps occupy no capacity: no provisioning pass, so no shard keying to
	// reuse — the hub still shards by the caller's grouping.
	if got := c.NegotiationShards(); got != nil {
		t.Fatalf("caps-only policy has provisioning shards: %v", got)
	}
	base := c.Stats()

	var diffs []*Diff
	c.WatchHub(hub, func(d *Diff) { diffs = append(diffs, d) })
	for _, sh := range []string{"left", "right"} {
		if err := hub.AddShard(sh, 100*MBps); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := AIMDState{Alloc: 10 * MBps, Increase: 5 * MBps, Decrease: 0.5}
	sa, err := hub.Register("tenant-a", "left", []string{"a0"}, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := hub.Register("tenant-b", "right", []string{"b0"}, ctrl)
	if err != nil {
		t.Fatal(err)
	}

	committed := 0
	for i := 0; i < 8; i++ {
		sa.OfferDemand(60 * MBps)
		sb.OfferDemand(30 * MBps)
		rep, err := hub.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if rep.Committed {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no tick committed")
	}
	st := c.Stats()
	if got := st.PatchedCodegens - base.PatchedCodegens; got != committed {
		t.Fatalf("%d of %d committed ticks took the patch path", got, committed)
	}
	if st.GraphBuilds != base.GraphBuilds || st.TreeBuilds != base.TreeBuilds ||
		st.StatementBuilds != base.StatementBuilds ||
		st.Solves != base.Solves || st.WarmSolves != base.WarmSolves {
		t.Fatalf("hub ticks were not incremental: %+v -> %+v", base, st)
	}
	if st.TenantsActive != 2 || st.TicksBatched != 8 {
		t.Fatalf("hub counters not mirrored: %+v", st)
	}
	if len(diffs) != committed {
		t.Fatalf("got %d diffs for %d committed ticks", len(diffs), committed)
	}
	for i, d := range diffs {
		if in, rm := d.Counts(); in.OpenFlow != 0 || rm.OpenFlow != 0 {
			t.Fatalf("tick %d diff churned rules", i)
		}
	}
	sameCompiled(t, "hub-cap-ticks", c.Result(), hub.Policy(), tp, nil, Options{NoDefault: true})
}

// TestCompilerWatchHubGuaranteeTicksWarmShards drives a guarantee
// renegotiation tick: only the changed tenant's provisioning shard may
// re-solve (warm-started), the untouched tenant's shard is reused, and
// the hub shard keying comes from NegotiationShards.
func TestCompilerWatchHubGuaranteeTicksWarmShards(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	hub, err := NewHub(hubRingPolicy(t, tp, "at min(10MB/s)"), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(hub.Policy()); err != nil {
		t.Fatal(err)
	}
	shards := c.NegotiationShards()
	if !reflect.DeepEqual(shards, [][]string{{"a0"}, {"b0"}}) {
		t.Fatalf("negotiation shards = %v", shards)
	}
	base := c.Stats()
	c.WatchHub(hub, nil)

	// Key the hub by the provisioning partition: one hub shard per
	// link-disjoint group, one session per tenant.
	sessions := map[string]*Session{}
	for i, group := range shards {
		name := fmt.Sprintf("shard%d", i)
		if err := hub.AddShard(name, 50*MBps); err != nil {
			t.Fatal(err)
		}
		s, err := hub.Register(fmt.Sprintf("tenant%d", i), name, group,
			AIMDState{Alloc: 5 * MBps, Increase: 1 * MBps, Decrease: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sessions[group[0]] = s.Guarantee()
	}

	// Only tenant b0 renegotiates this window.
	sessions["b0"].OfferDemand(40 * MBps)
	rep, err := hub.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed {
		t.Fatal("guarantee tick did not commit")
	}
	st := c.Stats()
	if st.ShardsWarm != base.ShardsWarm+1 {
		t.Fatalf("changed shard not warm-started: %+v -> %+v", base, st)
	}
	if st.ShardsReused != base.ShardsReused+1 {
		t.Fatalf("untouched shard not reused: %+v -> %+v", base, st)
	}
	if st.ShardsSolved != base.ShardsSolved {
		t.Fatalf("guarantee tick solved a shard cold: %+v", st)
	}
	if st.GraphBuilds != base.GraphBuilds || st.StatementBuilds != base.StatementBuilds {
		t.Fatalf("guarantee tick rebuilt artifacts: %+v -> %+v", base, st)
	}
	sameCompiled(t, "hub-guarantee-tick", c.Result(), hub.Policy(), tp, nil, Options{NoDefault: true})
}

// TestCompilerWatchHubProposalAdmission pins the admission-control
// contract: a rejected proposal triggers no recompile at all, an accepted
// one recompiles through the caches, and a repeated proposal is served
// from the verification cache.
func TestCompilerWatchHubProposalAdmission(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	hub, err := NewHub(hubRingPolicy(t, tp, "at max(40MB/s)"), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(hub.Policy()); err != nil {
		t.Fatal(err)
	}
	c.WatchHub(hub, nil)
	if err := hub.AddShard("left", 100*MBps); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("tenant-a", "left", []string{"a0"}, AIMDState{}); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()

	over := fmt.Sprintf(`[ a0 : (eth.src = %s and eth.dst = %s) -> %s at max(80MB/s) ]`,
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4))
	overPol, err := ParsePolicy(over, tp)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Result()
	if _, err := hub.Propose("tenant-a", overPol); err == nil {
		t.Fatal("over-allocation accepted")
	}
	st := c.Stats()
	if st.Compiles != base.Compiles || c.Result() != before {
		t.Fatalf("rejected proposal recompiled: %+v -> %+v", base, st)
	}
	if st.ProposalsRejected != 1 {
		t.Fatalf("rejection not mirrored: %+v", st)
	}

	// A valid split of the delegation recompiles once and sticks.
	split := fmt.Sprintf(`
[ p : (eth.src = %s and eth.dst = %s and tcp.dst = 80) -> %s at max(15MB/s)
  q : (eth.src = %s and eth.dst = %s and tcp.dst != 80) -> %s at max(25MB/s) ]`,
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4),
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4))
	splitPol, err := ParsePolicy(split, tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Propose("tenant-a", splitPol); err != nil {
		t.Fatalf("valid refinement rejected: %v", err)
	}
	st = c.Stats()
	if st.Compiles != base.Compiles+1 {
		t.Fatalf("accepted proposal did not recompile once: %+v", st)
	}
	if got := len(hub.Policy().Statements); got != 3 { // p, q, b0
		t.Fatalf("statements after splice = %d", got)
	}
	hits := st.VerifyCacheHits
	if _, err := hub.Propose("tenant-a", splitPol); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.VerifyCacheHits <= hits {
		t.Fatalf("repeat proposal missed the verify cache: %+v", st)
	}
	sameCompiled(t, "hub-proposal", c.Result(), hub.Policy(), tp, nil, Options{NoDefault: true})
}
