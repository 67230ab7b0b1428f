package provision

import (
	"strconv"
	"strings"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/regex"
	"merlin/internal/topo"
)

// arcExpr builds the restricted path expression confining a request to
// the given node names: (n1|n2|...)*.
func arcExpr(names []string) regex.Expr {
	syms := make([]regex.Expr, len(names))
	for i, n := range names {
		syms[i] = regex.Sym{Name: n}
	}
	return regex.Star{X: regex.AltAll(syms...)}
}

// anchoredReq builds a Request whose product graph is confined to the
// named nodes (which must include src and dst).
func anchoredReq(t *testing.T, tp *topo.Topology, alpha *regex.Alphabet, id string, names []string, src, dst string, rate float64) Request {
	t.Helper()
	g, err := logical.BuildAnchored(tp, arcExpr(names), alpha, src, dst)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return Request{ID: id, Graph: g, MinRate: rate}
}

// ringTenants builds an n-switch ring with one host per switch and two
// link-disjoint tenants confined to opposite arcs: tenant A on switches
// [0, n/2), tenant B on [n/2, n). Requests route host-to-host inside
// their own arc.
func ringTenants(t *testing.T, n int) (*topo.Topology, []Request) {
	t.Helper()
	tp := topo.Ring(n, 1, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	arc := func(lo, hi int) []string {
		var names []string
		for i := lo; i < hi; i++ {
			names = append(names, switchName(i), hostName(i))
		}
		return names
	}
	half := n / 2
	reqs := []Request{
		anchoredReq(t, tp, alpha, "a0", arc(0, half), hostName(0), hostName(half-1), 20*topo.MBps),
		anchoredReq(t, tp, alpha, "a1", arc(0, half), hostName(1), hostName(half-2), 10*topo.MBps),
		anchoredReq(t, tp, alpha, "b0", arc(half, n), hostName(half), hostName(n-1), 30*topo.MBps),
		anchoredReq(t, tp, alpha, "b1", arc(half, n), hostName(half+1), hostName(n-2), 10*topo.MBps),
	}
	return tp, reqs
}

func switchName(i int) string { return "s" + strconv.Itoa(i) }
func hostName(i int) string   { return "h" + strconv.Itoa(i) + "_0" }

func TestPartitionDisjointTenants(t *testing.T) {
	tp, reqs := ringTenants(t, 8)
	comps := Partition(tp, reqs)
	if len(comps) != 2 {
		t.Fatalf("Partition = %v, want 2 link-disjoint shards", comps)
	}
	if comps[0][0] != 0 || comps[0][1] != 1 || comps[1][0] != 2 || comps[1][1] != 3 {
		t.Fatalf("Partition membership = %v, want [[0 1] [2 3]]", comps)
	}
}

func TestPartitionZeroRateSingleton(t *testing.T) {
	tp, reqs := ringTenants(t, 8)
	// A zero-rate request spanning the whole ring still shards alone: it
	// reserves nothing, so it couples with nobody.
	alpha := logical.Alphabet(tp)
	g, err := logical.BuildAnchored(tp, regex.Star{X: regex.Any{}}, alpha, hostName(0), hostName(4))
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, Request{ID: "z", Graph: g, MinRate: 0})
	comps := Partition(tp, reqs)
	if len(comps) != 3 {
		t.Fatalf("Partition = %v, want 3 shards (zero-rate request alone)", comps)
	}
	if len(comps[2]) != 1 || comps[2][0] != 4 {
		t.Fatalf("zero-rate request not in its own shard: %v", comps)
	}
}

func TestPartitionCoupledFallsBackToOneShard(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	g1, err := logical.BuildAnchored(tp, regex.Star{X: regex.Any{}}, alpha, "h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	// Both cheapest paths take the 100 MB/s narrow side, which 60+60 MB/s
	// overflows: the relaxed routes fail verification, so the shard
	// reaches the general MIP (one request detours the wide side).
	reqs := []Request{
		{ID: "a", Graph: g1, MinRate: 60 * topo.MBps},
		{ID: "b", Graph: g1, MinRate: 60 * topo.MBps},
	}
	if comps := Partition(tp, reqs); len(comps) != 1 {
		t.Fatalf("coupled requests split into %d shards", len(comps))
	}
	// The fully-coupled solve is the monolithic path: one shard solution.
	res, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 1 || res.ShardsSolved != 1 {
		t.Fatalf("monolithic fallback: shards=%d solved=%d", len(res.Shards), res.ShardsSolved)
	}
	if res.Shards[0].Basis == nil {
		t.Fatal("monolithic fallback kept no basis")
	}
}

func TestShardedMatchesMonolithicOnDisjointRing(t *testing.T) {
	tp, reqs := ringTenants(t, 8)
	sharded, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Solve(tp, reqs, WeightedShortestPath, Params{NoShard: true})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.ShardsSolved != 2 || len(sharded.Shards) != 2 {
		t.Fatalf("expected 2 solved shards, got %+v", sharded.ShardsSolved)
	}
	if mono.ShardsSolved != 1 || len(mono.Shards) != 1 {
		t.Fatalf("NoShard did not solve monolithically: %+v", mono.ShardsSolved)
	}
	// Each tenant's demand fits its arc, so under WSP both shards are pure
	// flow problems; a min-max objective couples rated requests through
	// their shared maximum and must keep the general path.
	if sharded.NetflowShards != 2 {
		t.Fatalf("shortest-path fast path fired on %d/2 WSP shards", sharded.NetflowShards)
	}
	minmax, err := Solve(tp, reqs, MinMaxRatio, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if minmax.NetflowShards != 0 {
		t.Fatalf("shortest-path fast path fired on %d min-max shards", minmax.NetflowShards)
	}
	// Arc-confined routes are unique, so the solutions agree exactly.
	for id := range mono.Paths {
		if got, want := pathNames(tp, sharded.Paths[id]), pathNames(tp, mono.Paths[id]); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: sharded path %v != monolithic %v", id, got, want)
		}
	}
	for l, want := range mono.Reserved {
		if got := sharded.Reserved[l]; got != want {
			t.Errorf("link %d: sharded reserves %v, monolithic %v", l, got, want)
		}
	}
	if len(sharded.Reserved) != len(mono.Reserved) {
		t.Errorf("reserved link sets differ: %d vs %d", len(sharded.Reserved), len(mono.Reserved))
	}
	if sharded.RMax != mono.RMax || sharded.RMaxBits != mono.RMaxBits {
		t.Errorf("rmax %v/%v vs %v/%v", sharded.RMax, sharded.RMaxBits, mono.RMax, mono.RMaxBits)
	}
	if err := sharded.Validate(tp); err != nil {
		t.Fatal(err)
	}
}

func TestShardReuseAndWarmStart(t *testing.T) {
	tp, reqs := ringTenants(t, 8)
	first, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged requests: every shard is served from the reuse set.
	again, err := Solve(tp, reqs, WeightedShortestPath, Params{Reuse: first.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if again.ShardsReused != 2 || again.ShardsSolved != 0 || again.ShardsWarm != 0 {
		t.Fatalf("full reuse: solved=%d warm=%d reused=%d",
			again.ShardsSolved, again.ShardsWarm, again.ShardsReused)
	}

	// Rate change in tenant B only: its shard warm-starts from the cached
	// basis, tenant A's solution is reused outright.
	changed := append([]Request(nil), reqs...)
	changed[2].MinRate = 40 * topo.MBps
	delta, err := Solve(tp, changed, WeightedShortestPath, Params{Reuse: first.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if delta.ShardsReused != 1 || delta.ShardsWarm != 1 || delta.ShardsSolved != 0 {
		t.Fatalf("rate delta: solved=%d warm=%d reused=%d",
			delta.ShardsSolved, delta.ShardsWarm, delta.ShardsReused)
	}
	// The touched shard's reservation reflects the new rate.
	fresh, err := Solve(tp, changed, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if delta.RMax != fresh.RMax {
		t.Fatalf("warm re-solve rmax %v != fresh %v", delta.RMax, fresh.RMax)
	}

	// Membership change (a request removed): its shard re-solves cold,
	// the untouched tenant is still reused.
	shrunk := []Request{reqs[0], reqs[2], reqs[3]}
	rem, err := Solve(tp, shrunk, WeightedShortestPath, Params{Reuse: first.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if rem.ShardsReused != 1 || rem.ShardsSolved != 1 {
		t.Fatalf("membership delta: solved=%d warm=%d reused=%d",
			rem.ShardsSolved, rem.ShardsWarm, rem.ShardsReused)
	}
}

func TestDirtyCableBlocksShardReuse(t *testing.T) {
	tp, reqs := ringTenants(t, 8)
	first, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}

	// Halve the capacity of a cable inside tenant B's arc (s5-s6). Tenant
	// A's shard is not incident to it and reuses; tenant B's must re-solve
	// warm-started even though its requests are unchanged.
	s5 := tp.MustLookup(switchName(5))
	s6 := tp.MustLookup(switchName(6))
	im, err := tp.SetCableCapacity(s5, s6, 50*topo.MBps)
	if err != nil {
		t.Fatal(err)
	}
	dirty := map[topo.LinkID]bool{}
	for _, c := range im.Cables {
		dirty[c] = true
	}
	res, err := Solve(tp, reqs, WeightedShortestPath, Params{Reuse: first.Shards, Dirty: dirty})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsReused != 1 || res.ShardsWarm != 1 || res.ShardsSolved != 0 {
		t.Fatalf("dirty cable: solved=%d warm=%d reused=%d, want 0/1/1",
			res.ShardsSolved, res.ShardsWarm, res.ShardsReused)
	}
	// The re-solved shard sees the new capacity: RMax is computed against
	// the halved cable, matching a fresh solve.
	fresh, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMax != fresh.RMax {
		t.Fatalf("dirty re-solve rmax %v != fresh %v", res.RMax, fresh.RMax)
	}
	// Without the dirty set the stale solution would be served outright —
	// the guard the incremental compiler relies on.
	stale, err := Solve(tp, reqs, WeightedShortestPath, Params{Reuse: first.Shards})
	if err != nil {
		t.Fatal(err)
	}
	if stale.ShardsReused != 2 {
		t.Fatalf("control: expected full (stale) reuse without Dirty, got %+v", stale.ShardsReused)
	}
}

func TestSolveNoRequests(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	res, err := Solve(tp, nil, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 0 || len(res.Reserved) != 0 || res.RMax != 0 {
		t.Fatalf("empty solve produced %+v", res)
	}
}

func TestShardedInfeasibleShardReported(t *testing.T) {
	// Tenant B's arc cannot hold two 80 MB/s guarantees on 100 MB/s links
	// when they share a link; the sharded solve must surface the
	// infeasibility (and the monolithic one must agree).
	tp := topo.Ring(8, 1, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	arc := func(lo, hi int) []string {
		var names []string
		for i := lo; i < hi; i++ {
			names = append(names, switchName(i), hostName(i))
		}
		return names
	}
	reqs := []Request{
		anchoredReq(t, tp, alpha, "a0", arc(0, 4), hostName(0), hostName(3), 20*topo.MBps),
		anchoredReq(t, tp, alpha, "b0", arc(4, 8), hostName(4), hostName(7), 80*topo.MBps),
		anchoredReq(t, tp, alpha, "b1", arc(4, 8), hostName(4), hostName(7), 80*topo.MBps),
	}
	_, errSharded := Solve(tp, reqs, WeightedShortestPath, Params{})
	_, errMono := Solve(tp, reqs, WeightedShortestPath, Params{NoShard: true})
	if errSharded == nil || errMono == nil {
		t.Fatalf("sharded err = %v, monolithic err = %v; want both infeasible", errSharded, errMono)
	}
	if !strings.Contains(errSharded.Error(), "shard") {
		t.Errorf("sharded infeasibility does not name the shard: %v", errSharded)
	}
}
