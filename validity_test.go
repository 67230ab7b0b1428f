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

// TestOffGuaranteeCapacityChangePatchesCodegen: the provisioning solution
// records the capacity of every cable its requests can ride, so a
// capacity change on a cable no guarantee can ride keeps the solution and
// the pass patches caps instead of lowering again: an empty diff, equal
// to a cold compile on the re-dimensioned ring. The greedy allocator's
// result records the same.
func TestOffGuaranteeCapacityChangePatchesCodegen(t *testing.T) {
	for _, opts := range []Options{{NoDefault: true}, {NoDefault: true, Greedy: true}} {
		tp := Ring(5, 1, Gbps)
		pol := ringPolicy(t, tp, "h1_0 s1 s0 h0_0", "min(x, 100Mbps)")
		c := NewCompiler(tp, nil, opts)
		if _, err := c.Compile(pol); err != nil {
			t.Fatal(err)
		}
		base := c.Stats()

		diff, err := c.ApplyTopo(CapacityChange("s2", "s3", 500*Mbps))
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.PatchedCodegens != base.PatchedCodegens+1 || st.FullCodegens != base.FullCodegens {
			t.Fatalf("greedy=%v: off-guarantee capacity change ran %d full / %d patched codegens, want 0/1",
				opts.Greedy, st.FullCodegens-base.FullCodegens, st.PatchedCodegens-base.PatchedCodegens)
		}
		if st.SolvesReused != base.SolvesReused+1 || st.Solves != base.Solves {
			t.Fatalf("greedy=%v: the solution was not reused: %+v -> %+v", opts.Greedy, base, st)
		}
		for name, bd := range diff.Backends {
			if !bd.Empty() {
				t.Fatalf("greedy=%v: %s diff %+v, want empty", opts.Greedy, name, bd)
			}
		}
		capTopo := Ring(5, 1, Gbps)
		if _, err := capTopo.SetCableCapacity(capTopo.MustLookup("s2"), capTopo.MustLookup("s3"), 500*Mbps); err != nil {
			t.Fatal(err)
		}
		sameCompiled(t, "off-guarantee-capacity", c.Result(), pol, capTopo, nil, opts)
	}
}

// TestRiddenCapacityChangeKeepingPathsPatchesCodegen: a capacity change on
// a cable the guarantee rides re-solves, but lowering reads only the
// requests and their paths, so a re-solve that keeps the path patches
// caps; one that moves it lowers again. Both equal a cold compile.
func TestRiddenCapacityChangeKeepingPathsPatchesCodegen(t *testing.T) {
	for _, opts := range []Options{{NoDefault: true}, {NoDefault: true, Greedy: true}} {
		tp := Ring(5, 1, Gbps)
		pol := ringPolicy(t, tp, ".*", "min(x, 100Mbps)")
		c := NewCompiler(tp, nil, opts)
		first, err := c.Compile(pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			capacity float64
			moves    bool
		}{{500 * Mbps, false}, {50 * Mbps, true}} {
			base := c.Stats()
			diff, err := c.ApplyTopo(CapacityChange("s0", "s1", step.capacity))
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.SolvesReused != base.SolvesReused {
				t.Fatalf("greedy=%v cap=%g: a solution that read s0-s1 was reused", opts.Greedy, step.capacity)
			}
			got := [2]int{st.FullCodegens - base.FullCodegens, st.PatchedCodegens - base.PatchedCodegens}
			want := [2]int{0, 1}
			if step.moves {
				want = [2]int{1, 0}
			}
			if got != want {
				t.Fatalf("greedy=%v cap=%g: full/patched codegens %v, path moves: %v",
					opts.Greedy, step.capacity, got, step.moves)
			}
			if moved := !reflect.DeepEqual(c.Result().Paths["x"], first.Paths["x"]); moved != step.moves {
				t.Fatalf("greedy=%v cap=%g: path %v, moved %v, want %v",
					opts.Greedy, step.capacity, c.Result().Paths["x"], moved, step.moves)
			}
			if !step.moves && !diff.Empty() {
				t.Fatalf("greedy=%v cap=%g: diff %+v, want empty", opts.Greedy, step.capacity, diff)
			}
			capTopo := Ring(5, 1, Gbps)
			if _, err := capTopo.SetCableCapacity(capTopo.MustLookup("s0"), capTopo.MustLookup("s1"), step.capacity); err != nil {
				t.Fatal(err)
			}
			sameCompiled(t, "ridden-capacity", c.Result(), pol, capTopo, nil, opts)
		}
	}
}

// TestRateChangeKeepingPathsPatchesCodegen: a guaranteed rate sizes queues
// and nothing else, so a formula that moves a rate but no path re-reserves
// the queues over the last rules instead of lowering again. On Ring(5,1)
// with s1-s0 cut to 100 Mbps, x (h1_0 s1 s0 h0_0) and y (h2_0 s2 s1 s0
// h0_0) are guaranteed 10 Mbps each and share a queue on s1's and s0's
// out-ports. Moving x to 20 Mbps splits both (3 queues → 5) and patches;
// moving it to 95 Mbps overflows s1-s0, moves a path and lowers. Every
// target's output equals a cold compile, and the first result still
// equals its own cold compile (the patch wrote nothing it shares).
func TestRateChangeKeepingPathsPatchesCodegen(t *testing.T) {
	ring := func() *Topology {
		tp := Ring(5, 1, Gbps)
		if _, err := tp.SetCableCapacity(tp.MustLookup("s1"), tp.MustLookup("s0"), 100*Mbps); err != nil {
			t.Fatal(err)
		}
		return tp
	}
	policy := func(tp *Topology, xRate string) *Policy {
		ids := tp.Identities()
		mac := func(h string) string { id, _ := ids.Of(tp.MustLookup(h)); return id.MAC }
		pol, err := ParsePolicy(`[ x : (eth.src = `+mac("h1_0")+` and eth.dst = `+mac("h0_0")+`) -> .* ;
			y : (eth.src = `+mac("h2_0")+` and eth.dst = `+mac("h0_0")+`) -> .* ],
			min(x, `+xRate+`) and min(y, 10Mbps)`, tp)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	for _, opts := range []Options{
		{NoDefault: true, Targets: BackendNames()},
		{NoDefault: true, Targets: BackendNames(), Greedy: true},
	} {
		tp := ring()
		pol := policy(tp, "10Mbps")
		c := NewCompiler(tp, nil, opts)
		first, err := c.Compile(pol)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.IR.Queues) != 3 {
			t.Fatalf("greedy=%v: %d queues at equal rates, want 3 (x and y share two)", opts.Greedy, len(first.IR.Queues))
		}
		for _, step := range []struct {
			rate   string
			queues int
			moves  bool
		}{{"20Mbps", 5, false}, {"95Mbps", -1, true}} {
			base, prev := c.Stats(), c.Result()
			next := policy(tp, step.rate)
			if _, err := c.Update(Delta{Formula: next.Formula}); err != nil {
				t.Fatal(err)
			}
			st, res := c.Stats(), c.Result()
			got := [2]int{st.FullCodegens - base.FullCodegens, st.PatchedCodegens - base.PatchedCodegens}
			want := [2]int{0, 1}
			if step.moves {
				want = [2]int{1, 0}
			}
			if got != want {
				t.Fatalf("greedy=%v x=%s: full/patched codegens %v, want %v", opts.Greedy, step.rate, got, want)
			}
			if moved := !reflect.DeepEqual(res.Paths, prev.Paths); moved != step.moves {
				t.Fatalf("greedy=%v x=%s: paths %v, moved %v, want %v", opts.Greedy, step.rate, res.Paths, moved, step.moves)
			}
			if step.queues >= 0 && len(res.IR.Queues) != step.queues {
				t.Fatalf("greedy=%v x=%s: %d queues, want %d", opts.Greedy, step.rate, len(res.IR.Queues), step.queues)
			}
			cold := ring()
			sameCompiled(t, "rate "+step.rate, res, policy(cold, step.rate), cold, nil, opts)
		}
		cold := ring()
		sameCompiled(t, "first result", first, policy(cold, "10Mbps"), cold, nil, opts)
	}
}

// TestReplacedPlacementAnswersCapsOnlyPass: a budget re-placement becomes
// the last provisioning solution, so a caps-only pass reuses it — no
// solve, no second re-placement — and patches caps.
func TestReplacedPlacementAnswersCapsOnlyPass(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	text := "[ g : (" + twoPathHostPred(t, tp) + ") -> .* ], min(g, 50MB/s)"
	pol, err := ParsePolicy(text, tp)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := ParsePolicy(text+" and max(g, 80MB/s)", tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true, Targets: tcamTargets(), TableBudgets: map[string]int{"r1": 0}})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.OverflowReplacements != 1 {
		t.Fatalf("OverflowReplacements = %d, want 1", base.OverflowReplacements)
	}
	if _, err := c.Update(Delta{Formula: capped.Formula}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SolvesReused != base.SolvesReused+1 || st.Solves != base.Solves || st.OverflowReplacements != 1 {
		t.Fatalf("caps-only pass did not reuse the re-placed solution: %+v -> %+v", base, st)
	}
	if st.PatchedCodegens != base.PatchedCodegens+1 || st.FullCodegens != base.FullCodegens {
		t.Fatalf("caps-only pass ran %d full / %d patched codegens, want 0/1",
			st.FullCodegens-base.FullCodegens, st.PatchedCodegens-base.PatchedCodegens)
	}
	if got := c.Result().Paths["g"]; !reflect.DeepEqual(got, first.Paths["g"]) {
		t.Fatalf("path moved from %v to %v", first.Paths["g"], got)
	}
}
