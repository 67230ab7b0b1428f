package sim

import (
	"math"
	"math/rand"
	"testing"

	"merlin/internal/topo"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTwoFlowsShareFairly(t *testing.T) {
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	f1, _ := net.AddFlow("a", h1, h2, topo.Gbps, 0, 0)
	f2, _ := net.AddFlow("b", h1, h2, topo.Gbps, 0, 0)
	net.Allocate()
	if !approx(f1.Rate, 5e8, 1e6) || !approx(f2.Rate, 5e8, 1e6) {
		t.Fatalf("rates = %v %v, want even split", f1.Rate, f2.Rate)
	}
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}
}

func TestGuaranteeHonored(t *testing.T) {
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	gold, _ := net.AddFlow("gold", h1, h2, topo.Gbps, 7e8, 0)
	best, _ := net.AddFlow("best", h1, h2, topo.Gbps, 0, 0)
	net.Allocate()
	// gold: 700M guaranteed + half of the residual 300M? No — residual is
	// shared max-min: both unfrozen, gold already at 700M... progressive
	// filling adds equally until the link saturates: +150M each.
	if gold.Rate < 7e8-1e3 {
		t.Fatalf("guarantee violated: %v", gold.Rate)
	}
	if best.Rate <= 0 {
		t.Fatal("best-effort starved entirely despite spare capacity")
	}
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}
	total := gold.Rate + best.Rate
	if !approx(total, 1e9, 1e6) {
		t.Fatalf("link underutilized: %v", total)
	}
}

func TestGuaranteeIdleDoesNotWaste(t *testing.T) {
	// A guarantee for an idle flow must not strand bandwidth (Fig. 5's
	// utilization claim).
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	idle, _ := net.AddFlow("idle", h1, h2, 0, 7e8, 0)
	busy, _ := net.AddFlow("busy", h1, h2, topo.Gbps, 0, 0)
	net.Allocate()
	if idle.Rate != 0 {
		t.Fatalf("idle flow allocated %v", idle.Rate)
	}
	if !approx(busy.Rate, 1e9, 1e6) {
		t.Fatalf("busy flow got %v, want full line rate", busy.Rate)
	}
}

func TestCapRespected(t *testing.T) {
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	capped, _ := net.AddFlow("capped", h1, h2, topo.Gbps, 0, 2e8)
	free, _ := net.AddFlow("free", h1, h2, topo.Gbps, 0, 0)
	net.Allocate()
	if capped.Rate > 2e8+1e3 {
		t.Fatalf("cap violated: %v", capped.Rate)
	}
	if !approx(free.Rate, 8e8, 1e6) {
		t.Fatalf("free flow got %v, want the rest", free.Rate)
	}
}

func TestDemandLimited(t *testing.T) {
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	small, _ := net.AddFlow("small", h1, h2, 1e8, 0, 0)
	big, _ := net.AddFlow("big", h1, h2, topo.Gbps, 0, 0)
	net.Allocate()
	if !approx(small.Rate, 1e8, 1e3) {
		t.Fatalf("small = %v, want its demand", small.Rate)
	}
	if !approx(big.Rate, 9e8, 1e6) {
		t.Fatalf("big = %v, want the remainder", big.Rate)
	}
}

func TestMultiBottleneckMaxMin(t *testing.T) {
	// Classic 3-flow example: flows A (l1+l2), B (l1), C (l2) with unit
	// capacities → A=1/2? Progressive filling: all grow to 0.5 (l1 and l2
	// saturate simultaneously with shares 0.5); B and C freeze with A.
	tp := topo.Linear(3, topo.Gbps) // s0-s1-s2 with h1@s0, h2@s2
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	s0, s1, s2 := tp.MustLookup("s0"), tp.MustLookup("s1"), tp.MustLookup("s2")
	net := New(tp)
	a, _ := net.AddFlowOnPath("A", []topo.NodeID{h1, s0, s1, s2, h2}, topo.Gbps, 0, 0)
	b, _ := net.AddFlowOnPath("B", []topo.NodeID{s0, s1}, topo.Gbps, 0, 0)
	c, _ := net.AddFlowOnPath("C", []topo.NodeID{s1, s2}, topo.Gbps, 0, 0)
	net.Allocate()
	for _, f := range []*Flow{a, b, c} {
		if !approx(f.Rate, 5e8, 1e6) {
			t.Fatalf("%s = %v, want 0.5G", f.ID, f.Rate)
		}
	}
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}
}

func TestUnevenBottlenecks(t *testing.T) {
	// B limited to a 100M side link; A shares the main link and should
	// get the slack: A=900M... A and B share l_main(1G); B also crosses
	// l_slow(100M). Max-min: B bottlenecked at 100M, A gets 900M.
	tp := topo.New()
	x := tp.AddSwitch("x")
	y := tp.AddSwitch("y")
	z := tp.AddSwitch("z")
	tp.AddLink(x, y, topo.Gbps)
	tp.AddLink(y, z, 100*topo.Mbps)
	net := New(tp)
	a, _ := net.AddFlowOnPath("A", []topo.NodeID{x, y}, topo.Gbps, 0, 0)
	b, _ := net.AddFlowOnPath("B", []topo.NodeID{x, y, z}, topo.Gbps, 0, 0)
	net.Allocate()
	if !approx(b.Rate, 1e8, 1e5) {
		t.Fatalf("B = %v, want 100M", b.Rate)
	}
	if !approx(a.Rate, 9e8, 1e6) {
		t.Fatalf("A = %v, want 900M", a.Rate)
	}
}

func TestStepAccumulates(t *testing.T) {
	tp := topo.Linear(1, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	net := New(tp)
	f, _ := net.AddFlow("f", h1, h2, 5e8, 0, 0)
	for i := 0; i < 10; i++ {
		net.Step(0.1)
	}
	if !approx(f.BitsSent, 5e8, 1e3) {
		t.Fatalf("sent = %v bits, want 5e8", f.BitsSent)
	}
	if !approx(net.Time, 1.0, 1e-9) {
		t.Fatalf("time = %v", net.Time)
	}
}

// Property: random flow sets never violate capacity, guarantees are met
// when admissible, and caps/demands are never exceeded.
func TestAllocateInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tp := topo.FatTree(4, topo.Gbps)
	hosts := tp.Hosts()
	for trial := 0; trial < 50; trial++ {
		net := New(tp)
		nflows := 1 + r.Intn(20)
		for i := 0; i < nflows; i++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			demand := r.Float64() * topo.Gbps
			min := 0.0
			if r.Intn(3) == 0 {
				min = r.Float64() * 1e8 // modest guarantees, admissible
			}
			max := 0.0
			if r.Intn(3) == 0 {
				max = min + r.Float64()*5e8
			}
			if _, err := net.AddFlow("f", src, dst, demand, min, max); err != nil {
				t.Fatal(err)
			}
		}
		net.Allocate()
		if err := net.CheckCapacities(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, f := range net.Flows {
			limit := math.Min(f.Demand, f.MaxRate)
			if f.Rate > limit+1e-3 {
				t.Fatalf("trial %d: flow exceeds demand/cap: %v > %v", trial, f.Rate, limit)
			}
		}
	}
}

func TestHadoopExperimentShape(t *testing.T) {
	base, err := RunHadoop(HadoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	interf, err := RunHadoop(HadoopConfig{Background: true})
	if err != nil {
		t.Fatal(err)
	}
	guar, err := RunHadoop(HadoopConfig{Background: true, GuaranteeFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: baseline < guarantee < interference, with roughly a
	// 20% interference slowdown.
	if !(base.CompletionSeconds < guar.CompletionSeconds &&
		guar.CompletionSeconds < interf.CompletionSeconds) {
		t.Fatalf("ordering wrong: base=%.0f guar=%.0f interf=%.0f",
			base.CompletionSeconds, guar.CompletionSeconds, interf.CompletionSeconds)
	}
	slowdown := interf.CompletionSeconds / base.CompletionSeconds
	if slowdown < 1.1 || slowdown > 1.4 {
		t.Fatalf("interference slowdown = %.2f, want ~1.2", slowdown)
	}
	if base.CompletionSeconds < 400 || base.CompletionSeconds > 550 {
		t.Fatalf("baseline = %.0f s, want ~466", base.CompletionSeconds)
	}
}

func TestRingPaxosShape(t *testing.T) {
	noMerlin, err := RunRingPaxos(RingPaxosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	withMerlin, err := RunRingPaxos(RingPaxosConfig{GuaranteeBps: 6e8})
	if err != nil {
		t.Fatal(err)
	}
	last := func(rows []RingPaxosRow) RingPaxosRow { return rows[len(rows)-1] }
	// Without Merlin: saturated services share evenly.
	nm := last(noMerlin)
	if !approx(nm.Ring1, nm.Ring2, 1e6) {
		t.Fatalf("without Merlin rings should split evenly: %v vs %v", nm.Ring1, nm.Ring2)
	}
	// With Merlin: ring 2 holds its guarantee under saturation.
	wm := last(withMerlin)
	if wm.Ring2 < 6e8-1e3 {
		t.Fatalf("guarantee not held: ring2 = %v", wm.Ring2)
	}
	if wm.Ring1 >= wm.Ring2 {
		t.Fatalf("ring1 should be squeezed: %v vs %v", wm.Ring1, wm.Ring2)
	}
	// Aggregate utilization is preserved.
	if !approx(wm.Aggregate, nm.Aggregate, 1e6) {
		t.Fatalf("aggregate changed: %v vs %v", wm.Aggregate, nm.Aggregate)
	}
	// Idle guarantee does not strand bandwidth.
	r1, err := ringPaxosIdlePoint(RingPaxosConfig{GuaranteeBps: 6e8}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if r1 < 6e8-1e6 {
		t.Fatalf("ring1 with idle ring2 = %v, want full use", r1)
	}
	// Throughput grows with clients before saturation.
	if noMerlin[1].Aggregate <= noMerlin[0].Aggregate {
		t.Fatal("throughput should grow with clients")
	}
}

// ringPaxosIdlePoint measures service 1's throughput when service 2 is
// idle — the paper's "guarantees do not waste idle bandwidth" claim.
func ringPaxosIdlePoint(cfg RingPaxosConfig, clients int) (float64, error) {
	cfg.defaults()
	demand := float64(clients) / 2 * cfg.PerClientBps
	r1, _, err := ringPaxosPoint(cfg, demand, 0)
	return r1, err
}

func TestSeriesHelpers(t *testing.T) {
	var s Series
	s.Record(0, 10)
	s.Record(1, 20)
	if s.Mean() != 15 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func BenchmarkAllocateFatTree(b *testing.B) {
	tp := topo.FatTree(4, topo.Gbps)
	hosts := tp.Hosts()
	net := New(tp)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src == dst {
			continue
		}
		net.AddFlow("f", src, dst, topo.Gbps, 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Allocate()
	}
}

// TestLinkFailureScenario is the flow-level failure story: a flow's link
// fails mid-simulation, its traffic blackholes (rate 0), a reroute around
// the failure restores service, and recovery brings the original path
// back.
func TestLinkFailureScenario(t *testing.T) {
	// 4-switch ring with hosts on opposite corners: two disjoint routes.
	tp := topo.Ring(4, 1, topo.Gbps)
	h0, h2 := tp.MustLookup("h0_0"), tp.MustLookup("h2_0")
	net := New(tp)
	orig := tp.ShortestPath(h0, h2)
	f, err := net.AddFlowOnPath("f", orig, 400e6, 100e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	net.Step(1)
	if f.Rate < 390e6 {
		t.Fatalf("pre-failure rate %v, want ~400Mbps", f.Rate)
	}

	// Fail the first switch-switch link on the path.
	if _, err := tp.SetLinkState(orig[1], orig[2], false); err != nil {
		t.Fatal(err)
	}
	net.Step(1)
	if f.Rate != 0 {
		t.Fatalf("flow across failed link allocated %v, want 0", f.Rate)
	}
	failed := net.FailedFlows()
	if len(failed) != 1 || failed[0] != f {
		t.Fatalf("FailedFlows = %v", failed)
	}
	if err := net.CheckCapacities(); err != nil {
		t.Fatal(err)
	}

	// Reroute around the ring; service resumes.
	alt := tp.ShortestPath(h0, h2)
	if alt == nil {
		t.Fatal("no alternate path in a ring")
	}
	if err := net.Reroute(f, alt); err != nil {
		t.Fatal(err)
	}
	net.Step(1)
	if f.Rate < 390e6 {
		t.Fatalf("post-reroute rate %v, want ~400Mbps", f.Rate)
	}
	if len(net.FailedFlows()) != 0 {
		t.Fatalf("rerouted flow still reported failed")
	}

	// A reroute through the still-down link is rejected.
	if err := net.Reroute(f, orig); err == nil {
		t.Fatal("reroute across a failed link must error")
	}

	// Recovery restores the original path's usability.
	if _, err := tp.SetLinkState(orig[1], orig[2], true); err != nil {
		t.Fatal(err)
	}
	if err := net.Reroute(f, orig); err != nil {
		t.Fatalf("reroute after recovery: %v", err)
	}
	net.Step(1)
	if f.Rate < 390e6 {
		t.Fatalf("post-recovery rate %v", f.Rate)
	}
}
