package provision

import (
	"testing"

	"merlin/internal/logical"
	"merlin/internal/regex"
	"merlin/internal/topo"
)

// req builds a Request for expr over t with the given guarantee.
func req(t *testing.T, tp *topo.Topology, id, expr string, placement map[string][]string, rate float64) Request {
	t.Helper()
	e := regex.MustParse(expr)
	if placement != nil {
		e = regex.Substitute(e, placement)
	}
	g, err := logical.BuildMinimized(tp, e, logical.Alphabet(tp))
	if err != nil {
		t.Fatal(err)
	}
	return Request{ID: id, Graph: g, MinRate: rate}
}

func pathNames(tp *topo.Topology, steps []logical.Step) []string {
	locs := logical.Locations(steps)
	names := make([]string, len(locs))
	for i, l := range locs {
		names[i] = tp.Node(l).Name
	}
	return names
}

func hops(tp *topo.Topology, steps []logical.Step) int {
	return len(logical.Locations(steps)) - 1
}

// Figure 3: two statements, each guaranteeing 50 MB/s between h1 and h2 on
// the two-path topology (3-hop wide 400 MB/s path vs 2-hop narrow 100 MB/s
// path). The three heuristics must pick the paper's three outcomes.
func fig3Requests(t *testing.T, tp *topo.Topology) []Request {
	return []Request{
		req(t, tp, "a", "h1 .* h2", nil, 50*topo.MBps),
		req(t, tp, "b", "h1 .* h2", nil, 50*topo.MBps),
	}
}

func TestFig3WeightedShortestPath(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	res, err := Solve(tp, fig3Requests(t, tp), WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Both statements take the two-hop narrow path.
	for id, steps := range res.Paths {
		if got := hops(tp, steps); got != 2 {
			t.Errorf("%s: hops = %d (%v), want 2", id, got, pathNames(tp, steps))
		}
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
	// Narrow links carry 100 of 100 MB/s → rmax = 1.0.
	if res.RMax < 0.99 {
		t.Errorf("rmax = %v, want ~1.0", res.RMax)
	}
}

func TestFig3MinMaxRatio(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	res, err := Solve(tp, fig3Requests(t, tp), MinMaxRatio, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: no more than 25% of capacity reserved on any link — both
	// statements on the wide path (100/400 = 0.25) beats splitting
	// (50/100 = 0.5 on the narrow side).
	if res.RMax > 0.25+1e-6 {
		t.Errorf("rmax = %v, want 0.25", res.RMax)
	}
	for id, steps := range res.Paths {
		if got := hops(tp, steps); got != 3 {
			t.Errorf("%s: hops = %d (%v), want 3 (wide path)", id, got, pathNames(tp, steps))
		}
	}
}

func TestFig3MinMaxReserved(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	res, err := Solve(tp, fig3Requests(t, tp), MinMaxReserved, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: no more than 50MB/s reserved on any link — one statement per
	// path.
	if res.RMaxBits > 50*topo.MBps+1e-3 {
		t.Errorf("Rmax = %v bits, want <= 50MB/s", res.RMaxBits)
	}
	lens := map[int]int{}
	for _, steps := range res.Paths {
		lens[hops(tp, steps)]++
	}
	if lens[2] != 1 || lens[3] != 1 {
		t.Errorf("expected one 2-hop and one 3-hop path, got %v", lens)
	}
}

func TestCapacityForcesSplit(t *testing.T) {
	// Two 80 MB/s guarantees cannot share the 100 MB/s narrow path: any
	// heuristic must split or use the wide path.
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "a", "h1 .* h2", nil, 80*topo.MBps),
		req(t, tp, "b", "h1 .* h2", nil, 80*topo.MBps),
	}
	res, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
	// The narrow path may carry at most one of them.
	narrow := 0
	for _, steps := range res.Paths {
		if hops(tp, steps) == 2 {
			narrow++
		}
	}
	if narrow > 1 {
		t.Fatalf("both 80MB/s guarantees on the 100MB/s path")
	}
}

func TestInfeasibleGuarantees(t *testing.T) {
	// Three 60 MB/s guarantees need 180 MB/s; narrow holds 100, wide 400,
	// but all three fit on the wide path — so make them bigger: three
	// 250 MB/s guarantees cannot fit anywhere (wide 400 holds one).
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "a", "h1 .* h2", nil, 250*topo.MBps),
		req(t, tp, "b", "h1 .* h2", nil, 250*topo.MBps),
		req(t, tp, "c", "h1 .* h2", nil, 250*topo.MBps),
	}
	if _, err := Solve(tp, reqs, WeightedShortestPath, Params{}); err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestWaypointPlacement(t *testing.T) {
	// Figure 2 end-to-end: the guaranteed statement must route through m1
	// for nat and report placements.
	tp := topo.Example(topo.Gbps)
	placement := map[string][]string{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	reqs := []Request{req(t, tp, "z", "h1 .* dpi .* nat .* h2", placement, 10*topo.MBps)}
	res, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	fns := map[string]string{}
	for _, s := range res.Paths["z"] {
		if s.Tag != "" {
			fns[s.Tag] = tp.Node(s.Loc).Name
		}
	}
	if fns["nat"] != "m1" {
		t.Errorf("nat placed at %q, want m1", fns["nat"])
	}
	if fns["dpi"] == "" {
		t.Error("dpi not placed")
	}
}

func TestZeroRateRequestStillRouted(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	reqs := []Request{req(t, tp, "a", "h1 .* h2", nil, 0)}
	res, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths["a"]) == 0 {
		t.Fatal("no path for zero-rate request")
	}
	if len(res.Reserved) != 0 {
		t.Fatal("zero-rate request reserved bandwidth")
	}
}

func TestGreedyMatchesOnEasyInstance(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	reqs := fig3Requests(t, tp)
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "a", "h1 .* h2", nil, 80*topo.MBps),
		req(t, tp, "b", "h1 .* h2", nil, 80*topo.MBps),
		req(t, tp, "c", "h1 .* h2", nil, 80*topo.MBps),
	}
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDetoursAroundFullLinks(t *testing.T) {
	// A diamond whose s1-s2 shortcut (100 MB/s) can hold only one 60 MB/s
	// guarantee; greedy must route the second via the s3 detour.
	tp := topo.New()
	h1 := tp.AddHost("h1")
	h2 := tp.AddHost("h2")
	h3 := tp.AddHost("h3")
	s1 := tp.AddSwitch("s1")
	s2 := tp.AddSwitch("s2")
	s3 := tp.AddSwitch("s3")
	tp.AddLink(h1, s1, topo.Gbps)
	tp.AddLink(s1, s2, 100*topo.MBps) // scarce shortcut
	tp.AddLink(s1, s3, topo.Gbps)
	tp.AddLink(s3, s2, topo.Gbps) // detour
	tp.AddLink(s2, h2, topo.Gbps)
	tp.AddLink(s2, h3, topo.Gbps)
	reqs := []Request{
		req(t, tp, "a", "h1 .* h2", nil, 60*topo.MBps),
		req(t, tp, "b", "h1 .* h3", nil, 60*topo.MBps),
	}
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
	// One of the two must have detoured through s3 (4 switch-path hops
	// instead of 3).
	detours := 0
	for _, steps := range res.Paths {
		if hops(tp, steps) == 4 {
			detours++
		}
	}
	if detours != 1 {
		t.Fatalf("detours = %d, want exactly 1", detours)
	}
	// The MIP agrees the instance is feasible.
	mipRes, err := Solve(tp, reqs, WeightedShortestPath, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mipRes.Validate(tp); err != nil {
		t.Fatal(err)
	}
}

func TestTimingFieldsPopulated(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	reqs := []Request{req(t, tp, "a", "h1 .* h2", nil, 10*topo.MBps)}
	res, err := Solve(tp, reqs, MinMaxRatio, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstructTime <= 0 || res.SolveTime <= 0 {
		t.Fatalf("timings not recorded: %v %v", res.ConstructTime, res.SolveTime)
	}
}

func TestMultiRequestFatTree(t *testing.T) {
	// Several guarantees across a k=4 fat tree must all be placed and
	// validated.
	tp := topo.FatTree(4, topo.Gbps)
	pairs := [][2]string{
		{"h0_0_0", "h1_0_0"},
		{"h0_0_1", "h2_0_0"},
		{"h1_1_0", "h3_0_1"},
		{"h2_1_1", "h0_1_0"},
	}
	var reqs []Request
	for i, p := range pairs {
		reqs = append(reqs, req(t, tp, p[0]+"-"+p[1], p[0]+" .* "+p[1], nil, float64(50+10*i)*topo.MBps))
	}
	res, err := Solve(tp, reqs, MinMaxRatio, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != len(reqs) {
		t.Fatalf("paths = %d, want %d", len(res.Paths), len(reqs))
	}
	for id, steps := range res.Paths {
		names := pathNames(tp, steps)
		if len(names) < 2 {
			t.Errorf("%s: degenerate path %v", id, names)
		}
	}
}

func BenchmarkSolveTwoPath(b *testing.B) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	e := regex.MustParse("h1 .* h2")
	alpha := logical.Alphabet(tp)
	nfa, _ := regex.Compile(e, alpha)
	g := logical.Build(tp, nfa.EpsFree())
	reqs := []Request{
		{ID: "a", Graph: g, MinRate: 50 * topo.MBps},
		{ID: "b", Graph: g, MinRate: 50 * topo.MBps},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(tp, reqs, MinMaxRatio, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
