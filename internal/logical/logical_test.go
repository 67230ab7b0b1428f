package logical

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"merlin/internal/regex"
	"merlin/internal/topo"
)

// buildGraph compiles a path expression against a topology with the given
// function placement map and returns the product graph.
func buildGraph(t *testing.T, tp *topo.Topology, expr string, placement map[string][]string) *Graph {
	t.Helper()
	e := regex.MustParse(expr)
	if placement != nil {
		e = regex.Substitute(e, placement)
	}
	alpha := Alphabet(tp)
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return Build(tp, nfa.EpsFree())
}

// hopCosts prices every physical edge at one hop and self, source and sink
// edges at nothing, so CheapestPath finds a minimum-hop path.
func hopCosts(g *Graph) []float64 {
	cost := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		if e.Link >= 0 {
			cost[i] = 1
		}
	}
	return cost
}

// Figure 2 of the paper: h1 - s1 - s2 - h2 with middlebox m1 on s1;
// dpi ∈ {h1, h2, m1}, nat ∈ {m1}.
func fig2(t *testing.T) (*topo.Topology, *Graph) {
	tp := topo.Example(topo.Gbps)
	g := buildGraph(t, tp, "h1 .* dpi .* nat .* h2", map[string][]string{
		"dpi": {"h1", "h2", "m1"},
		"nat": {"m1"},
	})
	return tp, g
}

func TestFig2PathExists(t *testing.T) {
	tp, g := fig2(t)
	ids := g.CheapestPath(hopCosts(g))
	if ids == nil {
		t.Fatal("no satisfying path found")
	}
	steps, err := g.DecodePath(ids)
	if err != nil {
		t.Fatal(err)
	}
	locs := Locations(steps)
	names := make([]string, len(locs))
	for i, l := range locs {
		names[i] = tp.Node(l).Name
	}
	// Must start at h1, end at h2, and pass m1 (the only nat location).
	if names[0] != "h1" || names[len(names)-1] != "h2" {
		t.Fatalf("endpoints wrong: %v", names)
	}
	foundM1 := false
	for _, n := range names {
		if n == "m1" {
			foundM1 = true
		}
	}
	if !foundM1 {
		t.Fatalf("path avoids m1: %v", names)
	}
	// Placements must include dpi and nat, with nat at m1.
	pls := PlacementsOf(steps)
	var natLoc, dpiLoc string
	for _, p := range pls {
		switch p.Fn {
		case "nat":
			natLoc = tp.Node(p.Loc).Name
		case "dpi":
			dpiLoc = tp.Node(p.Loc).Name
		}
	}
	if natLoc != "m1" {
		t.Errorf("nat placed at %q, want m1", natLoc)
	}
	if dpiLoc == "" {
		t.Error("dpi not placed")
	}
}

func TestFig2LemmaOne(t *testing.T) {
	// Lemma 1: a location sequence satisfies the regex iff it lifts to a
	// source-sink path. Verify both directions on small walks.
	tp, g := fig2(t)
	_ = tp
	// The direct path h1 s1 s2 h2 does NOT satisfy (no nat at m1 visit),
	// so BFS restricted to those locations must fail. We verify the
	// contrapositive by checking the decoded shortest path always matches
	// the NFA.
	ids := g.CheapestPath(hopCosts(g))
	steps, err := g.DecodePath(ids)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = g.Topo.Node(s.Loc).Name
	}
	// Reconstruct NFA acceptance via the regex package.
	e := regex.Substitute(regex.MustParse("h1 .* dpi .* nat .* h2"), map[string][]string{
		"dpi": {"h1", "h2", "m1"},
		"nat": {"m1"},
	})
	alpha := Alphabet(g.Topo)
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !nfa.Matches(names) {
		t.Fatalf("decoded path %v does not satisfy the regex", names)
	}
}

func TestUnsatisfiableConstraint(t *testing.T) {
	// nat can only run at m9, which does not exist in the topology.
	tp := topo.Example(topo.Gbps)
	g := buildGraph(t, tp, "h1 .* nat .* h2", map[string][]string{"nat": {"m9"}})
	if ids := g.CheapestPath(hopCosts(g)); ids != nil {
		t.Fatalf("expected no path, got %v", ids)
	}
}

// bellmanFord is CheapestPath's independent reference: the minimum
// Source→Sink path cost under cost, +Inf when the sink is unreachable.
func bellmanFord(g *Graph, cost []float64) float64 {
	dist := make([]float64, g.NumVerts)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[g.Source] = 0
	for changed := true; changed; {
		changed = false
		for i, e := range g.Edges {
			if d := dist[e.From] + cost[i]; d < dist[e.To] {
				dist[e.To], changed = d, true
			}
		}
	}
	return dist[g.Sink]
}

// pathCost checks that ids is a Source→Sink walk of g and sums its cost in
// walk order.
func pathCost(t *testing.T, g *Graph, ids []int, cost []float64) float64 {
	t.Helper()
	sum, at := 0.0, g.Source
	for _, id := range ids {
		if g.Edges[id].From != at {
			t.Fatalf("edge %d leaves %d, path is at %d", id, g.Edges[id].From, at)
		}
		sum += cost[id]
		at = g.Edges[id].To
	}
	if at != g.Sink {
		t.Fatalf("path ends at %d, not the sink %d", at, g.Sink)
	}
	return sum
}

// TestCheapestPathMatchesBellmanFord checks CheapestPath against
// Bellman–Ford on random product graphs: Waxman topologies crossed with
// waypoint expressions, random link costs (with ties) and zero-cost self,
// source and sink edges.
func TestCheapestPathMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(9)
		tp := topo.Waxman(n, 0.5, 0.3, int64(trial), topo.Gbps)
		sw := func() string { return fmt.Sprintf("s%d", rng.Intn(n)) }
		expr := ".*"
		if trial%3 != 0 {
			expr = sw() + " .* " + sw() + " .* " + sw()
		}
		g := buildGraph(t, tp, expr, nil)
		cost := make([]float64, len(g.Edges))
		selfEdges := 0
		for i, e := range g.Edges {
			switch {
			case e.Link < 0:
				if e.From != g.Source && e.To != g.Sink {
					selfEdges++
				}
			case trial%2 == 0:
				cost[i] = float64(1 + rng.Intn(3)) // many ties
			default:
				cost[i] = rng.Float64()
			}
		}
		if selfEdges == 0 {
			t.Fatalf("trial %d: %q has no self edges", trial, expr)
		}
		want := bellmanFord(g, cost)
		ids := g.CheapestPath(cost)
		if math.IsInf(want, 1) {
			if ids != nil {
				t.Fatalf("trial %d: %q is unsatisfiable but CheapestPath returned %v", trial, expr, ids)
			}
			continue
		}
		if got := pathCost(t, g, ids, cost); got != want {
			t.Fatalf("trial %d: %q path costs %v, minimum is %v", trial, expr, got, want)
		}
	}
}

func TestCheapestPathUnreachable(t *testing.T) {
	tp := topo.New()
	tp.AddSwitch("a")
	tp.AddSwitch("b") // no link joins them
	g := buildGraph(t, tp, "a .* b", nil)
	if ids := g.CheapestPath(make([]float64, len(g.Edges))); ids != nil {
		t.Fatalf("expected no path, got %v", ids)
	}
}

// TestCheapestPathDeterministic: equal inputs give equal paths, even when
// every minimum-hop path of a fat tree ties.
func TestCheapestPathDeterministic(t *testing.T) {
	tp := topo.FatTree(4, topo.Gbps)
	g := buildGraph(t, tp, "h0_0_0 .* h3_1_1", nil)
	first := g.CheapestPath(hopCosts(g))
	if first == nil {
		t.Fatal("no path")
	}
	for i := 0; i < 5; i++ {
		again := buildGraph(t, tp, "h0_0_0 .* h3_1_1", nil)
		if got := again.CheapestPath(hopCosts(again)); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d chose %v, first run %v", i, got, first)
		}
	}
}

func TestPlainPathIsShortest(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps) // s0-s1-s2, h1@s0, h2@s2
	g := buildGraph(t, tp, "h1 .* h2", nil)
	ids := g.CheapestPath(hopCosts(g))
	if ids == nil {
		t.Fatal("no path")
	}
	steps, err := g.DecodePath(ids)
	if err != nil {
		t.Fatal(err)
	}
	locs := Locations(steps)
	if len(locs) != 5 { // h1 s0 s1 s2 h2
		names := make([]string, len(locs))
		for i, l := range locs {
			names[i] = tp.Node(l).Name
		}
		t.Fatalf("path = %v, want 5 locations", names)
	}
}

func TestWaypointForcesDetour(t *testing.T) {
	// Two-path topology: force the statement through the wide path's l2.
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	g := buildGraph(t, tp, "h1 .* l2 .* h2", nil)
	steps, err := g.DecodePath(g.CheapestPath(hopCosts(g)))
	if err != nil {
		t.Fatal(err)
	}
	sawL2 := false
	for _, s := range steps {
		if tp.Node(s.Loc).Name == "l2" {
			sawL2 = true
		}
	}
	if !sawL2 {
		t.Fatal("waypoint not honored")
	}
}

func TestAvoidanceConstraint(t *testing.T) {
	// !(.* r1 .*) on the two-path topology forces the wide (3-hop) path.
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	g := buildGraph(t, tp, "h1 (!(.* r1 .*)) h2", nil)
	// h1 (...) h2 concatenation semantics: the middle segment must avoid
	// r1. Simpler formulation: whole-path complement.
	g2 := buildGraph(t, tp, "!(.* r1 .*)", nil)
	for _, graph := range []*Graph{g, g2} {
		ids := graph.CheapestPath(hopCosts(graph))
		if ids == nil {
			t.Fatal("no path avoiding r1")
		}
		steps, err := graph.DecodePath(ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if tp.Node(s.Loc).Name == "r1" {
				t.Fatalf("path visits r1 despite complement constraint")
			}
		}
	}
}

func TestEdgeLinkAnnotations(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	g := buildGraph(t, tp, ".*", nil)
	physEdges := 0
	for _, e := range g.Edges {
		if e.Link >= 0 {
			physEdges++
			l := tp.Link(e.Link)
			if l.Dst != e.Entering {
				t.Fatalf("edge %d: link dst %v != entering %v", e.ID, l.Dst, e.Entering)
			}
		}
	}
	if physEdges == 0 {
		t.Fatal("no physical edges in product graph")
	}
}

func TestExtractPathFromChosenSet(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	g := buildGraph(t, tp, "h1 .* h2", nil)
	ids := g.CheapestPath(hopCosts(g))
	chosen := make(map[int]bool, len(ids))
	for _, id := range ids {
		chosen[id] = true
	}
	steps, err := g.ExtractPath(func(e int) bool { return chosen[e] })
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.DecodePath(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(want) {
		t.Fatalf("extract mismatch: %d vs %d steps", len(steps), len(want))
	}
}

func TestExtractPathDeadEnd(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	g := buildGraph(t, tp, "h1 .* h2", nil)
	if _, err := g.ExtractPath(func(e int) bool { return false }); err == nil {
		t.Fatal("expected dead-end error")
	}
}

func TestDecompose(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	g := buildGraph(t, tp, ".*", nil)
	v := g.VertexOf(1, 0)
	loc, q, ok := g.Decompose(v)
	if !ok || loc != 1 || q != 0 {
		t.Fatalf("Decompose(%d) = %v,%v,%v", v, loc, q, ok)
	}
	if _, _, ok := g.Decompose(g.Source); ok {
		t.Fatal("source should not decompose")
	}
}

func TestIdentities(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	tab := tp.Identities()
	h1 := tp.MustLookup("h1")
	id, ok := tab.Resolve("h1")
	if !ok || id != h1 {
		t.Fatal("name resolution failed")
	}
	ident, ok := tab.Of(h1)
	if !ok {
		t.Fatal("Of failed")
	}
	if id2, ok := tab.Resolve(ident.MAC); !ok || id2 != h1 {
		t.Fatal("MAC resolution failed")
	}
	if id3, ok := tab.Resolve(ident.IP); !ok || id3 != h1 {
		t.Fatal("IP resolution failed")
	}
	if len(tab.MACs()) != 2 {
		t.Fatal("MACs count wrong")
	}
	if _, ok := tab.Resolve("unknown"); ok {
		t.Fatal("unknown identity resolved")
	}
}

func BenchmarkBuildFatTree4(b *testing.B) {
	tp := topo.FatTree(4, topo.Gbps)
	e := regex.MustParse(".*")
	alpha := Alphabet(tp)
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		b.Fatal(err)
	}
	ef := nfa.EpsFree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(tp, ef)
	}
}

func BenchmarkCheapestPathFatTree4(b *testing.B) {
	tp := topo.FatTree(4, topo.Gbps)
	g := func() *Graph {
		e := regex.MustParse("h0_0_0 .* h1_0_0")
		alpha := Alphabet(tp)
		nfa, _ := regex.Compile(e, alpha)
		return Build(tp, nfa.EpsFree())
	}()
	cost := hopCosts(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.CheapestPath(cost) == nil {
			b.Fatal("no path")
		}
	}
}
