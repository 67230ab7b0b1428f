package sinktree

import (
	"fmt"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/regex"
	"merlin/internal/topo"
)

func graphFor(t testing.TB, tp *topo.Topology, expr string, placement map[string][]string) *logical.Graph {
	t.Helper()
	e := regex.MustParse(expr)
	if placement != nil {
		e = regex.Substitute(e, placement)
	}
	g, err := logical.BuildMinimized(tp, e, logical.Alphabet(tp))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func names(tp *topo.Topology, steps []logical.Step) []string {
	locs := logical.Locations(steps)
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = tp.Node(l).Name
	}
	return out
}

func TestSinkTreeAllPairsLinear(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	g := graphFor(t, tp, ".*", nil)
	h2 := tp.MustLookup("h2")
	tr, err := TreeTo(g, h2)
	if err != nil {
		t.Fatal(err)
	}
	h1 := tp.MustLookup("h1")
	if !tr.Reaches(h1) {
		t.Fatal("h1 cannot reach h2")
	}
	path := names(tp, tr.PathFromBuf(nil, h1))
	want := []string{"h1", "s0", "s1", "s2", "h2"}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if tr.Reaches(h2) {
		t.Error("destination should not reach itself")
	}
}

func TestSinkTreeIsShortest(t *testing.T) {
	// On the two-path topology the tree must prefer the 2-hop narrow path.
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	g := graphFor(t, tp, ".*", nil)
	tr, err := TreeTo(g, tp.MustLookup("h2"))
	if err != nil {
		t.Fatal(err)
	}
	path := names(tp, tr.PathFromBuf(nil, tp.MustLookup("h1")))
	if len(path)-1 != 2 {
		t.Fatalf("path %v, want 2 hops", path)
	}
}

func TestSinkTreeRespectsWaypoint(t *testing.T) {
	// All traffic to h2 must pass the middlebox m1 (Fig. 2 topology).
	tp := topo.Example(topo.Gbps)
	g := graphFor(t, tp, ".* dpi .*", map[string][]string{"dpi": {"m1"}})
	tr, err := TreeTo(g, tp.MustLookup("h2"))
	if err != nil {
		t.Fatal(err)
	}
	path := names(tp, tr.PathFromBuf(nil, tp.MustLookup("h1")))
	saw := false
	for _, n := range path {
		if n == "m1" {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("path %v does not pass m1", path)
	}
	// Tag recovery: dpi must be placed at m1.
	var tagged []logical.Step
	for _, s := range tr.PathFromBuf(nil, tp.MustLookup("h1")) {
		if s.Tag != "" {
			tagged = append(tagged, s)
		}
	}
	if len(tagged) != 1 || tagged[0].Tag != "dpi" || tp.Node(tagged[0].Loc).Name != "m1" {
		t.Fatalf("placements = %v", tagged)
	}
}

func TestSinkTreeAvoidance(t *testing.T) {
	// Complement constraint: avoid r1 — the tree must use the wide path.
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	g := graphFor(t, tp, "!(.* r1 .*)", nil)
	tr, err := TreeTo(g, tp.MustLookup("h2"))
	if err != nil {
		t.Fatal(err)
	}
	path := names(tp, tr.PathFromBuf(nil, tp.MustLookup("h1")))
	for _, n := range path {
		if n == "r1" {
			t.Fatalf("path %v passes r1", path)
		}
	}
	if len(path)-1 != 3 {
		t.Fatalf("path %v, want the 3-hop wide path", path)
	}
}

func TestSinkTreeUnreachableDestination(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	g := graphFor(t, tp, ".* nowhere .*", map[string][]string{"nowhere": {"ghost"}})
	if _, err := TreeTo(g, tp.MustLookup("h2")); err == nil {
		t.Fatal("expected error for unsatisfiable tree")
	}
}

func TestBuildTreesLenient(t *testing.T) {
	tp := topo.Example(topo.Gbps)
	// Paths must end at h2 (regex pins the last location), so a tree
	// toward h1 is unsatisfiable.
	g := graphFor(t, tp, ".* h2", nil)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	trees, failed, err := BuildTrees(g, []topo.NodeID{h1, h2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[h2] == nil {
		t.Fatalf("trees = %v", trees)
	}
	if len(failed) != 1 || failed[0] != h1 {
		t.Fatalf("failed = %v", failed)
	}
	if _, _, err := BuildTrees(g, []topo.NodeID{h1}, false); err == nil {
		t.Fatal("strict mode should error")
	}
}

func TestAllPairsFatTreeTreesCoverAllHosts(t *testing.T) {
	tp := topo.FatTree(4, topo.Gbps)
	g := graphFor(t, tp, ".*", nil)
	hosts := tp.Hosts()
	trees, failed, err := BuildTrees(g, hosts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed destinations: %v", failed)
	}
	for _, dst := range hosts {
		tr := trees[dst]
		for _, src := range hosts {
			if src == dst {
				continue
			}
			if !tr.Reaches(src) {
				t.Fatalf("%s cannot reach %s", tp.Node(src).Name, tp.Node(dst).Name)
			}
			path := tr.PathFromBuf(nil, src)
			locs := logical.Locations(path)
			if locs[0] != src || locs[len(locs)-1] != dst {
				t.Fatalf("bad endpoints for %s->%s", tp.Node(src).Name, tp.Node(dst).Name)
			}
			// Fat-tree shortest paths are 2, 4, or 6 hops.
			h := len(locs) - 1
			if h != 2 && h != 4 && h != 6 {
				t.Fatalf("hops = %d for %s->%s", h, tp.Node(src).Name, tp.Node(dst).Name)
			}
		}
	}
}

// Edges enumerates the distinct tree edges on any reaching source's path,
// the sink edges aside.
func (tr *Tree) Edges() []logical.Edge {
	used := make(map[int]bool)
	var out []logical.Edge
	for src := range tr.entry {
		w := tr.Walk(topo.NodeID(src))
		for e, ok := w.Next(); ok; e, ok = w.Next() {
			if !used[e.ID] {
				used[e.ID] = true
				out = append(out, *e)
			}
		}
	}
	return out
}

func TestTreeEdgesFormATree(t *testing.T) {
	tp := topo.FatTree(4, topo.Gbps)
	g := graphFor(t, tp, ".*", nil)
	dst := tp.Hosts()[0]
	tr, err := TreeTo(g, dst)
	if err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	if len(edges) == 0 {
		t.Fatal("no tree edges")
	}
	// Each product vertex has at most one outgoing tree edge (tree
	// property), except the virtual source.
	outCount := map[int]int{}
	for _, e := range edges {
		if e.From != g.Source {
			outCount[e.From]++
		}
	}
	for v, c := range outCount {
		if c > 1 {
			t.Fatalf("vertex %d has %d outgoing tree edges", v, c)
		}
	}
}

func BenchmarkSinkTreesFatTree4AllPairs(b *testing.B) {
	tp := topo.FatTree(4, topo.Gbps)
	g := graphFor(b, tp, ".*", nil)
	hosts := tp.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildTrees(g, hosts, false); err != nil {
			b.Fatal(err)
		}
	}
}
