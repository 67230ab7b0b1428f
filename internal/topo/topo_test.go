package topo

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddNodeAndLookup(t *testing.T) {
	tp := New()
	a := tp.AddSwitch("s1")
	b := tp.AddHost("h1")
	c := tp.AddMiddlebox("m1")
	if tp.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", tp.NumNodes())
	}
	if got := tp.Node(a).Kind; got != Switch {
		t.Errorf("node a kind = %v, want switch", got)
	}
	if got := tp.Node(b).Kind; got != Host {
		t.Errorf("node b kind = %v, want host", got)
	}
	if got := tp.Node(c).Kind; got != Middlebox {
		t.Errorf("node c kind = %v, want middlebox", got)
	}
	id, ok := tp.Lookup("h1")
	if !ok || id != b {
		t.Errorf("Lookup(h1) = %v,%v, want %v,true", id, ok, b)
	}
	if _, ok := tp.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded, want failure")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	tp := New()
	tp.AddSwitch("s1")
	tp.AddSwitch("s1")
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self link did not panic")
		}
	}()
	tp := New()
	a := tp.AddSwitch("s1")
	tp.AddLink(a, a, Gbps)
}

func TestLinksAreBidirectionalReverses(t *testing.T) {
	tp := New()
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	ab, ba := tp.AddLink(a, b, 5)
	la, lb := tp.Link(ab), tp.Link(ba)
	if la.Src != a || la.Dst != b || lb.Src != b || lb.Dst != a {
		t.Fatalf("link endpoints wrong: %+v %+v", la, lb)
	}
	if la.Reverse != ba || lb.Reverse != ab {
		t.Fatalf("reverse pointers wrong: %+v %+v", la, lb)
	}
	if la.Capacity != 5 || lb.Capacity != 5 {
		t.Fatalf("capacities wrong: %v %v", la.Capacity, lb.Capacity)
	}
}

func TestFindLinkAndNeighbors(t *testing.T) {
	tp := New()
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	c := tp.AddSwitch("c")
	tp.AddLink(a, b, 1)
	tp.AddLink(a, c, 1)
	if _, ok := tp.FindLink(a, b); !ok {
		t.Error("FindLink(a,b) failed")
	}
	if _, ok := tp.FindLink(b, c); ok {
		t.Error("FindLink(b,c) should fail")
	}
	nb := tp.Neighbors(a)
	if len(nb) != 2 || nb[0] != b || nb[1] != c {
		t.Errorf("Neighbors(a) = %v, want [b c]", nb)
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	tp := Linear(4, Gbps) // s0-s1-s2-s3, h1@s0, h2@s3
	h1 := tp.MustLookup("h1")
	h2 := tp.MustLookup("h2")
	path := tp.ShortestPath(h1, h2)
	if len(path) != 6 {
		t.Fatalf("path length = %d (%v), want 6 nodes", len(path), path)
	}
	if path[0] != h1 || path[len(path)-1] != h2 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	dist, _ := tp.BFS(h1)
	if dist[h2] != 5 {
		t.Fatalf("dist h1->h2 = %d, want 5", dist[h2])
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	tp := New()
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	if p := tp.ShortestPath(a, b); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
}

func TestBalancedTreeShape(t *testing.T) {
	for _, tc := range []struct {
		fanout, depth, hosts    int
		wantSwitches, wantHosts int
	}{
		{2, 0, 3, 1, 3},
		{2, 2, 2, 7, 8},
		{3, 2, 1, 13, 9},
		{4, 3, 4, 85, 256},
	} {
		tp := BalancedTree(tc.fanout, tc.depth, tc.hosts, Gbps)
		if got := len(tp.Switches()); got != tc.wantSwitches {
			t.Errorf("BalancedTree(%d,%d): switches = %d, want %d", tc.fanout, tc.depth, got, tc.wantSwitches)
		}
		if got := len(tp.Hosts()); got != tc.wantHosts {
			t.Errorf("BalancedTree(%d,%d): hosts = %d, want %d", tc.fanout, tc.depth, got, tc.wantHosts)
		}
		if !tp.Connected() {
			t.Errorf("BalancedTree(%d,%d) disconnected", tc.fanout, tc.depth)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		tp := FatTree(k, Gbps)
		wantSw := (k/2)*(k/2) + k*k // core + pods
		wantHosts := k * k * k / 4
		if got := len(tp.Switches()); got != wantSw {
			t.Errorf("FatTree(%d): switches = %d, want %d", k, got, wantSw)
		}
		if got := len(tp.Hosts()); got != wantHosts {
			t.Errorf("FatTree(%d): hosts = %d, want %d", k, got, wantHosts)
		}
		if !tp.Connected() {
			t.Errorf("FatTree(%d) disconnected", k)
		}
	}
}

func TestFatTreeOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FatTree(3) did not panic")
		}
	}()
	FatTree(3, Gbps)
}

func TestFatTreePathDiversity(t *testing.T) {
	// In a k=4 fat tree, inter-pod host pairs must be 6 hops apart.
	tp := FatTree(4, Gbps)
	a := tp.MustLookup("h0_0_0")
	b := tp.MustLookup("h1_0_0")
	if p := tp.ShortestPath(a, b); len(p)-1 != 6 {
		t.Fatalf("inter-pod hops = %d, want 6", len(p)-1)
	}
	c := tp.MustLookup("h0_0_1")
	if p := tp.ShortestPath(a, c); len(p)-1 != 2 {
		t.Fatalf("same-edge hops = %d, want 2", len(p)-1)
	}
}

func TestRingStarShapes(t *testing.T) {
	r := Ring(5, 2, Gbps)
	if len(r.Switches()) != 5 || len(r.Hosts()) != 10 {
		t.Errorf("ring shape wrong: %d switches, %d hosts", len(r.Switches()), len(r.Hosts()))
	}
	if !r.Connected() {
		t.Error("ring disconnected")
	}
	s := Star(6, 1, Gbps)
	if len(s.Switches()) != 7 || len(s.Hosts()) != 6 {
		t.Errorf("star shape wrong: %d switches, %d hosts", len(s.Switches()), len(s.Hosts()))
	}
	if !s.Connected() {
		t.Error("star disconnected")
	}
}

func TestWaxmanConnectedAndDeterministic(t *testing.T) {
	a := Waxman(40, 0.4, 0.2, 7, Gbps)
	b := Waxman(40, 0.4, 0.2, 7, Gbps)
	if !a.Connected() {
		t.Fatal("waxman disconnected")
	}
	if a.NumLinks() != b.NumLinks() {
		t.Fatalf("waxman not deterministic: %d vs %d links", a.NumLinks(), b.NumLinks())
	}
}

func TestTwoPathShape(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	// Shortest path must take the narrow two-link side.
	if p := tp.ShortestPath(h1, h2); len(p)-1 != 2 {
		t.Fatalf("shortest path hops = %d, want 2", len(p)-1)
	}
	l, ok := tp.FindLink(h1, tp.MustLookup("r1"))
	if !ok || l.Capacity != 100*MBps {
		t.Fatalf("narrow link capacity = %v, want 100 MB/s", l.Capacity)
	}
}

func TestExampleShape(t *testing.T) {
	tp := Example(Gbps)
	if len(tp.Middleboxes()) != 1 {
		t.Fatal("example should have one middlebox")
	}
	m1 := tp.MustLookup("m1")
	att, ok := tp.Attachment(m1)
	if !ok || tp.Node(att).Name != "s1" {
		t.Fatalf("m1 attachment = %v, want s1", att)
	}
}

func TestStanfordShape(t *testing.T) {
	tp := Stanford(24, 2, Gbps)
	if got := len(tp.Switches()); got != 16 {
		t.Fatalf("stanford switches = %d, want 16", got)
	}
	if got := len(tp.Hosts()); got != 48 {
		t.Fatalf("stanford hosts = %d, want 48", got)
	}
	if got := len(tp.Middleboxes()); got != 2 {
		t.Fatalf("stanford middleboxes = %d, want 2", got)
	}
	if !tp.Connected() {
		t.Fatal("stanford disconnected")
	}
	if d := diameter(tp); d > 6 {
		t.Fatalf("stanford diameter = %d, want small", d)
	}
}

// diameter returns the longest shortest-path hop count between any pair
// of nodes (disconnected pairs ignored).
func diameter(t *Topology) int {
	max := 0
	for id := range t.nodes {
		dist, _ := t.BFS(NodeID(id))
		for _, d := range dist {
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestKindString(t *testing.T) {
	if Switch.String() != "switch" || Host.String() != "host" || Middlebox.String() != "middlebox" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

// Property: in any balanced tree, every out link has a matching in link at
// its destination and reverse pointers are involutive.
func TestLinkInvariants(t *testing.T) {
	check := func(fanout, depth uint8) bool {
		f := int(fanout%3) + 1
		d := int(depth % 4)
		tp := BalancedTree(f, d, 1, Gbps)
		for _, l := range tp.Links() {
			r := tp.Link(l.Reverse)
			if r.Reverse != l.ID || r.Src != l.Dst || r.Dst != l.Src {
				return false
			}
			found := false
			for _, in := range tp.In(l.Dst) {
				if in == l.ID {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distance is symmetric on undirected topologies.
func TestBFSSymmetry(t *testing.T) {
	tp := FatTree(4, Gbps)
	check := func(a, b uint16) bool {
		x := NodeID(int(a) % tp.NumNodes())
		y := NodeID(int(b) % tp.NumNodes())
		dx, _ := tp.BFS(x)
		dy, _ := tp.BFS(y)
		return dx[y] == dy[x]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFatTreeBuild(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FatTree(k, Gbps)
			}
		})
	}
}

func BenchmarkBFSFatTree8(b *testing.B) {
	tp := FatTree(8, Gbps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.BFS(0)
	}
}
