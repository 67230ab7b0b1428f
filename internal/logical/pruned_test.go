package logical

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/regex"
	"merlin/internal/topo"
	"merlin/internal/zoo"
)

// Prune removes the vertices that are unreachable from the source or
// cannot reach the sink, along with their edges: the reference
// buildPruned is held to (it equals Build(t, nfa).Prune()).
func (g *Graph) Prune() *Graph { return g.filter(nil, g.Full) }

// prunedShapes are FuzzBuildPruned's topologies: fat-trees, a ring with
// hosts, and two hosted zoo graphs (a Waxman graph and a mesh).
var prunedShapes = []func() *topo.Topology{
	func() *topo.Topology { return topo.FatTree(2, topo.Gbps) },
	func() *topo.Topology { return topo.FatTree(4, topo.Gbps) },
	func() *topo.Topology { return topo.Ring(6, 1, topo.Gbps) },
	func() *topo.Topology { return zoo.Generate(19, 1) },
	func() *topo.Topology { return zoo.Generate(3, 1) },
}

// prunedExprs are FuzzBuildPruned's path expressions over a topology, as
// the compiler hands them to buildCut: the expression and, for a
// guarantee whose predicate pins its endpoints, the "src .* dst" anchor.
var prunedExprs = []struct {
	name string
	expr func(tp *topo.Topology, rng *rand.Rand) (e, anchor regex.Expr)
}{
	{"any", func(*topo.Topology, *rand.Rand) (regex.Expr, regex.Expr) {
		return regex.MustParse(".*"), nil
	}},
	{"anchored", func(tp *topo.Topology, rng *rand.Rand) (regex.Expr, regex.Expr) {
		return regex.MustParse(".*"), anchorPair(tp, rng)
	}},
	{"waypoint", func(tp *topo.Topology, rng *rand.Rand) (regex.Expr, regex.Expr) {
		var fw []string
		for _, n := range tp.Nodes() {
			if rng.Intn(4) == 0 {
				fw = append(fw, n.Name)
			}
		}
		e := regex.Substitute(regex.MustParse(".* fw .*"), map[string][]string{"fw": fw})
		return e, anchorPair(tp, rng)
	}},
	{"region", func(tp *topo.Topology, rng *rand.Rand) (regex.Expr, regex.Expr) {
		anchor := anchorPair(tp, rng)
		region := []string{tp.Node(0).Name} // never empty: "( )*" does not parse
		for _, n := range tp.Nodes()[1:] {
			if rng.Intn(3) > 0 {
				region = append(region, n.Name)
			}
		}
		return regex.MustParse("( " + strings.Join(region, " | ") + " )*"), anchor
	}},
	{"empty", func(*topo.Topology, *rand.Rand) (regex.Expr, regex.Expr) {
		return regex.Empty{}, nil
	}},
}

// anchorPair anchors a path at two random hosts (or any two nodes of a
// hostless topology).
func anchorPair(tp *topo.Topology, rng *rand.Rand) regex.Expr {
	ends := tp.Hosts()
	if len(ends) < 2 {
		ends = tp.Switches()
	}
	src, dst := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
	return regex.ConcatAll(regex.Sym{Name: tp.Node(src).Name}, regex.Star{X: regex.Any{}}, regex.Sym{Name: tp.Node(dst).Name})
}

// prunedAutomata returns the automata a product graph is built from for
// e (anchored when anchor is not nil): the minimal DFA buildCut builds
// from, and e's Thompson NFA, whose transitions carry e's function tags.
func prunedAutomata(t testing.TB, tp *topo.Topology, e, anchor regex.Expr) []*regex.EpsFree {
	alpha := Alphabet(tp)
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	dfa := nfa.Determinize()
	if anchor != nil {
		a, err := regex.Compile(anchor, alpha)
		if err != nil {
			t.Fatal(err)
		}
		dfa = dfa.Intersect(a.Determinize())
	}
	return []*regex.EpsFree{dfa.Minimize().EpsFree(), nfa.EpsFree()}
}

// FuzzBuildPruned holds the pruned builder buildCut runs to its
// reference, Build(t, ef).Prune(), with reflect.DeepEqual: the same edges
// in the same order and the same adjacency lists, nil where Prune leaves
// nil. An input draws a topology, takes up to seven of its cables (and,
// with bit 3 of fail, one switch) down, and draws a path expression:
// every path, an anchored host pair, a tagged waypoint, a region class,
// or the empty language. Both graphs are full-fabric forms, so the
// reference is built on a healthy copy of the topology: the failures
// must change nothing.
func FuzzBuildPruned(f *testing.F) {
	for shape := range prunedShapes {
		for kind := range prunedExprs {
			seed := uint64(shape*len(prunedExprs) + kind)
			f.Add(uint8(shape), uint8(kind), seed, uint8(0))
			f.Add(uint8(shape), uint8(kind), seed+100, uint8(0x0a))
		}
	}
	f.Fuzz(func(t *testing.T, shape, kind uint8, pick uint64, fail uint8) {
		build := prunedShapes[int(shape)%len(prunedShapes)]
		tp, healthy := build(), build()
		rng := rand.New(rand.NewSource(int64(pick)))
		for i := 0; i < int(fail&7); i++ {
			l := tp.Link(topo.LinkID(rng.Intn(tp.NumLinks())))
			if _, err := tp.SetLinkState(l.Src, l.Dst, false); err != nil {
				t.Fatal(err)
			}
		}
		if fail&8 != 0 {
			sw := tp.Switches()
			if _, err := tp.SetNodeState(sw[rng.Intn(len(sw))], false); err != nil {
				t.Fatal(err)
			}
		}
		x := prunedExprs[int(kind)%len(prunedExprs)]
		e, anchor := x.expr(tp, rng)
		for i, ef := range prunedAutomata(t, tp, e, anchor) {
			got, want := buildPruned(tp, ef), Build(healthy, ef).Prune()
			want.Topo = tp
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, automaton %d: buildPruned (%d edges) differs from Build().Prune() (%d edges)",
					x.name, i, len(got.Edges), len(want.Edges))
			}
		}
	})
}

// anchoredAutomaton is the minimal DFA buildCut builds a fattree-k
// guarantee between the first and the last host from: ".*" anchored at
// both hosts.
func anchoredAutomaton(t testing.TB, k int) (*topo.Topology, *regex.EpsFree) {
	tp := topo.FatTree(k, topo.Gbps)
	hosts := tp.Hosts()
	src, dst := tp.Node(hosts[0]).Name, tp.Node(hosts[len(hosts)-1]).Name
	anchor := regex.ConcatAll(regex.Sym{Name: src}, regex.Star{X: regex.Any{}}, regex.Sym{Name: dst})
	return tp, prunedAutomata(t, tp, regex.MustParse(".*"), anchor)[0]
}

// TestBuildPrunedAllocsIndependentOfFabric: building a pruned product
// graph allocates the same number of objects on fattree-k4 and
// fattree-k8. Each array is sized before it is filled, so the count does
// not grow with the fabric; building the whole product and pruning it
// (Build(t, ef).Prune()) grows with the number of vertices it appends to.
func TestBuildPrunedAllocsIndependentOfFabric(t *testing.T) {
	allocs := map[int]float64{}
	for _, k := range []int{4, 8} {
		tp, ef := anchoredAutomaton(t, k)
		allocs[k] = testing.AllocsPerRun(20, func() { buildPruned(tp, ef) })
	}
	if allocs[4] != allocs[8] {
		t.Fatalf("buildPruned allocates %v objects on fattree-k4 but %v on fattree-k8", allocs[4], allocs[8])
	}
}

// BenchmarkBuildAnchored times the compiler's anchored graph build for a
// guarantee between two fattree-k8 hosts in different pods (h .* h'),
// automaton construction included.
func BenchmarkBuildAnchored(b *testing.B) {
	tp := topo.FatTree(8, topo.Gbps)
	alpha := Alphabet(tp)
	e := regex.MustParse(".*")
	hosts := tp.Hosts()
	src, dst := tp.Node(hosts[0]).Name, tp.Node(hosts[len(hosts)-1]).Name
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAnchored(tp, e, alpha, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
