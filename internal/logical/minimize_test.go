package logical

import (
	"reflect"
	"testing"

	"merlin/internal/regex"
	"merlin/internal/topo"
)

// TestWithoutLinksAnchoredMatchesColdBuild: an anchored graph built on the
// full topology and patched with WithoutLinks after each failure equals a
// cold BuildAnchored on the degraded topology — the identity that lets the
// incremental compiler repair anchored graphs in place.
func TestWithoutLinksAnchoredMatchesColdBuild(t *testing.T) {
	type failure func(tp *topo.Topology) (topo.Impact, error)
	linkDown := func(a, b string) failure {
		return func(tp *topo.Topology) (topo.Impact, error) {
			return tp.SetLinkState(tp.MustLookup(a), tp.MustLookup(b), false)
		}
	}
	switchDown := func(name string) failure {
		return func(tp *topo.Topology) (topo.Impact, error) {
			return tp.SetNodeState(tp.MustLookup(name), false)
		}
	}
	for _, tc := range []struct {
		name     string
		failures []failure
	}{
		{"link-down", []failure{linkDown("agg0_0", "edge0_0")}},
		{"switch-down", []failure{switchDown("core0")}},
		{"two-failures", []failure{linkDown("agg0_0", "edge0_0"), switchDown("agg1_1")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.FatTree(4, topo.Gbps)
			alpha := Alphabet(tp)
			e := regex.MustParse(".*")
			build := func() *Graph {
				g, err := BuildAnchored(tp, e, alpha, "h0_0_0", "h1_0_0")
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := build()
			for i, fail := range tc.failures {
				im, err := fail(tp)
				if err != nil {
					t.Fatal(err)
				}
				cables := map[topo.LinkID]bool{}
				for _, c := range im.Cables {
					cables[c] = true
				}
				patched := g.WithoutLinks(func(l topo.LinkID) bool { return cables[tp.Cable(l)] })
				if len(patched.Edges) >= len(g.Edges) {
					t.Fatalf("failure %d removed no edge (%d -> %d)", i, len(g.Edges), len(patched.Edges))
				}
				if patched.ShortestPath() == nil {
					t.Fatalf("failure %d disconnected the endpoints", i)
				}
				if cold := build(); !reflect.DeepEqual(patched, cold) {
					t.Fatalf("failure %d: patched graph (%d edges) differs from a cold build (%d edges)",
						i, len(patched.Edges), len(cold.Edges))
				}
				g = patched
			}
		})
	}
}
