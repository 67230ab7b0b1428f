package provision_test

import (
	"math"
	"testing"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/logical"
	"merlin/internal/policy"
	"merlin/internal/provision"
	"merlin/internal/regex"
)

// TestFastPathIsExact compiles the requests of a corpus chains draw the way
// the compiler does and checks that every request the fast path routed
// rides a path whose cost is the exact minimum over the same per-edge
// costs. The draw (zoo-14, chains 8×6, seed 146) holds request c22, whose
// two cheapest paths differ by 4.74e-9: inside a simplex's 1e-9 pricing
// tolerance, so a tolerance-bound solver may stop on the costlier one.
func TestFastPathIsExact(t *testing.T) {
	sc, err := corpus.Generate(corpus.Spec{Topo: "zoo-14", Suite: "chains", Seed: 146, Tenants: 8, Guarantees: 6})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	work, err := policy.Preprocess(pol, policy.PreprocessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := policy.Localize(work.Formula, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Intern every statement's symbols before building any automaton, as
	// the compiler does, so the product graphs number edges alike.
	tp := sc.Topology
	alpha := logical.Alphabet(tp)
	exprs := map[string]regex.Expr{}
	for _, s := range work.Statements {
		e := regex.Substitute(s.Path, sc.Placement)
		for _, sym := range regex.Symbols(e) {
			alpha.Intern(sym)
		}
		exprs[s.ID] = e
	}
	var reqs []provision.Request
	for _, g := range sc.Guarantee {
		graph, err := logical.BuildAnchored(tp, exprs[g.ID], alpha, g.Src, g.Dst)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, provision.Request{ID: g.ID, Graph: graph, MinRate: allocs[g.ID].Min})
	}
	res, err := provision.Solve(tp, reqs, provision.WeightedShortestPath, provision.Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetflowShards != len(res.Shards) {
		t.Fatalf("%d of %d shards took the fast path, want all", res.NetflowShards, len(res.Shards))
	}
	sawC22 := false
	for _, r := range reqs {
		sawC22 = sawC22 || r.ID == "c22"
		cost := provision.EdgeCosts(r, provision.WeightedShortestPath)
		want := bellmanFord(r.Graph, cost)
		if got := walkCost(r.Graph, res.Paths[r.ID], cost); math.Abs(got-want) > 1e-12 {
			t.Errorf("request %s: path costs %.10f, the minimum is %.10f (%.3g above)", r.ID, got, want, got-want)
		}
	}
	if !sawC22 {
		t.Fatal("the draw no longer holds request c22")
	}
}

// bellmanFord is the independent reference: the minimum Source→Sink path
// cost of g under cost.
func bellmanFord(g *logical.Graph, cost []float64) float64 {
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

// walkCost is the cost of the cheapest Source→Sink walk of g whose entered
// locations are those of steps — the cost of the path Solve decoded.
func walkCost(g *logical.Graph, steps []logical.Step, cost []float64) float64 {
	at := map[int]float64{g.Source: 0}
	for _, s := range steps {
		next := map[int]float64{}
		for v, d := range at {
			for _, eid := range g.Out[v] {
				e := g.Edges[eid]
				if e.To == g.Sink || e.Entering != s.Loc {
					continue
				}
				if c, ok := next[e.To]; !ok || d+cost[eid] < c {
					next[e.To] = d + cost[eid]
				}
			}
		}
		at = next
	}
	best := math.Inf(1)
	for v, d := range at {
		for _, eid := range g.Out[v] {
			if g.Edges[eid].To == g.Sink {
				best = math.Min(best, d+cost[eid])
			}
		}
	}
	return best
}
