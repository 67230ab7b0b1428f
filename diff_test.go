package merlin_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/topo"
)

// entryDiff is the reference for every backend's Diff: the multiset
// difference of the two artifacts' rendered entries, each side in entry
// order.
func entryDiff(name string, old, new codegen.Artifact) codegen.ArtifactDiff {
	d := codegen.ArtifactDiff{Backend: name}
	if old == new {
		return d
	}
	var oldE, newE []codegen.Entry
	if old != nil {
		oldE = old.Entries()
	}
	if new != nil {
		newE = new.Entries()
	}
	count := map[codegen.Entry]int{}
	for _, e := range oldE {
		count[e]++
	}
	for _, e := range newE {
		if count[e] > 0 {
			count[e]--
			continue
		}
		d.Install = append(d.Install, e)
	}
	for _, e := range oldE {
		if count[e] > 0 {
			count[e]--
			d.Remove = append(d.Remove, e)
		}
	}
	return d
}

// TestUpdateDiffMatchesEntryDiff drives a compiler through formula
// deltas, statement adds and removes, and a link failure and its
// recovery on a fat-tree tenants scenario. Every returned Diff must equal
// the entry-multiset difference of the results before and after.
func TestUpdateDiffMatchesEntryDiff(t *testing.T) {
	sc, err := corpus.Generate(corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Seed: 2, Tenants: 4, Guarantees: 3})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(sc.Topology, sc.Placement, merlin.Options{Targets: append(codegen.DefaultTargets(), "p4")})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	rates := map[string]int{} // Mbps
	for _, g := range sc.Guarantee {
		rates[g.ID] = int(g.RateBps / topo.Mbps)
	}
	formula := func(tenant int) merlin.WireDelta {
		for j, id := range sc.Tenants[tenant].StmtIDs {
			rates[id] = rates[id]%20 + 1 + j
		}
		var terms []string
		for _, g := range sc.Guarantee {
			terms = append(terms, fmt.Sprintf("min(%s, %dMbps)", g.ID, rates[g.ID]))
		}
		return merlin.WireDelta{Formula: strings.Join(terms, " and ")}
	}
	hosts := sc.Topology.Hosts()
	add := merlin.WireDelta{Add: []string{fmt.Sprintf("be0 : (eth.src = %s and eth.dst = %s and tcp.dst = 9000) -> .*",
		topo.MACOf(hosts[0]), topo.MACOf(hosts[len(hosts)-1]))}}
	a, b := coreHop(t, sc.Topology, c.Result().Paths[sc.Guarantee[0].ID])

	steps := []struct {
		name string
		wire merlin.WireDelta
		topo []merlin.TopoEvent
	}{
		{"formula t0", formula(0), nil},
		{"add be0", add, nil},
		{"formula t1", formula(1), nil},
		{"link down", merlin.WireDelta{}, []merlin.TopoEvent{merlin.LinkFailure(a, b)}},
		{"remove be0", merlin.WireDelta{Remove: []string{"be0"}}, nil},
		{"formula t2", formula(2), nil},
		{"link up", merlin.WireDelta{}, []merlin.TopoEvent{merlin.LinkRecovery(a, b)}},
	}
	for _, st := range steps {
		prev := c.Result()
		d, err := c.DecodeDelta(st.wire)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		d.Topo = st.topo
		diff, err := c.Update(d)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		cur := c.Result()
		want := map[string]codegen.ArtifactDiff{}
		for name, art := range cur.Outputs {
			want[name] = entryDiff(name, prev.Outputs[name], art)
		}
		if !reflect.DeepEqual(diff.Backends, want) {
			t.Fatalf("%s: Update's diff differs from the entry diff of its results", st.name)
		}
		if diff.Backends[codegen.TargetOpenFlow].Empty() {
			t.Fatalf("%s: changed no OpenFlow rule or queue", st.name)
		}
	}
}

// coreHop returns the first switch-to-switch hop of path.
func coreHop(t *testing.T, tp *merlin.Topology, path []string) (string, string) {
	t.Helper()
	for i := 1; i < len(path); i++ {
		a, okA := tp.Lookup(path[i-1])
		b, okB := tp.Lookup(path[i])
		if okA && okB && tp.Node(a).Kind == topo.Switch && tp.Node(b).Kind == topo.Switch {
			return path[i-1], path[i]
		}
	}
	t.Fatalf("no switch-switch hop on %v", path)
	return "", ""
}
