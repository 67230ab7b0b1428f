package merlin

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// TestLinkDownPatchesAnchoredGraphs: a link failure repairs the anchored
// graphs that cross it in place instead of evicting and rebuilding them —
// no anchored build across the event or the pass after it — and the
// output still equals a cold compile of the degraded topology.
func TestLinkDownPatchesAnchoredGraphs(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])
	base := c.Stats()
	if _, err := c.ApplyTopo(LinkFailure(a, b)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.AnchoredBuilds != base.AnchoredBuilds {
		t.Fatalf("link failure rebuilt %d anchored graphs, want 0 (patched in place)",
			st.AnchoredBuilds-base.AnchoredBuilds)
	}
	if got := st.AnchoredInvalidated - base.AnchoredInvalidated; got != 2 {
		t.Fatalf("failure patched %d anchored graphs, want pod 0's 2", got)
	}
	degraded := FatTree(k, Gbps)
	if _, err := degraded.SetLinkState(degraded.MustLookup(a), degraded.MustLookup(b), false); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "link-down", c.Result(), pol, degraded, nil, opts)
}

// TestRecoveryOfInheritedOutageBuildsNothing: a compiler handed a fat
// tree with a link already down builds every product graph as its
// full-fabric form cut by that link, so the link's recovery re-cuts the
// graphs that can ride it back to their full forms — no anchored or
// minimized graph is built — and the output equals a cold compile on the
// healthy tree.
func TestRecoveryOfInheritedOutageBuildsNothing(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	if _, err := tp.SetLinkState(tp.MustLookup("agg0_0"), tp.MustLookup("edge0_0"), false); err != nil {
		t.Fatal(err)
	}
	opts := Options{} // the totality default adds a minimized best-effort graph
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.AnchoredBuilds != 2*k || base.GraphBuilds == 0 {
		t.Fatalf("baseline built %d anchored / %d minimized graphs, want %d / >0",
			base.AnchoredBuilds, base.GraphBuilds, 2*k)
	}
	if _, err := c.ApplyTopo(LinkRecovery("agg0_0", "edge0_0")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.AnchoredBuilds != base.AnchoredBuilds || st.GraphBuilds != base.GraphBuilds {
		t.Fatalf("recovery built %d anchored / %d minimized graphs, want 0 / 0",
			st.AnchoredBuilds-base.AnchoredBuilds, st.GraphBuilds-base.GraphBuilds)
	}
	sameCompiled(t, "inherited-outage-recovery", c.Result(), pol, FatTree(k, Gbps), nil, opts)
}

// TestNewLocationRebuildsAllCaches: a delta whose path expression names a
// symbol the alphabet lacks grows it, which drops every automaton-derived
// artifact — anchored graphs, minimized graphs and sink trees are all
// rebuilt, and the result matches a cold compile.
func TestNewLocationRebuildsAllCaches(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{}) // the default statement is best-effort
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.GraphBuilds == 0 || base.TreeBuilds == 0 {
		t.Fatalf("no best-effort artifacts to invalidate: %+v", base)
	}
	mac := func(name string) string { return topo.MACOf(tp.MustLookup(name)) }
	ghost, err := ParsePolicy(fmt.Sprintf(
		"[ ghost : (eth.src = %s and eth.dst = %s and tcp.dst = 22) -> ( .* | ghost0 ) ]",
		mac("h0_0_0"), mac("h1_0_0")), tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(Delta{Add: ghost.Statements}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := st.AnchoredBuilds - base.AnchoredBuilds; got != base.AnchoredBuilds {
		t.Fatalf("alphabet growth rebuilt %d anchored graphs, want all %d", got, base.AnchoredBuilds)
	}
	// The default statement's ".*" graph plus the new statement's.
	if got := st.GraphBuilds - base.GraphBuilds; got != base.GraphBuilds+1 {
		t.Fatalf("alphabet growth built %d minimized graphs, want %d", got, base.GraphBuilds+1)
	}
	if got := st.TreeBuilds - base.TreeBuilds; got < base.TreeBuilds {
		t.Fatalf("alphabet growth rebuilt %d sink trees, want at least %d", got, base.TreeBuilds)
	}
	want := &Policy{Statements: append(append([]Statement(nil), pol.Statements...), ghost.Statements...), Formula: pol.Formula}
	sameCompiled(t, "new-location", c.Result(), want, FatTree(k, Gbps), nil, Options{})
}

// TestSharedAnchoredGraph: two guaranteed statements with the same path
// expression and endpoints cost one anchored build, and compile exactly as
// a fresh Compile does.
func TestSharedAnchoredGraph(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	src := fmt.Sprintf(`
[ web : (eth.src = %[1]s and eth.dst = %[2]s and tcp.dst = 80) -> %[3]s at min(10MB/s)
  ssh : (eth.src = %[1]s and eth.dst = %[2]s and tcp.dst = 22) -> %[3]s at min(5MB/s) ]`,
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4))
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	res, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AnchoredBuilds != 1 {
		t.Fatalf("AnchoredBuilds = %d, want 1 shared graph", st.AnchoredBuilds)
	}
	if !reflect.DeepEqual(res.Paths["web"], res.Paths["ssh"]) {
		t.Fatalf("paths differ on one graph: %v vs %v", res.Paths["web"], res.Paths["ssh"])
	}
	sameCompiled(t, "shared-anchored", res, pol, Ring(8, 1, 100*MBps), nil, opts)
}

// TestHubProposalOverTableBudget: Options.TableBudgets is the one budget
// override, and it reaches negotiation through the bound compiler — a
// proposal whose compiled tables overflow a device's budget is rejected
// through the hub's commit hook with *TableOverflowError, and the hub's
// policy is unchanged.
func TestHubProposalOverTableBudget(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := hubRingPolicy(t, tp, "at max(40MB/s)")
	res, err := Compile(pol, tp, nil, Options{NoDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := codegen.ExpandProgram(tp, res.IR, ternary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := tables.PerDevice[tp.MustLookup("s0")]
	if budget == 0 {
		t.Fatal("base policy puts no entries on s0")
	}

	hub, err := NewHub(pol, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true, TableBudgets: map[string]int{"s0": budget}})
	if _, err := c.Compile(hub.Policy()); err != nil {
		t.Fatalf("base policy over its own budget: %v", err)
	}
	c.WatchHub(hub, nil)
	if err := hub.AddShard("left", 100*MBps); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("tenant-a", "left", []string{"a0"}, AIMDState{}); err != nil {
		t.Fatal(err)
	}
	before := hub.Policy()

	split, err := ParsePolicy(fmt.Sprintf(`
[ p : (eth.src = %[1]s and eth.dst = %[2]s and tcp.dst = 80) -> %[3]s at max(15MB/s)
  q : (eth.src = %[1]s and eth.dst = %[2]s and tcp.dst != 80) -> %[3]s at max(25MB/s) ]`,
		ringMAC(tp, "h0_0"), ringMAC(tp, "h3_0"), ringArc(0, 4)), tp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hub.Propose("tenant-a", split)
	var of *TableOverflowError
	if !errors.As(err, &of) {
		t.Fatalf("want *TableOverflowError, got %v", err)
	}
	if len(of.Overflows) != 1 || of.Overflows[0].Name != "s0" || of.Overflows[0].Budget != budget {
		t.Fatalf("overflows = %+v", of.Overflows)
	}
	if got := hub.Policy(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected proposal changed the hub policy: %v", got.Statements)
	}
	if st := hub.Stats(); st.ProposalsAccepted != 0 {
		t.Fatalf("over-budget proposal counted as accepted: %+v", st)
	}
}
