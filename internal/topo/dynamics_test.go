package topo

import (
	"reflect"
	"testing"
)

// square builds a 4-switch ring with one host on s0 and one on s2.
func square() (*Topology, []NodeID) {
	t := New()
	s := []NodeID{t.AddSwitch("s0"), t.AddSwitch("s1"), t.AddSwitch("s2"), t.AddSwitch("s3")}
	t.AddLink(s[0], s[1], Gbps)
	t.AddLink(s[1], s[2], Gbps)
	t.AddLink(s[2], s[3], Gbps)
	t.AddLink(s[3], s[0], Gbps)
	h0 := t.AddHost("h0")
	h2 := t.AddHost("h2")
	t.AddLink(s[0], h0, Gbps)
	t.AddLink(s[2], h2, Gbps)
	return t, append(s, h0, h2)
}

func TestLinkDownReroutesAndRestores(t *testing.T) {
	tp, n := square()
	h0, h2 := n[4], n[5]
	orig := tp.ShortestPath(h0, h2)
	if len(orig) != 5 {
		t.Fatalf("expected 4-hop path, got %v", orig)
	}
	// Snapshot adjacency to verify byte-identical restoration.
	var outBefore [][]LinkID
	for i := range tp.nodes {
		outBefore = append(outBefore, append([]LinkID(nil), tp.Out(NodeID(i))...))
	}

	// Fail the link the shortest path rides (s0-s1 or s0-s3).
	im, err := tp.SetLinkState(orig[1], orig[2], false)
	if err != nil {
		t.Fatal(err)
	}
	if !im.ConnectivityChanged || len(im.Cables) != 1 {
		t.Fatalf("unexpected impact: %+v", im)
	}
	for _, l := range []LinkID{im.Cables[0], tp.Link(im.Cables[0]).Reverse} {
		if tp.LinkIsUp(l) {
			t.Fatalf("link %d still up after failure", l)
		}
	}
	rerouted := tp.ShortestPath(h0, h2)
	if len(rerouted) != 5 {
		t.Fatalf("expected rerouted 4-hop path around the ring, got %v", rerouted)
	}
	if reflect.DeepEqual(orig, rerouted) {
		t.Fatalf("path did not change after failing a link on it: %v", rerouted)
	}

	// Restore and verify the adjacency is byte-identical to the original.
	if _, err := tp.SetLinkState(orig[1], orig[2], true); err != nil {
		t.Fatal(err)
	}
	for i := range tp.nodes {
		if !reflect.DeepEqual(outBefore[i], tp.Out(NodeID(i))) {
			t.Fatalf("node %d adjacency not restored: %v != %v", i, tp.Out(NodeID(i)), outBefore[i])
		}
	}
	if !reflect.DeepEqual(orig, tp.ShortestPath(h0, h2)) {
		t.Fatalf("restored path differs from original")
	}
}

func TestLinkDownDetachesHost(t *testing.T) {
	tp, n := square()
	s0, h0 := n[0], n[4]
	im, err := tp.SetLinkState(s0, h0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !im.ConnectivityChanged || len(im.Cables) != 1 {
		t.Fatalf("unexpected impact: %+v", im)
	}
	if len(tp.Out(h0)) != 0 || len(tp.In(h0)) != 0 {
		t.Fatal("detached host still has live adjacency")
	}
	if _, err := tp.SetLinkState(s0, h0, true); err != nil {
		t.Fatal(err)
	}
	if len(tp.Out(h0)) != 1 || len(tp.In(h0)) != 1 {
		t.Fatal("restored host has no live adjacency")
	}
}

func TestSwitchDownTakesIncidentCables(t *testing.T) {
	tp, n := square()
	s1 := n[1]
	im, err := tp.SetNodeState(s1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Cables) != 2 {
		t.Fatalf("s1 has 2 incident cables, impact reported %v", im.Cables)
	}
	if tp.NodeIsUp(s1) {
		t.Fatal("s1 still up")
	}
	if len(tp.Out(s1)) != 0 || len(tp.In(s1)) != 0 {
		t.Fatal("down switch still has live adjacency")
	}
	// h0 -> h2 must route around the other side of the ring.
	p := tp.ShortestPath(n[4], n[5])
	for _, v := range p {
		if v == s1 {
			t.Fatalf("path %v crosses the down switch", p)
		}
	}
	if len(p) == 0 {
		t.Fatal("no path after single switch failure in a ring")
	}

	// Failing a link whose endpoint switch is already down records the
	// flag but reports no connectivity change — nothing became newly
	// unreachable, so consumers must not invalidate anything.
	im, err = tp.SetLinkState(n[1], n[2], false)
	if err != nil {
		t.Fatal(err)
	}
	if im.ConnectivityChanged || len(im.Cables) != 0 {
		t.Fatalf("failing an already-dead cable reported impact %+v", im)
	}
	im, err = tp.SetNodeState(s1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Cables) != 1 {
		t.Fatalf("only the s0-s1 cable should restore with s1, got %v", im.Cables)
	}
	if l, ok := tp.FindLink(n[1], n[2]); ok {
		t.Fatalf("independently failed link %d resurrected by switch recovery", l.ID)
	}
	if _, ok := tp.FindLink(n[0], n[1]); !ok {
		t.Fatal("s0-s1 should be live again after switch recovery")
	}
}

func TestSetCableCapacity(t *testing.T) {
	tp, n := square()
	im, err := tp.SetCableCapacity(n[0], n[1], 500*Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if im.ConnectivityChanged {
		t.Fatal("capacity change must not report connectivity change")
	}
	if len(im.Cables) != 1 {
		t.Fatalf("impact cables = %v", im.Cables)
	}
	l, ok := tp.FindLink(n[0], n[1])
	if !ok || l.Capacity != 500*Mbps {
		t.Fatalf("forward capacity not applied: %+v", l)
	}
	r, ok := tp.FindLink(n[1], n[0])
	if !ok || r.Capacity != 500*Mbps {
		t.Fatalf("reverse capacity not applied: %+v", r)
	}
	// Same value again: no-op impact.
	im, err = tp.SetCableCapacity(n[0], n[1], 500*Mbps)
	if err != nil || len(im.Cables) != 0 {
		t.Fatalf("expected no-op, got %+v, %v", im, err)
	}
	if _, err := tp.SetCableCapacity(n[0], n[1], 0); err == nil {
		t.Fatal("zero capacity must be rejected")
	}
	if _, err := tp.SetCableCapacity(n[0], n[2], Gbps); err == nil {
		t.Fatal("expected error for nonexistent link")
	}
}

func TestMutatorsAreIdempotent(t *testing.T) {
	tp, n := square()
	if _, err := tp.SetLinkState(n[0], n[1], false); err != nil {
		t.Fatal(err)
	}
	im, err := tp.SetLinkState(n[0], n[1], false)
	if err != nil || im.ConnectivityChanged {
		t.Fatalf("repeated failure should be a no-op, got %+v, %v", im, err)
	}
	im, err = tp.SetNodeState(n[2], true)
	if err != nil || im.ConnectivityChanged {
		t.Fatalf("restoring an up node should be a no-op, got %+v, %v", im, err)
	}
}

// TestFullFabricAdjacencyIgnoresFailures: LinksFrom and LinksInto list
// every link, live or down, in link-ID order — the filter of Links by
// source and by destination — before and after link and switch failures
// and a link added while they last, while Out and In drop the failed ones.
func TestFullFabricAdjacencyIgnoresFailures(t *testing.T) {
	tp := FatTree(4, Gbps)
	check := func(stage string) {
		t.Helper()
		for _, n := range tp.Nodes() {
			var from, into []LinkID
			for _, l := range tp.Links() {
				if l.Src == n.ID {
					from = append(from, l.ID)
				}
				if l.Dst == n.ID {
					into = append(into, l.ID)
				}
			}
			if !reflect.DeepEqual(tp.LinksFrom(n.ID), from) {
				t.Fatalf("%s: LinksFrom(%s) = %v, want %v", stage, n.Name, tp.LinksFrom(n.ID), from)
			}
			if !reflect.DeepEqual(tp.LinksInto(n.ID), into) {
				t.Fatalf("%s: LinksInto(%s) = %v, want %v", stage, n.Name, tp.LinksInto(n.ID), into)
			}
		}
	}
	check("healthy")
	if _, err := tp.SetLinkState(tp.MustLookup("agg0_0"), tp.MustLookup("edge0_0"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.SetNodeState(tp.MustLookup("core0"), false); err != nil {
		t.Fatal(err)
	}
	core := tp.MustLookup("core0")
	if len(tp.Out(core)) != 0 || len(tp.LinksFrom(core)) == 0 {
		t.Fatalf("core0 down: %d live and %d full-fabric links out", len(tp.Out(core)), len(tp.LinksFrom(core)))
	}
	check("degraded")
	tp.AddLink(tp.AddSwitch("late"), core, Gbps)
	check("grown while degraded")
	if _, err := tp.SetNodeState(core, true); err != nil {
		t.Fatal(err)
	}
	check("recovered")
}
