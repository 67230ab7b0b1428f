package codegen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/openflow"
	"merlin/internal/packet"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/regex"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// pairPred builds the (eth.src, eth.dst) predicate for two hosts.
func pairPred(t *testing.T, tp *topo.Topology, src, dst topo.NodeID) pred.Pred {
	t.Helper()
	ids := tp.Identities()
	si, _ := ids.Of(src)
	di, _ := ids.Of(dst)
	return pred.Conj(
		pred.Test{Field: "eth.src", Value: si.MAC},
		pred.Test{Field: "eth.dst", Value: di.MAC},
	)
}

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

// builtins holds the openflow, tc and click artifacts emitted from one
// plan set; embedding promotes their sections (out.Rules, out.TC, ...).
type builtins struct {
	*OpenFlowArtifact
	*TCArtifact
	*ClickArtifact
}

// emitBuiltins lowers plans to the IR and emits the openflow, tc and click
// backends from it.
func emitBuiltins(t *testing.T, tp *topo.Topology, plans []Plan) *builtins {
	t.Helper()
	prog, err := Lower(tp, plans)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(b Backend) Artifact {
		art, err := b.Emit(tp, prog)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	return &builtins{
		OpenFlowArtifact: emit(openflowBackend{}).(*OpenFlowArtifact),
		TCArtifact:       emit(tcBackend{}).(*TCArtifact),
		ClickArtifact:    emit(clickBackend{}).(*ClickArtifact),
	}
}

// inject sends a TCP packet between two hosts through the compiled rules.
func inject(t *testing.T, tp *topo.Topology, out *builtins, src, dst topo.NodeID, dstPort uint16) openflow.Trace {
	t.Helper()
	net := openflow.NewNetwork(tp)
	net.Install(out.Rules)
	for _, mb := range tp.Middleboxes() {
		net.AddMiddleboxFunction(mb, openflow.Identity)
	}
	ids := tp.Identities()
	si, _ := ids.Of(src)
	di, _ := ids.Of(dst)
	pkt := packet.TCPPacket(si.MAC, di.MAC, si.IP, di.IP, 12345, dstPort, []byte("x"))
	return net.Inject(src, pkt)
}

func TestBestEffortTreeForwarding(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	g := graphFor(t, tp, ".*", nil)
	tree, err := sinktree.TreeTo(g, h2)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{{
		ID: "a", Predicate: pairPred(t, tp, h1, h2), Priority: 10,
		Alloc: policy.Unconstrained, Classify: ByDestination,
		SrcHost: h1, DstHost: h2, Tree: tree,
	}}
	out := emitBuiltins(t, tp, plans)
	tr := inject(t, tp, out, h1, h2, 80)
	if !tr.Delivered || tr.DeliveredTo != h2 {
		t.Fatalf("not delivered: %v (%v)", tr.Dropped, tr.HopNames(tp))
	}
	if tr.Final.VLAN != packet.VLANNone {
		t.Error("tag not stripped at egress")
	}
}

// TestRetagRevisitingTreeIngress lowers two plans sharing one sink tree
// whose waypoint paths revisit switches: hb's path ends x → y → h2, and
// ha's path leaves its ingress x on that same (y, in-port) with a
// different next hop, then returns through x and y. The collision is at
// ha's first forwarding hop after ingress, so the retag must move ha's own
// classification rule onto a fresh tag; both packets must then cross nat
// and dpi in order and reach h2.
func TestRetagRevisitingTreeIngress(t *testing.T) {
	tp := topo.New()
	x, y := tp.AddSwitch("x"), tp.AddSwitch("y")
	ha, hb, h2 := tp.AddHost("ha"), tp.AddHost("hb"), tp.AddHost("h2")
	m1, m0 := tp.AddMiddlebox("m1"), tp.AddMiddlebox("m0")
	tp.AddLink(ha, x, topo.Gbps)
	tp.AddLink(x, y, topo.Gbps)
	tp.AddLink(y, h2, topo.Gbps)
	tp.AddLink(hb, y, topo.Gbps)
	tp.AddLink(y, m1, topo.Gbps)
	tp.AddLink(x, m0, topo.Gbps)
	g := graphFor(t, tp, ".* nat .* dpi .*", map[string][]string{"nat": {"m1"}, "dpi": {"m0"}})
	tree, err := sinktree.TreeTo(g, h2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[topo.NodeID]string{
		ha: "ha x y m1 y x m0 x y h2",
		hb: "hb y m1 y x m0 x y h2",
	}
	di, _ := tp.Identities().Of(h2)
	toH2 := pred.Test{Field: "eth.dst", Value: di.MAC}
	var plans []Plan
	for _, src := range []topo.NodeID{hb, ha} {
		var names []string
		for _, loc := range logical.Locations(tree.PathFromBuf(nil, src)) {
			names = append(names, tp.Node(loc).Name)
		}
		if got := strings.Join(names, " "); got != want[src] {
			t.Fatalf("tree path from %s = %s, want %s", tp.Node(src).Name, got, want[src])
		}
		plans = append(plans, Plan{
			ID: "c", Predicate: toH2, Priority: 10,
			Alloc: policy.Unconstrained, SrcHost: src, DstHost: h2, Tree: tree,
		})
	}
	out := emitBuiltins(t, tp, plans)
	for src, path := range want {
		tr := inject(t, tp, out, src, h2, 80)
		if !tr.Delivered || tr.DeliveredTo != h2 {
			t.Fatalf("%s: not delivered: %v (%v)", tp.Node(src).Name, tr.Dropped, tr.HopNames(tp))
		}
		if got := strings.Join(tr.HopNames(tp), " "); got != path {
			t.Errorf("%s: packet took %s, want %s", tp.Node(src).Name, got, path)
		}
	}
}

func TestGuaranteedPathForwardingAndQueues(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	g := graphFor(t, tp, ".*", nil)
	// Provision the path directly via shortest path (unit under test is
	// codegen, not the MIP).
	gg := graphFor(t, tp, "h1 .* h2", nil)
	hops := make([]float64, len(gg.Edges))
	for i, e := range gg.Edges {
		if e.Link >= 0 {
			hops[i] = 1
		}
	}
	steps, err := gg.DecodePath(gg.CheapestPath(hops))
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	plans := []Plan{{
		ID: "gold", Predicate: pairPred(t, tp, h1, h2), Priority: 20,
		Alloc:   policy.Alloc{Min: 100 * topo.Mbps, Max: math.Inf(1)},
		SrcHost: h1, DstHost: h2, Path: steps,
	}}
	out := emitBuiltins(t, tp, plans)
	if len(out.Queues) != 3 { // one queue per switch hop (s0,s1,s2)
		t.Fatalf("queues = %d, want 3", len(out.Queues))
	}
	for _, q := range out.Queues {
		if q.MinBps != 100*topo.Mbps {
			t.Errorf("queue rate = %v", q.MinBps)
		}
	}
	tr := inject(t, tp, out, h1, h2, 80)
	if !tr.Delivered {
		t.Fatalf("not delivered: %v (%v)", tr.Dropped, tr.HopNames(tp))
	}
}

func TestMiddleboxWaypointForwarding(t *testing.T) {
	// Fig. 2: traffic h1→h2 must detour through m1; verify the emitted
	// rules actually bounce packets via the middlebox.
	tp := topo.Example(topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	g := graphFor(t, tp, ".* dpi .*", map[string][]string{"dpi": {"m1"}})
	tree, err := sinktree.TreeTo(g, h2)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{{
		ID: "w", Predicate: pairPred(t, tp, h1, h2), Priority: 10,
		Alloc: policy.Unconstrained, SrcHost: h1, DstHost: h2, Tree: tree,
	}}
	out := emitBuiltins(t, tp, plans)
	tr := inject(t, tp, out, h1, h2, 80)
	if !tr.Delivered {
		t.Fatalf("not delivered: %v (%v)", tr.Dropped, tr.HopNames(tp))
	}
	visited := false
	for _, n := range tr.HopNames(tp) {
		if n == "m1" {
			visited = true
		}
	}
	if !visited {
		t.Fatalf("packet skipped the middlebox: %v", tr.HopNames(tp))
	}
	if len(out.Click) == 0 {
		t.Error("no Click config emitted for the dpi placement")
	}
}

func TestClassificationPriorities(t *testing.T) {
	// Two statements: web traffic via middlebox, rest direct. A web
	// packet must take the detour, an ssh packet must not.
	tp := topo.Example(topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	pair := pairPred(t, tp, h1, h2)
	web := pred.Conj(pair, pred.Test{Field: "tcp.dst", Value: "80"})

	gWeb := graphFor(t, tp, ".* dpi .*", map[string][]string{"dpi": {"m1"}})
	treeWeb, err := sinktree.TreeTo(gWeb, h2)
	if err != nil {
		t.Fatal(err)
	}
	gAll := graphFor(t, tp, ".*", nil)
	treeAll, err := sinktree.TreeTo(gAll, h2)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{
		{ID: "web", Predicate: web, Priority: 20, Alloc: policy.Unconstrained,
			SrcHost: h1, DstHost: h2, Tree: treeWeb},
		{ID: "rest", Predicate: pair, Priority: 10, Alloc: policy.Unconstrained,
			SrcHost: h1, DstHost: h2, Tree: treeAll},
	}
	out := emitBuiltins(t, tp, plans)
	webTrace := inject(t, tp, out, h1, h2, 80)
	sshTrace := inject(t, tp, out, h1, h2, 22)
	if !webTrace.Delivered || !sshTrace.Delivered {
		t.Fatalf("delivery failed: web=%v ssh=%v", webTrace.Dropped, sshTrace.Dropped)
	}
	sawMbox := func(tr openflow.Trace) bool {
		for _, n := range tr.HopNames(tp) {
			if n == "m1" {
				return true
			}
		}
		return false
	}
	if !sawMbox(webTrace) {
		t.Errorf("web packet skipped dpi: %v", webTrace.HopNames(tp))
	}
	if sawMbox(sshTrace) {
		t.Errorf("ssh packet detoured through dpi: %v", sshTrace.HopNames(tp))
	}
}

func TestClassifierExpansionSharedAcrossPlans(t *testing.T) {
	tp := topo.Star(3, 2, topo.Gbps)
	port := func(p string) pred.Pred { return pred.Test{Field: "tcp.dst", Value: p} }
	// Three cubes, two distinct: 80, 443, 80.
	web := pred.Or{L: pred.Or{L: port("80"), R: port("443")}, R: port("80")}
	alt := pred.Or{L: port("22"), R: port("443")}
	if cubes, err := pred.PositiveCubes(web); err != nil || len(cubes) != 3 {
		t.Fatalf("web cubes = %v (%v), want 3", cubes, err)
	}
	g := graphFor(t, tp, ".*", nil)
	treeFor := func(dst string) *sinktree.Tree {
		tree, err := sinktree.TreeTo(g, tp.MustLookup(dst))
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	var plans []Plan
	add := func(id string, p pred.Pred, prio int, dst string, srcs ...string) {
		tree := treeFor(dst)
		for _, src := range srcs {
			plans = append(plans, Plan{
				ID: id, Predicate: p, Priority: prio, Alloc: policy.Unconstrained,
				SrcHost: tp.MustLookup(src), DstHost: tp.MustLookup(dst), Tree: tree,
			})
		}
	}
	// Every source sits on another spoke than its destination, so each
	// classification rule sets its tree's tag. Two sources share each
	// spoke switch.
	add("web", web, 20, "h0_0", "h1_0", "h1_1", "h2_0", "h2_1")
	add("web", web, 20, "h2_0", "h0_0", "h0_1", "h1_0", "h1_1")
	add("alt", alt, 10, "h1_0", "h0_0", "h2_0")
	prog, err := Lower(tp, plans)
	if err != nil {
		t.Fatal(err)
	}

	type group struct {
		sw   topo.NodeID
		tag  int
		stmt string
	}
	got := map[group][]string{}
	for _, r := range prog.Rules {
		if r.Match.Tag != TagNone || r.Match.Pred == nil {
			continue
		}
		if r.Ops[0].Kind != OpSetTag {
			t.Fatalf("classification rule %+v does not set a tag", r)
		}
		k := group{r.Device, r.Ops[0].Tag, r.Stmt}
		got[k] = append(got[k], pred.Format(r.Match.Pred))
	}
	want := map[string][]string{
		"web": {pred.Format(port("80")), pred.Format(port("443"))},
		"alt": {pred.Format(port("22")), pred.Format(port("443"))},
	}
	// web: tree h0_0 enters at s1 and s2, tree h2_0 at s0 and s1; alt:
	// tree h1_0 enters at s0 and s2.
	groups := map[string]int{}
	for k, sels := range got {
		groups[k.stmt]++
		if !slices.Equal(sels, want[k.stmt]) {
			t.Errorf("%s at %s tag %d: selectors %q, want %q",
				k.stmt, tp.Node(k.sw).Name, k.tag, sels, want[k.stmt])
		}
	}
	if groups["web"] != 4 || groups["alt"] != 2 {
		t.Errorf("(switch, tag) groups = %v, want web:4 alt:2", groups)
	}
}

func TestTCForCaps(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	h1, h2 := tp.MustLookup("h1"), tp.MustLookup("h2")
	g := graphFor(t, tp, ".*", nil)
	tree, err := sinktree.TreeTo(g, h2)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{{
		ID: "capped", Predicate: pairPred(t, tp, h1, h2), Priority: 10,
		Alloc:   policy.Alloc{Min: 0, Max: 50 * topo.MBps},
		SrcHost: h1, DstHost: h2, Tree: tree,
	}}
	prog, err := Lower(tp, plans)
	if err != nil {
		t.Fatal(err)
	}
	// The compiler fills the host-side sections (root TestCapsLowerToOneTCCommandPerPair).
	prog.Caps = []CapSpec{{Host: h1, Stmt: "capped", MaxBps: 50 * topo.MBps}}
	art, err := tcBackend{}.Emit(tp, prog)
	if err != nil {
		t.Fatal(err)
	}
	out := art.(*TCArtifact)
	if len(out.TC) != 1 {
		t.Fatalf("tc commands = %d, want 1", len(out.TC))
	}
	if out.TC[0].Host != h1 {
		t.Error("cap installed at wrong host")
	}
}

func TestSharedTreeRulesAreDeduplicated(t *testing.T) {
	// All-pairs to one destination: rules toward the shared destination
	// must be shared, so total rules grow sub-linearly in sources.
	tp := topo.Star(4, 2, topo.Gbps) // 8 hosts
	hosts := tp.Hosts()
	dst := hosts[0]
	g := graphFor(t, tp, ".*", nil)
	tree, err := sinktree.TreeTo(g, dst)
	if err != nil {
		t.Fatal(err)
	}
	var plans []Plan
	for _, src := range hosts[1:] {
		plans = append(plans, Plan{
			ID: "to0from" + tp.Node(src).Name, Predicate: pairPred(t, tp, src, dst),
			Priority: 10, Alloc: policy.Unconstrained, Classify: ByDestination,
			SrcHost: src, DstHost: dst, Tree: tree,
		})
	}
	out := emitBuiltins(t, tp, plans)
	// ByDestination classification: one rule per ingress switch (4 at
	// most) plus shared forwarding rules — far fewer than 7 × path-length.
	if got := len(out.Rules); got > 15 {
		t.Fatalf("rules = %d, want heavy sharing (<=15)", got)
	}
	// Every source still reaches dst.
	for _, src := range hosts[1:] {
		tr := inject(t, tp, out, src, dst, 80)
		if !tr.Delivered {
			t.Fatalf("%s -> dst failed: %v", tp.Node(src).Name, tr.Dropped)
		}
	}
}

func TestAllPairsFatTreeEndToEnd(t *testing.T) {
	// Compile all-pairs connectivity on a k=4 fat tree and verify a
	// sample of host pairs deliver.
	tp := topo.FatTree(4, topo.Gbps)
	hosts := tp.Hosts()
	g := graphFor(t, tp, ".*", nil)
	trees, _, err := sinktree.BuildTrees(g, hosts, false)
	if err != nil {
		t.Fatal(err)
	}
	var plans []Plan
	prio := len(hosts) * len(hosts)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			plans = append(plans, Plan{
				ID:        tp.Node(src).Name + "-" + tp.Node(dst).Name,
				Predicate: pairPred(t, tp, src, dst),
				Priority:  prio, Alloc: policy.Unconstrained,
				Classify: ByDestination,
				SrcHost:  src, DstHost: dst, Tree: trees[dst],
			})
			prio--
		}
	}
	out := emitBuiltins(t, tp, plans)
	for i := 0; i < len(hosts); i++ {
		src := hosts[i]
		dst := hosts[(i+5)%len(hosts)]
		if src == dst {
			continue
		}
		tr := inject(t, tp, out, src, dst, 80)
		if !tr.Delivered || tr.DeliveredTo != dst {
			t.Fatalf("%s -> %s failed: %v (%v)", tp.Node(src).Name, tp.Node(dst).Name,
				tr.Dropped, tr.HopNames(tp))
		}
	}
	if len(out.Rules) == 0 || len(out.Queues)+len(out.TC)+len(out.IPTables)+len(out.Click) != 0 {
		t.Fatalf("best-effort all-pairs emitted %d rules, %d queues, %d tc, %d iptables, %d click",
			len(out.Rules), len(out.Queues), len(out.TC), len(out.IPTables), len(out.Click))
	}
}

func TestCountsTotals(t *testing.T) {
	c := Counts{OpenFlow: 3, Queues: 2, TC: 1, IPTables: 1, Click: 1}
	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
}
