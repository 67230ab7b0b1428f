package merlin

import (
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/openflow"
	"merlin/internal/packet"
	"merlin/internal/topo"
)

// paperPolicy instantiates the §2 running example on the Fig. 2 topology,
// with MACs resolved from the topology's identity table.
func paperPolicy(t *testing.T, tp *Topology) *Policy {
	t.Helper()
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .* dpi .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 21) -> .*
  z : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 10MB/s)
`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestCompilePaperExample(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	res, err := Compile(pol, tp, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// z is guaranteed: it has a provisioned path through m1 (nat).
	path, ok := res.Paths["z"]
	if !ok {
		t.Fatal("no path for z")
	}
	sawM1 := false
	for _, n := range path {
		if n == "m1" {
			sawM1 = true
		}
	}
	if !sawM1 {
		t.Fatalf("z path avoids m1: %v", path)
	}
	var natAt string
	for _, pl := range res.Placements["z"] {
		if pl.Fn == "nat" {
			natAt = pl.Location
		}
	}
	if natAt != "m1" {
		t.Fatalf("nat placed at %q", natAt)
	}
	// Localization: max(x+y, 50MB/s) split equally.
	if res.Allocations["x"].Max != 25*MBps || res.Allocations["y"].Max != 25*MBps {
		t.Fatalf("localization wrong: %+v", res.Allocations)
	}
	// Caps produce tc commands and interpreter programs.
	c := res.Counts()
	if c.TC == 0 {
		t.Error("no tc commands for the caps")
	}
	if len(builtin[codegen.HostArtifact](res, codegen.TargetHost).Programs) == 0 {
		t.Error("no end-host programs for the caps")
	}
	// Guarantees produce queues.
	if c.Queues == 0 {
		t.Error("no queues for the guarantee")
	}
	// The default statement was added for totality.
	if _, ok := res.Policy.Statement("default"); !ok {
		t.Error("no default statement")
	}
	if c.OpenFlow == 0 {
		t.Error("no OpenFlow rules")
	}
}

// End-to-end: compile, install on the simulated dataplane, inject packets,
// verify the policy's routing decisions.
func TestCompileEndToEndDataplane(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"m1"}, "nat": {"m1"}}
	res, err := Compile(pol, tp, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	net := openflow.NewNetwork(tp)
	net.Install(builtin[codegen.OpenFlowArtifact](res, codegen.TargetOpenFlow).Rules)
	net.AddMiddleboxFunction(tp.MustLookup("m1"), openflow.Identity)
	ids := tp.Identities()
	h1 := tp.MustLookup("h1")
	h2 := tp.MustLookup("h2")
	i1, _ := ids.Of(h1)
	i2, _ := ids.Of(h2)

	mustDeliver := func(dstPort uint16, wantMbox bool) {
		t.Helper()
		pkt := packet.TCPPacket(i1.MAC, i2.MAC, i1.IP, i2.IP, 5555, dstPort, nil)
		tr := net.Inject(h1, pkt)
		if !tr.Delivered || tr.DeliveredTo != h2 {
			t.Fatalf("port %d: not delivered: %s (%v)", dstPort, tr.Dropped, tr.HopNames(tp))
		}
		saw := false
		for _, n := range tr.HopNames(tp) {
			if n == "m1" {
				saw = true
			}
		}
		if saw != wantMbox {
			t.Fatalf("port %d: middlebox visit = %v, want %v (%v)", dstPort, saw, wantMbox, tr.HopNames(tp))
		}
	}
	mustDeliver(20, true)   // x: FTP data through dpi
	mustDeliver(21, false)  // y: FTP control direct
	mustDeliver(80, true)   // z: HTTP through dpi+nat
	mustDeliver(443, false) // default: best-effort direct
}

func TestCompileAllPairs(t *testing.T) {
	tp := FatTree(4, Gbps)
	pol, err := ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 16*15 {
		t.Fatalf("statements = %d", len(pol.Statements))
	}
	res, err := Compile(pol, tp, nil, Options{NoDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the dataplane.
	net := openflow.NewNetwork(tp)
	net.Install(builtin[codegen.OpenFlowArtifact](res, codegen.TargetOpenFlow).Rules)
	ids := tp.Identities()
	hosts := tp.Hosts()
	for i := 0; i < 6; i++ {
		src, dst := hosts[i], hosts[(i*3+7)%len(hosts)]
		if src == dst {
			continue
		}
		si, _ := ids.Of(src)
		di, _ := ids.Of(dst)
		tr := net.Inject(src, packet.TCPPacket(si.MAC, di.MAC, si.IP, di.IP, 1, 80, nil))
		if !tr.Delivered || tr.DeliveredTo != dst {
			t.Fatalf("%s→%s: %s (%v)", si.Name, di.Name, tr.Dropped, tr.HopNames(tp))
		}
	}
	if res.Timing.Rateless == 0 {
		t.Error("rateless timing not recorded")
	}
}

func TestCompileGuaranteeNeedsUniqueEndpoints(t *testing.T) {
	tp := Linear(2, Gbps)
	pol, err := ParsePolicy(`[ g : ip.proto = 6 -> .* ], min(g, 1MB/s)`, tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(pol, tp, nil, Options{}); err == nil {
		t.Fatal("guarantee without unique endpoints accepted")
	}
}

func TestCompileUnplaceableFunction(t *testing.T) {
	tp := Linear(2, Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + `) -> .* scrub .* ]`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	// No placement for "scrub": the path constraint is unsatisfiable.
	if _, err := Compile(pol, tp, nil, Options{NoDefault: true}); err == nil {
		t.Fatal("unplaceable function accepted")
	}
}

func TestHeuristicsDifferOnTwoPath(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ a : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 1) -> .*
  b : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 2) -> .* ],
min(a, 50MB/s) and min(b, 50MB/s)
`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	hops := func(h Heuristic) (int, int) {
		res, err := Compile(pol, tp, nil, Options{Heuristic: h, NoDefault: true})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Paths["a"]) - 1, len(res.Paths["b"]) - 1
	}
	wa, wb := hops(WeightedShortestPath)
	if wa != 2 || wb != 2 {
		t.Errorf("WSP hops = %d,%d, want 2,2", wa, wb)
	}
	ra, rb := hops(MinMaxRatio)
	if ra != 3 || rb != 3 {
		t.Errorf("MinMaxRatio hops = %d,%d, want 3,3", ra, rb)
	}
	ma, mb := hops(MinMaxReserved)
	if (ma == 2) == (mb == 2) {
		t.Errorf("MinMaxReserved hops = %d,%d, want one per path", ma, mb)
	}
}

func TestStanfordBaselineCompiles(t *testing.T) {
	tp := Stanford(24, 1, Gbps)
	pol, err := ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(pol, tp, nil, Options{NoDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if c.OpenFlow == 0 {
		t.Fatal("no rules")
	}
	t.Logf("stanford baseline: %d OpenFlow rules", c.OpenFlow)
}

func TestDescribePath(t *testing.T) {
	if DescribePath([]string{"a", "b"}) != "a → b" {
		t.Fatal("DescribePath wrong")
	}
	_ = topo.Gbps
}
