package merlin

import (
	"reflect"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/p4"
	"merlin/internal/topo"
)

// p4Targets is the default backend set plus the bundled P4 target.
func p4Targets() []string { return append(DefaultTargets(), p4.Name) }

// TestCompileTargetsIncludeP4 proves the backend seam: adding "p4" to
// Options.Targets emits P4 table entries from the same lowered IR while
// leaving the default aggregate output byte-identical to a default-target
// compile.
func TestCompileTargetsIncludeP4(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}

	def, err := Compile(pol, tp, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(pol, tp, place, Options{Targets: p4Targets()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(res), renderResult(def); got != want {
		t.Fatalf("adding the p4 target perturbed the default output\n%s", firstDiff(want, got))
	}
	if res.IR == nil || len(res.IR.Rules) == 0 {
		t.Fatal("result carries no lowered IR")
	}
	if len(res.Outputs) != len(p4Targets()) {
		t.Fatalf("got %d artifacts, want %d", len(res.Outputs), len(p4Targets()))
	}
	art, ok := res.Outputs[p4.Name].(*p4.Artifact)
	if !ok {
		t.Fatalf("p4 artifact missing or mistyped: %T", res.Outputs[p4.Name])
	}
	if art.Count() == 0 {
		t.Fatal("p4 backend emitted no table entries")
	}
	// One table entry per IR rule plus one per queue reservation, every
	// one placed on a switch.
	if want := len(res.IR.Rules) + len(res.IR.Queues); art.Count() != want {
		t.Fatalf("p4 emitted %d entries, want %d (rules+queues)", art.Count(), want)
	}
	for _, e := range art.TableEntries {
		if tp.Node(e.Device).Kind != topo.Switch {
			t.Fatalf("p4 entry on non-switch node %d: %s", e.Device, e)
		}
	}
}

// TestCompileUnknownTargetErrors asserts target validation names the
// registry contents.
func TestCompileUnknownTargetErrors(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	_, err := Compile(pol, tp, place, Options{Targets: []string{"openflow", "ebpf"}})
	if err == nil || !strings.Contains(err.Error(), `unknown codegen target "ebpf"`) {
		t.Fatalf("unknown target not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "p4") {
		t.Fatalf("error does not list registered backends: %v", err)
	}
}

// TestCompileTargetSubset asserts target selection is real: compiling
// only the openflow backend leaves the host-side sections empty while the
// rules match a default compile exactly.
func TestCompileTargetSubset(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	def, err := Compile(pol, tp, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(pol, tp, place, Options{Targets: []string{codegen.TargetOpenFlow}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("subset compile emitted %d artifacts, want 1", len(res.Outputs))
	}
	if c := res.Counts(); c.TC != 0 || c.IPTables != 0 || c.Click != 0 {
		t.Fatalf("untargeted sections populated: %+v", c)
	}
	if !reflect.DeepEqual(res.Outputs[codegen.TargetOpenFlow], def.Outputs[codegen.TargetOpenFlow]) {
		t.Fatal("openflow artifact differs from default compile")
	}
}

// TestCapsOnlyPatchSharesP4Artifact covers per-backend routing of the
// caps-only patch path: a formula-only cap change re-emits just the tc
// and host backends; the P4 artifact is shared by pointer with the
// previous result, so its diff is empty without rendering a single
// entry.
func TestCapsOnlyPatchSharesP4Artifact(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	c := NewCompiler(tp, place, Options{Targets: p4Targets()})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	diff, err := c.Update(Delta{Formula: capFormula(40*MBps, 10*MBps)})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PatchedCodegens != base.PatchedCodegens+1 {
		t.Fatalf("cap change did not take the patch path: %+v", st)
	}
	if in, rm := diff.Counts(); in.TC == 0 || rm.TC == 0 {
		t.Fatalf("cap change produced no tc delta: %+v", diff)
	}
	pd, ok := diff.Backends[p4.Name]
	if !ok {
		t.Fatal("diff carries no p4 section")
	}
	if !pd.Empty() {
		t.Fatalf("caps-only change produced a p4 delta: %+v", pd)
	}
	if c.Result().Outputs[p4.Name] != first.Outputs[p4.Name] {
		t.Fatal("p4 artifact was re-emitted on the caps-only patch path")
	}
}

// TestApplyTopoRoutesP4Diff covers per-backend routing of topology
// reroutes: a link failure that moves a guaranteed path must surface as
// both an OpenFlow rule delta and a P4 table-entry delta, and the diff's
// Empty accessor must see the P4 section.
func TestApplyTopoRoutesP4Diff(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{NoDefault: true, Targets: p4Targets()})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])
	diff, err := c.ApplyTopo(LinkFailure(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if in, rm := diff.Counts(); in.OpenFlow == 0 || rm.OpenFlow == 0 {
		t.Fatalf("reroute produced no OpenFlow delta: install %+v remove %+v", in, rm)
	}
	pd, ok := diff.Backends[p4.Name]
	if !ok || pd.Empty() {
		t.Fatalf("reroute produced no p4 delta: %+v", pd)
	}
	if diff.Empty() {
		t.Fatal("non-empty reroute reported Empty")
	}
}

// TestCapsLowerToOneTCCommandPerPair: the compiler fills Program.Caps (Lower
// leaves them to it), one per (destination, source) pair of a capped
// best-effort statement, and the tc backend renders each as one command
// at the source host.
func TestCapsLowerToOneTCCommandPerPair(t *testing.T) {
	tp := Linear(2, Gbps)
	pol, err := ParsePolicy("[ capped : (eth.src = h1 and eth.dst = h2) -> .* ], max(capped, 50MB/s)", tp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(pol, tp, nil, Options{NoDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	h1 := tp.MustLookup("h1")
	if want := []codegen.CapSpec{{Host: h1, Stmt: "capped", MaxBps: 50 * MBps}}; !reflect.DeepEqual(res.IR.Caps, want) {
		t.Fatalf("IR caps %+v, want %+v", res.IR.Caps, want)
	}
	out := res.Outputs[codegen.TargetTC].(*codegen.TCArtifact)
	if len(out.TC) != 1 {
		t.Fatalf("tc commands = %d, want 1", len(out.TC))
	}
	if out.TC[0].Host != h1 {
		t.Error("cap installed at wrong host")
	}
}
