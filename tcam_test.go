package merlin

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"merlin/internal/tcam"
	"merlin/internal/topo"
)

// tcamTargets is the default backend set plus the bundled tcam target.
func tcamTargets() []string { return append(DefaultTargets(), tcam.Name) }

// twoPathHostPred renders the h1→h2 classification predicate source for
// the TwoPath topology.
func twoPathHostPred(t *testing.T, tp *Topology) string {
	t.Helper()
	ids := tp.Identities()
	a, _ := ids.Of(tp.MustLookup("h1"))
	b, _ := ids.Of(tp.MustLookup("h2"))
	return fmt.Sprintf("eth.src = %s and eth.dst = %s", a.MAC, b.MAC)
}

// TestCompileTargetsIncludeTcam proves the v2 seam end-to-end: adding
// "tcam" to Options.Targets emits expanded ternary CLI lines from the
// same lowered IR while leaving the default aggregate output
// byte-identical to a default-target compile.
func TestCompileTargetsIncludeTcam(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}

	def, err := Compile(pol, tp, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(pol, tp, place, Options{Targets: tcamTargets()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(res), renderResult(def); got != want {
		t.Fatalf("adding the tcam target perturbed the default output\n%s", firstDiff(want, got))
	}
	art, ok := res.Outputs[tcam.Name].(*tcam.Artifact)
	if !ok || art.Count() == 0 {
		t.Fatalf("tcam artifact missing or empty: %T", res.Outputs[tcam.Name])
	}
	for _, e := range art.Lines {
		if tp.Node(e.Device).Kind != topo.Switch {
			t.Fatalf("tcam line on non-switch node %d: %s", e.Device, e.Text)
		}
	}
}

// TestCapsOnlyPatchSharesTcamArtifact covers the incremental fast path
// through the v2 seam: a formula-only cap change re-emits just the tc
// and host backends; the tcam artifact is shared by pointer with the
// previous result, so its diff is empty without re-expanding a single
// ternary row.
func TestCapsOnlyPatchSharesTcamArtifact(t *testing.T) {
	tp := Example(Gbps)
	pol := paperPolicy(t, tp)
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	c := NewCompiler(tp, place, Options{Targets: tcamTargets()})
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
	td, ok := diff.Backends[tcam.Name]
	if !ok {
		t.Fatal("diff carries no tcam section")
	}
	if !td.Empty() {
		t.Fatalf("caps-only change produced a tcam delta: %+v", td)
	}
	if c.Result().Outputs[tcam.Name] != first.Outputs[tcam.Name] {
		t.Fatal("tcam artifact was re-emitted on the caps-only patch path")
	}
}

// TestApplyTopoRoutesTcamDiff covers reroute routing through the v2
// seam: a link failure moving a guaranteed path must surface as a tcam
// CLI delta in Diff.Backends alongside the OpenFlow one.
func TestApplyTopoRoutesTcamDiff(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{NoDefault: true, Targets: tcamTargets()})
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
		t.Fatal("reroute produced no OpenFlow delta")
	}
	td, ok := diff.Backends[tcam.Name]
	if !ok || td.Empty() {
		t.Fatalf("reroute produced no tcam delta: %+v", td)
	}
}

// TestTableBudgetReject: when the overflowing traffic is best-effort —
// there is no guaranteed placement the MIP could move — the compiler
// must reject with the typed overflow error naming the device.
func TestTableBudgetReject(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	src := "p : (" + twoPathHostPred(t, tp) + ") -> .*"
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(pol, tp, nil, Options{
		NoDefault:    true,
		Targets:      tcamTargets(),
		TableBudgets: map[string]int{"r1": 0, "l1": 0, "l2": 0},
	})
	var of *TableOverflowError
	if !errors.As(err, &of) {
		t.Fatalf("expected *TableOverflowError, got %v", err)
	}
	if len(of.Overflows) == 0 {
		t.Fatal("overflow error names no devices")
	}
	for _, o := range of.Overflows {
		if o.Budget != 0 || o.Entries <= 0 || o.Name == "" {
			t.Fatalf("bad overflow record: %+v", o)
		}
	}
}

// TestTableBudgetRejectInfeasible: a guarantee whose every possible path
// crosses a zero-budget switch cannot be re-placed; the original typed
// error must surface.
func TestTableBudgetRejectInfeasible(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	src := "g : (" + twoPathHostPred(t, tp) + ") -> .* at min(50MB/s)"
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{
		NoDefault:    true,
		Targets:      tcamTargets(),
		TableBudgets: map[string]int{"r1": 0, "l1": 0, "l2": 0},
	})
	_, err = c.Compile(pol)
	var of *TableOverflowError
	if !errors.As(err, &of) {
		t.Fatalf("expected *TableOverflowError, got %v", err)
	}
	if st := c.Stats(); st.OverflowReplacements != 0 {
		t.Fatalf("infeasible re-place counted as a replacement: %+v", st)
	}
}

// TestTableBudgetReplacement: a guarantee initially placed on the
// narrow path overflows the zero-budget switch there; the compiler must
// re-place it through the MIP with the budget as a placement constraint
// and succeed via the wide path.
func TestTableBudgetReplacement(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	src := "g : (" + twoPathHostPred(t, tp) + ") -> .* at min(50MB/s)"
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: weighted-shortest-path picks the 2-hop path through r1.
	base, err := Compile(pol, tp, nil, Options{NoDefault: true, Targets: tcamTargets()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(base.Paths["g"], " "), "r1") {
		t.Fatalf("baseline path avoids r1 already: %v", base.Paths["g"])
	}

	c := NewCompiler(tp, nil, Options{
		NoDefault:    true,
		Targets:      tcamTargets(),
		TableBudgets: map[string]int{"r1": 0},
	})
	res, err := c.Compile(pol)
	if err != nil {
		t.Fatalf("budget-constrained compile failed: %v", err)
	}
	path := strings.Join(res.Paths["g"], " ")
	if strings.Contains(path, "r1") {
		t.Fatalf("re-placed path still crosses the zero-budget switch: %v", res.Paths["g"])
	}
	if st := c.Stats(); st.OverflowReplacements != 1 {
		t.Fatalf("OverflowReplacements = %d, want 1 (%+v)", st.OverflowReplacements, st)
	}
	// The tcam artifact must hold no entries on r1.
	art := c.Result().Outputs[tcam.Name].(*tcam.Artifact)
	r1 := tp.MustLookup("r1")
	if n := art.PerDevice[r1]; n != 0 {
		t.Fatalf("%d tcam entries on the zero-budget switch", n)
	}
}

// TestTableBudgetsEnforcedWithoutTernaryTarget: Options.TableBudgets is
// a compiler-level constraint — it must hold even when no v2 backend is
// targeted (the expansion runs for the check alone).
func TestTableBudgetsEnforcedWithoutTernaryTarget(t *testing.T) {
	tp := TwoPath(400*MBps, 100*MBps)
	src := "p : (" + twoPathHostPred(t, tp) + ") -> .*"
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(pol, tp, nil, Options{
		NoDefault:    true,
		TableBudgets: map[string]int{"r1": 0, "l1": 0, "l2": 0},
	})
	var of *TableOverflowError
	if !errors.As(err, &of) {
		t.Fatalf("expected *TableOverflowError without a ternary target, got %v", err)
	}
}

// renderTcam dumps a tcam artifact deterministically, device names
// resolved, for the golden lock.
func renderTcam(tp *Topology, art *tcam.Artifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== tcam (%d)\n", art.Count())
	for _, e := range art.Lines {
		fmt.Fprintf(&sb, "dev=%s %s\n", tp.Node(e.Device).Name, e.Text)
	}
	return sb.String()
}

// TestGoldenTcam locks the tcam backend's rendered CLI output for the
// example workloads byte-for-byte, exactly as the built-in backends are
// locked by TestGoldenBackendParity. Regenerate with -update.
func TestGoldenTcam(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		if sc.name == "delegation" {
			// The delegation scenario's negated drop predicates expand the
			// same way quickstart's do; the three locked workloads cover
			// classification, guarantees, and middlebox waypoints.
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			pol, tp, place, opts := sc.build(t)
			opts.Targets = []string{tcam.Name}
			res, err := Compile(pol, tp, place, opts)
			if err != nil {
				t.Fatal(err)
			}
			art, ok := res.Outputs[tcam.Name].(*tcam.Artifact)
			if !ok {
				t.Fatalf("tcam artifact missing: %T", res.Outputs[tcam.Name])
			}
			got := renderTcam(tp, art)
			path := filepath.Join("testdata", "golden", "tcam-"+sc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s: tcam output diverged from golden\n%s", sc.name, firstDiff(string(want), got))
			}
		})
	}
}
