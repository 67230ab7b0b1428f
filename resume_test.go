package merlin

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/topo"
)

// UndoPerKept is undoPerKept, for the package's external tests.
const UndoPerKept = undoPerKept

// loweringSize reports what the compiler's lowering state retains, (0, 0)
// without one.
func loweringSize(c *Compiler) (entries, log int) {
	if c.lowered.state == nil {
		return 0, 0
	}
	return c.lowered.state.Size()
}

// TestLoweringStateStaysBoundedUnderChurn runs 200 add/remove cycles,
// each returning to the genesis policy: one statement added and removed,
// or two added and removed oldest first. Every edit resumes the lowering
// state, and back at genesis the state must retain exactly what a fresh
// compiler's does — map entries and undo-log length — and the result
// must equal a cold compile.
func TestLoweringStateStaysBoundedUnderChurn(t *testing.T) {
	tp := topo.FatTree(4, Gbps)
	ids := tp.Identities()
	mac := func(i int) string { id, _ := ids.Of(tp.Hosts()[i]); return id.MAC }
	genesis := fmt.Sprintf(`[ g0 : (eth.src = %s and eth.dst = %s) -> .* ;
  g1 : (eth.src = %s and eth.dst = %s and tcp.dst = 22) -> .* ;
  web : tcp.dst = 80 -> .* ;
  pair : (eth.src = %s and eth.dst = %s) -> .* ;
  zall : true -> .* ], min(g0, 10Mbps) and min(g1, 20Mbps) and max(web, 50Mbps)`,
		mac(0), mac(5), mac(3), mac(12), mac(1), mac(9))
	pol, err := ParsePolicy(genesis, tp)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoDefault: true}
	fresh := NewCompiler(tp, nil, opts)
	want, err := fresh.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	wantEntries, wantLog := loweringSize(fresh)
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	update := func(w WireDelta) {
		t.Helper()
		d, err := c.DecodeDelta(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	stmt := func(id string, port int) string { return fmt.Sprintf("%s : tcp.dst = %d -> .*", id, port) }
	full := c.Stats().FullCodegens
	for cycle := 0; cycle < 200; cycle++ {
		a, b := fmt.Sprintf("a%d", cycle), fmt.Sprintf("b%d", cycle)
		if cycle%2 == 0 {
			update(WireDelta{Add: []string{stmt(a, 1000+cycle)}})
			update(WireDelta{Remove: []string{a}})
		} else {
			update(WireDelta{Add: []string{stmt(a, 1000+cycle)}})
			update(WireDelta{Add: []string{fmt.Sprintf("%s : (eth.src = %s) -> .*", b, mac(cycle%16))}})
			update(WireDelta{Remove: []string{a}})
			update(WireDelta{Remove: []string{b}})
		}
		if entries, log := loweringSize(c); entries != wantEntries || log != wantLog {
			t.Fatalf("cycle %d: back at genesis the lowering state retains %d entries and a %d-long log, a fresh compiler's %d and %d",
				cycle, entries, log, wantEntries, wantLog)
		}
	}
	st := c.Stats()
	if got := st.FullCodegens - full; got != 600 {
		t.Fatalf("the cycles took %d full codegens, want 600", got)
	}
	// Each add lowers its own statement's plans (240 for a port class,
	// 15 for one host's), a remove of the newest none, and a remove of
	// a the 15 of b after it.
	if got, want := st.PlansLowered-fresh.Stats().PlansLowered, 100*240+100*(240+15+15); got != want {
		t.Fatalf("the cycles lowered %d plans, want %d", got, want)
	}
	if got := c.Result(); !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.IR, want.IR) {
		t.Fatal("back at genesis the result differs from a cold compile")
	}
}

// TestFailedResumeKeepsResultAndStartsFresh fails an Update in the middle
// of the statements it lowers: TestTagSpaceGuard's 4,000 guarantees,
// resumed past with 100 more, run out of path tags in the 93rd. The last
// result must stand byte for byte, the lowering state must be dropped,
// and the next pass must lower every plan from a fresh state and equal a
// cold compile.
func TestFailedResumeKeepsResultAndStartsFresh(t *testing.T) {
	tp := topo.FatTree(4, Gbps)
	hosts := tp.Hosts()
	ids := tp.Identities()
	mac := func(h topo.NodeID) string { id, _ := ids.Of(h); return id.MAC }
	const n = 4100
	stmts := make([]string, n)
	terms := make([]string, n)
	for i := range stmts {
		src, dst := hosts[i%16], hosts[(i%16+1+i/16%15)%16]
		stmts[i] = fmt.Sprintf("g%d : (eth.src = %s and eth.dst = %s and tcp.dst = %d) -> .*", i, mac(src), mac(dst), 1000+i)
		terms[i] = fmt.Sprintf("min(g%d, 1Mbps)", i)
	}
	parse := func(k int) *Policy {
		pol, err := ParsePolicy("[ "+strings.Join(stmts[:k], " ;\n")+" ], "+strings.Join(terms[:k], " and "), tp)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(parse(4000))
	if err != nil {
		t.Fatal(err)
	}
	entries := func(r *Result) map[string][]codegen.Entry {
		out := map[string][]codegen.Entry{}
		for name, art := range r.Outputs {
			out[name] = art.Entries()
		}
		return out
	}
	before := entries(first)
	lowered := c.Stats().PlansLowered
	all := parse(n)
	var tse *TagSpaceError
	if _, err := c.Update(Delta{Add: all.Statements[4000:], Formula: all.Formula}); !errors.As(err, &tse) {
		t.Fatalf("update: error %v, want a TagSpaceError", err)
	}
	if got := c.Stats().PlansLowered - lowered; got != 100 {
		t.Fatalf("the failing update lowered %d plans, want the 100 added", got)
	}
	if c.Result() != first || !reflect.DeepEqual(entries(first), before) {
		t.Fatal("a failed resume changed the last result")
	}
	if c.lowered.state != nil {
		t.Fatal("a failed resume kept its lowering state")
	}
	lowered = c.Stats().PlansLowered
	next := parse(4050)
	if _, err := c.Update(Delta{Add: next.Statements[4000:], Formula: next.Formula}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PlansLowered - lowered; got != 4050 {
		t.Fatalf("the pass after a failed resume lowered %d plans, want all 4050", got)
	}
	want, err := Compile(next, tp, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Result(); !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.IR, want.IR) {
		t.Fatal("the pass after a failed resume differs from a cold compile")
	}
}

// TestLinkFailureResumesPastUnroutedStatements fails and restores a link
// on the path of the last pod's first guarantee (podPolicy: two per pod,
// pods in statement order). Neither event re-routes an earlier pod's
// statements, so each pass resumes the lowering state past them and
// lowers only the last pod's two plans, and each result equals a cold
// compile of the topology at that point.
func TestLinkFailureResumesPastUnroutedStatements(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t3g0"])
	failed := FatTree(k, Gbps)
	if _, err := failed.SetLinkState(failed.MustLookup(a), failed.MustLookup(b), false); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		label string
		event TopoEvent
		tp    *Topology
	}{
		{"link-down", LinkFailure(a, b), failed},
		{"link-up", LinkRecovery(a, b), FatTree(k, Gbps)},
	} {
		lowered := c.Stats().PlansLowered
		if _, err := c.ApplyTopo(step.event); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().PlansLowered - lowered; got != 2 {
			t.Fatalf("%s lowered %d plans, want the last pod's 2", step.label, got)
		}
		sameCompiled(t, step.label, c.Result(), pol, step.tp, nil, opts)
	}
	if !reflect.DeepEqual(c.Result().Outputs, first.Outputs) {
		t.Fatal("recovery did not restore the original configuration")
	}
}
