package merlin

import (
	"fmt"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/policy"
	"merlin/internal/topo"
)

// countsFixture is a small fat-tree policy touching every counted section:
// two guarantees (rules + queues), a capped class through dpi (tc + click),
// and a best-effort class.
func countsFixture(t *testing.T, tp *Topology) *Policy {
	t.Helper()
	mac := func(name string) string { return topo.MACOf(tp.MustLookup(name)) }
	src := fmt.Sprintf(`
[ g0 : (eth.src = %s and eth.dst = %s) -> .* at min(100Mbps) ;
  g1 : (eth.src = %s and eth.dst = %s) -> .* at min(50Mbps) ;
  w : (eth.src = %s and eth.dst = %s and tcp.dst = 80) -> .* dpi .* ;
  b : (eth.src = %s and eth.dst = %s) -> .* ],
max(w, 50MB/s)
`, mac("h0_0_0"), mac("h1_0_0"), mac("h0_1_0"), mac("h2_0_0"),
		mac("h0_0_1"), mac("h3_1_1"), mac("h1_1_1"), mac("h2_1_0"))
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestCountsPinned pins Diff.Counts and Result.Counts across every kind of
// incremental step — formula walk, cap change, add, remove, link down and
// link up — so a change to how diffs or counts are computed cannot move
// the numbers merlind reports in /v1/delta and /v1/result.
func TestCountsPinned(t *testing.T) {
	tp := FatTree(4, Gbps)
	pol := countsFixture(t, tp)
	c := NewCompiler(tp, Placement{"dpi": {"h0_0_1", "h3_1_1"}}, Options{NoDefault: true})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["g0"])
	if got, want := first.Counts(), (codegen.Counts{OpenFlow: 20, Queues: 10, TC: 1, Click: 1}); got != want {
		t.Fatalf("compile: result counts %+v, want %+v", got, want)
	}
	type rate struct {
		id  string
		bps float64
	}
	// formula caps w and guarantees each listed statement its rate.
	formula := func(wCap float64, mins ...rate) policy.Formula {
		fs := []policy.Formula{policy.Max{Expr: policy.BandExpr{IDs: []string{"w"}}, Rate: wCap}}
		for _, m := range mins {
			fs = append(fs, policy.Min{Expr: policy.BandExpr{IDs: []string{m.id}}, Rate: m.bps})
		}
		return policy.ConjFormula(fs...)
	}
	g0, g1, g2 := rate{"g0", 200 * Mbps}, rate{"g1", 50 * Mbps}, rate{"g2", 20 * Mbps}
	added, err := ParsePolicy(fmt.Sprintf("[ g2 : (eth.src = %s and eth.dst = %s) -> .* ]",
		topo.MACOf(tp.MustLookup("h3_0_0")), topo.MACOf(tp.MustLookup("h1_1_0"))), tp)
	if err != nil {
		t.Fatal(err)
	}
	type cnt = codegen.Counts
	steady := cnt{OpenFlow: 20, Queues: 10, TC: 1, Click: 1}
	steps := []struct {
		name                  string
		apply                 func() (*Diff, error)
		install, remove, full cnt
	}{
		{"formula", func() (*Diff, error) { return c.Update(Delta{Formula: formula(50*MBps, g0, g1)}) },
			cnt{Queues: 5}, cnt{Queues: 5}, steady},
		{"cap", func() (*Diff, error) { return c.Update(Delta{Formula: formula(20*MBps, g0, g1)}) },
			cnt{TC: 1}, cnt{TC: 1}, steady},
		{"add", func() (*Diff, error) {
			return c.Update(Delta{Add: added.Statements, Formula: formula(20*MBps, g0, g1, g2)})
		}, cnt{OpenFlow: 5, Queues: 5}, cnt{}, cnt{OpenFlow: 25, Queues: 15, TC: 1, Click: 1}},
		{"remove", func() (*Diff, error) {
			return c.Update(Delta{Remove: []string{"g1"}, Formula: formula(20*MBps, g0, g2)})
		}, cnt{OpenFlow: 15}, cnt{OpenFlow: 20, Queues: 5}, steady},
		{"link-down", func() (*Diff, error) { return c.ApplyTopo(LinkFailure(a, b)) },
			cnt{OpenFlow: 8, Queues: 6}, cnt{OpenFlow: 8, Queues: 6}, steady},
		{"link-up", func() (*Diff, error) { return c.ApplyTopo(LinkRecovery(a, b)) },
			cnt{OpenFlow: 8, Queues: 6}, cnt{OpenFlow: 8, Queues: 6}, steady},
	}
	for _, st := range steps {
		d, err := st.apply()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		in, rm := d.Counts()
		if in != st.install || rm != st.remove {
			t.Errorf("%s: diff counts install %+v remove %+v, want %+v / %+v", st.name, in, rm, st.install, st.remove)
		}
		if got := c.Result().Counts(); got != st.full {
			t.Errorf("%s: result counts %+v, want %+v", st.name, got, st.full)
		}
	}
}
