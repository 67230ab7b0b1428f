package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"merlin"
)

func TestFig4ShapesMatchPaper(t *testing.T) {
	rows, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 policies", len(rows))
	}
	total := func(r Row) int {
		v, _ := strconv.Atoi(r.Values["total"])
		return v
	}
	base := total(rows[0])
	if base == 0 {
		t.Fatal("baseline emitted nothing")
	}
	// Paper shape: every richer policy emits more instructions than the
	// baseline; the combination emits the most.
	for _, r := range rows[1:] {
		if total(r) <= base {
			t.Errorf("%s total %d not above baseline %d", r.Label, total(r), base)
		}
	}
	combo := total(rows[4])
	for _, r := range rows[:4] {
		if total(r) >= combo {
			t.Errorf("combo (%d) should dominate %s (%d)", combo, r.Label, total(r))
		}
	}
	// The bandwidth policy produces queues and tc entries.
	if rows[1].Values["queues"] == "0" || rows[1].Values["tc"] == "0" {
		t.Errorf("bandwidth policy: %+v", rows[1].Values)
	}
	// Middlebox policies produce Click configs.
	if rows[2].Values["click"] == "0" || rows[3].Values["click"] == "0" {
		t.Errorf("middlebox policies lack click configs")
	}
}

func TestHadoopRows(t *testing.T) {
	rows, err := Hadoop()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(i int) float64 {
		v, _ := strconv.ParseFloat(rows[i].Values["completion_s"], 64)
		return v
	}
	if !(get(0) < get(2) && get(2) < get(1)) {
		t.Fatalf("ordering wrong: %v %v %v", get(0), get(1), get(2))
	}
}

func TestFig5Rows(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13 client points", len(rows))
	}
	last := rows[len(rows)-1]
	r2, _ := strconv.ParseFloat(last.Values["merlin_r2"], 64)
	if r2 < 590 {
		t.Fatalf("guaranteed ring throughput = %v Mbps", r2)
	}
}

func TestFig6Sampled(t *testing.T) {
	rows, err := Fig6(40) // 7 sampled topologies
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Values["compile_ms"] == "" {
			t.Fatalf("missing timing in %v", r)
		}
	}
}

func TestTable7SmallestCase(t *testing.T) {
	r, err := Table7(Table7Cases()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["lp_solve_ms"] == "" || r.Values["rateless_ms"] == "" {
		t.Fatalf("row = %v", r)
	}
}

func TestFig8SmallPanels(t *testing.T) {
	cases := Fig8Cases()
	// Run the first scale point of each panel.
	for _, c := range cases {
		c.Scales = c.Scales[:1]
		rows, err := Fig8(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s rows = %d", c.Name, len(rows))
		}
	}
}

func TestFig9AllPanels(t *testing.T) {
	rows, err := Fig9Predicates([]int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("fig9a rows")
	}
	rows, err = Fig9Regexes([]int{20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("fig9b rows")
	}
	rows, err = Fig9Allocations([]int{10})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows[0].Label, "allocations") {
		t.Fatalf("label = %s", rows[0].Label)
	}
}

func TestFig10Series(t *testing.T) {
	aimd, err := Fig10AIMD()
	if err != nil {
		t.Fatal(err)
	}
	if len(aimd) != 2 || len(aimd[0].Samples) == 0 {
		t.Fatal("aimd series")
	}
	mmfs, err := Fig10MMFS()
	if err != nil {
		t.Fatal(err)
	}
	rows := SeriesRows(mmfs, 5)
	if len(rows) == 0 {
		t.Fatal("mmfs rows")
	}
}

func TestAblations(t *testing.T) {
	rows, err := AblationHeuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("heuristics rows")
	}
	// WSP minimizes hops (4), MinMaxRatio minimizes rmax (0.25).
	if rows[0].Values["total_hops"] != "4" {
		t.Errorf("wsp hops = %s", rows[0].Values["total_hops"])
	}
	if rows[1].Values["rmax"] != "0.25" {
		t.Errorf("minmax rmax = %s", rows[1].Values["rmax"])
	}
	g, err := AblationGreedyVsMIP(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatal("greedy-vs-mip rows")
	}
	m, err := AblationMinimization([]int{20})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Fatal("minimization rows")
	}
	l, err := AblationLocalization()
	if err != nil {
		t.Fatal(err)
	}
	// 3/4 of 50 MB/s = 37.5 MB/s = 300 Mbps (rendered in the unit that
	// divides evenly).
	if l[1].Values["x"] != "300Mbps" {
		t.Errorf("weighted split = %v", l[1].Values)
	}
}

func TestRowFormat(t *testing.T) {
	r := row("label", "a", "1", "b", "2")
	s := r.Format()
	if !strings.Contains(s, "a=1") || !strings.Contains(s, "b=2") {
		t.Fatalf("format = %q", s)
	}
}

// TestTable7CompileScale compiles Table 7's fattree-k8 row: all 16,256
// host pairs best-effort, 812 of them guaranteed `.*` paths. Every such
// path can ride every cable, so a worst-case load test sends the shard to
// branch and bound, which does not finish; the cheapest routes fit every
// cable, so relax-then-verify routes it by one shortest path per request.
// Each compile runs under a deadline, so a stall fails the test instead of
// hanging it, and two compiles must agree.
func TestTable7CompileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles an 812-guarantee k=8 fat tree; skipped in -short")
	}
	var c Table7Case
	for _, tc := range Table7Cases() {
		if tc.Name == "fattree-k8" {
			c = tc
		}
	}
	if c.Guaranteed != 812 {
		t.Fatalf("fattree-k8 row has %d guarantees, want 812", c.Guaranteed)
	}
	tp := c.Build()
	pol, _, err := table7Policy(c, tp)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2 * time.Second
	compile := func() *merlin.Result {
		t.Helper()
		type outcome struct {
			res *merlin.Result
			err error
		}
		done := make(chan outcome, 1)
		start := time.Now()
		go func() {
			res, err := merlin.Compile(pol, tp, nil, merlin.Options{NoDefault: true, Workers: 2})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if d := time.Since(start); d > limit {
				t.Fatalf("compile took %v, want under %v", d, limit)
			}
			return o.res
		case <-time.After(limit):
			t.Fatalf("compile still running after %v", limit)
			return nil
		}
	}
	a, b := compile(), compile()
	if !reflect.DeepEqual(a.Outputs, b.Outputs) {
		t.Fatal("two compiles of the same policy produced different outputs")
	}
}
