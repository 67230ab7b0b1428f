package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"merlin"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{9, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g: a tail needs at least ten samples beyond it", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// op_p50_ms is a geometric mean over op classes, weighted by their share.
func TestClassMedian(t *testing.T) {
	equal := map[string][]float64{"a": {1}, "b": {10}, "c": {100}}
	if got := classMedian(equal); math.Abs(got-10) > 1e-9 {
		t.Errorf("three equal classes at 1, 10, 100: %g, want their geometric mean 10", got)
	}
	if got := classMedian(map[string][]float64{"only": {3, 1, 2}}); math.Abs(got-2) > 1e-9 {
		t.Errorf("one class: %g, want its median 2", got)
	}
	weighted := map[string][]float64{"heavy": {4, 4, 4}, "light": {32}}
	if want := math.Pow(4*4*4*32, 0.25); math.Abs(classMedian(weighted)-want) > 1e-9 {
		t.Errorf("weighted classes: %g, want %g", classMedian(weighted), want)
	}
	if got := classMedian(nil); got != 0 {
		t.Errorf("no classes: %g, want 0", got)
	}
}

// The acceptance spread is defined by Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		if w.Kind == kindCompile {
			continue
		}
		n := requestCount(w, runConfig{Validate: true})
		a, err := generateDaemon(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generateDaemon(w, 7, n)
		c, _ := generateDaemon(w, 8, n)
		if a.Genesis != b.Genesis || !reflect.DeepEqual(a.Requests, b.Requests) {
			t.Errorf("%s: the same seed gave different request streams", w.Name)
		}
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: different seeds gave the same request stream", w.Name)
		}
	}
	spec := scenarioSpec{Topo: "fattree-k4", Suite: "besteffort"}
	digest := func(seed int64) string {
		in, err := generateCompile(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := merlin.Compile(in.Policy, in.Topo, in.Place, merlin.Options{NoDefault: true, Targets: merlin.BackendNames()})
		if err != nil {
			t.Fatal(err)
		}
		return outDigest(res)
	}
	if digest(3) != digest(3) {
		t.Error("the same seed gave different out_digests")
	}
	if digest(3) == digest(4) {
		t.Error("different seeds gave the same out_digest")
	}
}

func TestSpansSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.beginOp()
	rec.time("outer", "a", func() {
		rec.time("inner", "b", func() {})
		rec.renameLast("inner", "c")
	})
	rec.finish()
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[1].Name != "c" {
		t.Fatalf("spans = %+v", rec.spans)
	}
	outer, inner := rec.spans[0], rec.spans[1]
	if outer.SelfNs != (outer.EndNs-outer.StartNs)-(inner.EndNs-inner.StartNs) {
		t.Errorf("self time %d is not duration minus children", outer.SelfNs)
	}
	if got := rec.perOp("c"); len(got) != 1 {
		t.Errorf("perOp(c) = %v, want one operation", got)
	}
	var nilRec *recorder
	ran := false
	nilRec.time("x", "y", func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the call")
	}
}

// BENCHMARK.json is the contract; the tables in this package are what the
// program reports. They must agree.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v differs from the program's %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, program %g", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("contract limits: %d per-layer, %d end-to-end, %d bytes", len(perLayer), len(endToEnd), len(raw))
	}
}

// TestValidate runs every workload's ops once with all output checks, so
// tier-1 covers the harness: generation, the real merlind over HTTP, the
// in-process replay, the staged driver's IR assertion. -short keeps to the
// compile workloads.
func TestValidate(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{Seed: 1, Seconds: 1, Validate: true, Root: root, Out: t.TempDir()}
	var keep func(workload) bool
	if testing.Short() {
		keep = func(w workload) bool { return w.Kind == kindCompile }
	}
	if err := runValidate(cfg, keep); err != nil {
		t.Fatal(err)
	}
}
