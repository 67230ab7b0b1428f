package corpus_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"merlin/internal/corpus"

	merlin "merlin"
)

// testSpecs is the cross-product the unit tests sweep: every suite over
// a few small, structurally different topologies, failures on.
func testSpecs() []corpus.Spec {
	var specs []corpus.Spec
	for _, topoName := range []string{"fattree-k4", "ring-12", "btree-2-3-1", "star-8"} {
		for _, suite := range corpus.Suites() {
			specs = append(specs, corpus.Spec{Topo: topoName, Suite: suite, Seed: 7, Failures: true})
		}
	}
	return specs
}

// generateAll materializes a batch of specs over a bounded worker pool,
// so that concurrent Generate calls run under the race detector. The
// result slice is indexed like specs; the first error wins
// deterministically (lowest spec index).
func generateAll(specs []corpus.Spec, workers int) ([]*corpus.Scenario, error) {
	out := make([]*corpus.Scenario, len(specs))
	errs := make([]error, len(specs))
	if workers <= 0 || workers > len(specs) {
		workers = len(specs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = corpus.Generate(specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spec %d (%s/%s): %w", i, specs[i].Topo, specs[i].Suite, err)
		}
	}
	return out, nil
}

// TestGenerateDeterminism asserts the corpus contract: the same spec
// yields byte-identical policy text and identical traffic and schedule
// on every call, and generateAll's output is independent of its worker
// count (run under -race in CI).
func TestGenerateDeterminism(t *testing.T) {
	specs := testSpecs()
	base, err := generateAll(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		again, err := generateAll(specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			a, b := base[i], again[i]
			if a.PolicyText != b.PolicyText {
				t.Fatalf("%s: policy text differs across worker counts", a.Name)
			}
			if !reflect.DeepEqual(a.Traffic, b.Traffic) {
				t.Fatalf("%s: traffic matrix differs across worker counts", a.Name)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Fatalf("%s: schedule differs across worker counts", a.Name)
			}
			if !reflect.DeepEqual(a.Invariants, b.Invariants) {
				t.Fatalf("%s: invariants differ across worker counts", a.Name)
			}
		}
	}
	// Distinct seeds must actually vary the workload.
	a, err := corpus.Generate(corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpus.Generate(corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.PolicyText == b.PolicyText {
		t.Fatal("seeds 1 and 2 generated identical tenant policies")
	}
}

// compileScenario parses and compiles a scenario the way the sweep does.
func compileScenario(t *testing.T, sc *corpus.Scenario) *merlin.Result {
	t.Helper()
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatalf("%s: parse: %v\npolicy: %s", sc.Name, err, sc.PolicyText)
	}
	res, err := merlin.Compile(pol, sc.Topology, merlin.Placement(sc.Placement), merlin.Options{NoDefault: true})
	if err != nil {
		t.Fatalf("%s: compile: %v", sc.Name, err)
	}
	return res
}

// TestScenariosCompile compiles every suite on every test topology and
// checks the scenario's own invariant descriptors: statement counts,
// region confinement of provisioned paths, and a capacity-respecting
// traffic allocation that honors every guarantee.
func TestScenariosCompile(t *testing.T) {
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.Topo, spec.Suite), func(t *testing.T) {
			sc, err := corpus.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			res := compileScenario(t, sc)
			if got := len(res.Policy.Statements); got != sc.Invariants.Statements {
				t.Fatalf("compiled %d statements, invariants promise %d", got, sc.Invariants.Statements)
			}
			if sc.Invariants.Confined {
				for _, g := range sc.Guarantee {
					path := res.Paths[g.ID]
					if len(path) < 2 {
						t.Fatalf("guarantee %s has no provisioned path", g.ID)
					}
					allowed := map[string]bool{}
					for _, n := range g.Region {
						allowed[n] = true
					}
					for _, loc := range path {
						if !allowed[loc] {
							t.Fatalf("guarantee %s path %v leaves region at %s", g.ID, path, loc)
						}
					}
				}
			}
			net, err := sc.BuildNetwork(res.Paths)
			if err != nil {
				t.Fatal(err)
			}
			net.Allocate()
			if err := net.CheckCapacities(); err != nil {
				t.Fatal(err)
			}
			for _, f := range net.Flows {
				if f.MinRate > 0 && f.Rate < f.MinRate-1 {
					t.Fatalf("flow %s allocated %.0f below guarantee %.0f", f.ID, f.Rate, f.MinRate)
				}
			}
		})
	}
}

// TestScheduleReplayRestoresOutput replays each scenario's balanced
// failure schedule through a warm incremental compiler: every event must
// apply cleanly (the scheduler's feasibility promise), and after the
// final recovery the compiler's output must match a cold compile of the
// pristine scenario byte for byte (the Balanced promise).
func TestScheduleReplayRestoresOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("replay matrix skipped in -short")
	}
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.Topo, spec.Suite), func(t *testing.T) {
			sc, err := corpus.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sc.Invariants.Balanced || len(sc.Schedule) == 0 {
				t.Fatalf("failure spec generated no balanced schedule")
			}
			pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
			if err != nil {
				t.Fatal(err)
			}
			opts := merlin.Options{NoDefault: true}
			comp := merlin.NewCompiler(sc.Topology, merlin.Placement(sc.Placement), opts)
			if _, err := comp.Compile(pol); err != nil {
				t.Fatalf("warm compile: %v", err)
			}
			for i, ev := range sc.Schedule {
				if _, err := comp.ApplyTopo(ev.Event); err != nil {
					t.Fatalf("schedule event %d (%v %s-%s): %v", i, ev.Event.Kind, ev.Event.A, ev.Event.B, err)
				}
			}
			// A pristine regeneration gives the cold reference: same spec,
			// same topology, same policy.
			ref, err := corpus.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := compileScenario(t, ref)
			got := comp.Result()
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatal("replayed output diverges from pristine compile")
			}
		})
	}
}
