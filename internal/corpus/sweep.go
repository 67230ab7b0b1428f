package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"merlin/internal/codegen"
	"merlin/internal/topo"

	merlin "merlin"
)

// Grid describes a sweep: the cross product of topologies × suites ×
// seeds × failure settings, plus the differential knobs. Cells are
// enumerated topology-major, so a grid's cell order — and therefore its
// summary — is deterministic.
type Grid struct {
	Topos    []string `json:"topos"`
	Suites   []string `json:"suites"`
	Seeds    []int64  `json:"seeds"`
	Failures []bool   `json:"failures"`
	// Workers bounds the cell-level worker pool (0 = one per cell, the
	// runtime caps at GOMAXPROCS-driven scheduling). Output is identical
	// for every value.
	Workers int `json:"workers,omitempty"`
	// DiffEvery spot-checks every Nth cell sharded ≡ monolithic: the
	// cell recompiles with Options.NoShard and the outputs must match
	// byte for byte. 0 disables.
	DiffEvery int `json:"diff_every,omitempty"`
	// BudgetEvery injects a zero table budget on the first statement's
	// ingress edge switch into every Nth cell and requires the compiler's
	// typed *codegen.TableOverflowError rejection. 0 disables.
	BudgetEvery int `json:"budget_every,omitempty"`
	// Repeats re-runs every cell this many times (0 and 1 mean once):
	// wall-clock fields average over the runs, and any run disagreeing
	// with the first on a summary field fails the cell — repeats are a
	// live determinism check, not just timing stabilization.
	Repeats int `json:"repeats,omitempty"`
}

// DefaultGrid is the acceptance sweep: five Topology Zoo entries of five
// different families (star, mesh, waxman, ring, tree) crossed with all
// four policy suites, with and without failure schedules — 40 cells.
func DefaultGrid() Grid {
	return Grid{
		Topos:       []string{"zoo-1", "zoo-3", "zoo-9", "zoo-10", "zoo-12"},
		Suites:      Suites(),
		Seeds:       []int64{1},
		Failures:    []bool{false, true},
		DiffEvery:   4,
		BudgetEvery: 5,
	}
}

// Specs enumerates the grid's cells in canonical order: topology, suite,
// seed, failures.
func (g Grid) Specs() []Spec {
	var specs []Spec
	for _, tn := range g.Topos {
		for _, suite := range g.Suites {
			for _, seed := range g.Seeds {
				for _, fail := range g.Failures {
					specs = append(specs, Spec{Topo: tn, Suite: suite, Seed: seed, Failures: fail})
				}
			}
		}
	}
	return specs
}

// CellResult is one grid point's outcome: the scenario's shape counters,
// the list of validations that passed, and the first failure if any.
// Wall-clock fields are excluded from the summary encodings so same-seed
// reruns stay byte-identical.
type CellResult struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Topo     string `json:"topo"`
	Suite    string `json:"suite"`
	Seed     int64  `json:"seed"`
	Failures bool   `json:"failures"`

	Statements int `json:"statements"`
	Guaranteed int `json:"guaranteed"`
	Events     int `json:"events"`
	Rules      int `json:"rules"`

	// Checks lists the validations that passed, in execution order.
	Checks []string `json:"checks"`
	// Err is the first validation failure ("" = cell passed).
	Err string `json:"err,omitempty"`

	// CompileMS and TotalMS are wall-clock measurements; they appear in
	// the per-cell CSV only.
	CompileMS float64 `json:"-"`
	TotalMS   float64 `json:"-"`
}

// OK reports whether every validation passed.
func (c CellResult) OK() bool { return c.Err == "" }

// SweepResult is a full grid run.
type SweepResult struct {
	Grid   Grid
	Cells  []CellResult
	Failed int
}

// RunSweep materializes and validates every cell of the grid over a
// bounded worker pool. It never returns a partial result: failed cells
// carry their error in CellResult.Err and count toward Failed.
func RunSweep(g Grid) *SweepResult {
	specs := g.Specs()
	cells := make([]CellResult, len(specs))
	workers := g.Workers
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
				diff := g.DiffEvery > 0 && i%g.DiffEvery == 0
				budget := g.BudgetEvery > 0 && i%g.BudgetEvery == 0
				cells[i] = runCellRepeated(specs[i], diff, budget, g.Repeats)
				cells[i].Index = i
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	res := &SweepResult{Grid: g, Cells: cells}
	for _, c := range cells {
		if !c.OK() {
			res.Failed++
		}
	}
	return res
}

// runCellRepeated runs a cell repeats times, averaging wall-clock and
// failing the cell if any repeat disagrees with the first on a
// summary-visible field.
func runCellRepeated(spec Spec, diff, budget bool, repeats int) CellResult {
	first := RunCell(spec, diff, budget)
	for r := 1; r < repeats; r++ {
		again := RunCell(spec, diff, budget)
		if again.Err != first.Err || again.Statements != first.Statements ||
			again.Rules != first.Rules || again.Events != first.Events ||
			strings.Join(again.Checks, "+") != strings.Join(first.Checks, "+") {
			first.Err = fmt.Sprintf("repeat %d diverged from first run (err=%q stmts=%d rules=%d events=%d)",
				r, again.Err, again.Statements, again.Rules, again.Events)
			return first
		}
		first.CompileMS += again.CompileMS
		first.TotalMS += again.TotalMS
	}
	if repeats > 1 {
		first.CompileMS /= float64(repeats)
		first.TotalMS /= float64(repeats)
	}
	return first
}

// RunCell generates, compiles, and validates one cell. diff adds the
// sharded-vs-monolithic differential, budget the injected-overflow check.
// Failures are recorded, not returned: a sweep always completes.
func RunCell(spec Spec, diff, budget bool) CellResult {
	cell := CellResult{
		Name: spec.Name(),
		Topo: spec.Topo, Suite: spec.Suite, Seed: spec.Seed, Failures: spec.Failures,
	}
	start := time.Now()
	defer func() { cell.TotalMS = float64(time.Since(start).Microseconds()) / 1000 }()
	fail := func(step string, err error) CellResult {
		cell.Err = fmt.Sprintf("%s: %v", step, err)
		return cell
	}
	pass := func(step string) { cell.Checks = append(cell.Checks, step) }

	sc, err := Generate(spec)
	if err != nil {
		return fail("generate", err)
	}
	cell.Statements = sc.Invariants.Statements
	cell.Guaranteed = sc.Invariants.Guaranteed
	cell.Events = sc.Invariants.Events
	pass("generate")

	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		return fail("parse", err)
	}
	pass("parse")

	opts := merlin.Options{NoDefault: true}
	place := merlin.Placement(sc.Placement)
	comp := merlin.NewCompiler(sc.Topology, place, opts)
	compileStart := time.Now()
	if _, err := comp.Compile(pol); err != nil {
		return fail("compile", err)
	}
	cell.CompileMS = float64(time.Since(compileStart).Microseconds()) / 1000
	res := comp.Result()
	if res.IR == nil || len(res.IR.Rules) == 0 || res.Outputs == nil {
		return fail("codegen", fmt.Errorf("compile emitted no device rules"))
	}
	cell.Rules = len(res.IR.Rules)
	if got := len(res.Policy.Statements); got != sc.Invariants.Statements {
		return fail("statements", fmt.Errorf("compiled %d statements, invariants promise %d", got, sc.Invariants.Statements))
	}
	for _, gr := range sc.Guarantee {
		if gr.RateBps > 0 && len(res.Paths[gr.ID]) < 2 {
			return fail("paths", fmt.Errorf("guarantee %s has no provisioned path", gr.ID))
		}
	}
	pass("compile")

	if sc.Invariants.Confined {
		for _, gr := range sc.Guarantee {
			allowed := map[string]bool{}
			for _, n := range gr.Region {
				allowed[n] = true
			}
			for _, loc := range res.Paths[gr.ID] {
				if !allowed[loc] {
					return fail("confined", fmt.Errorf("guarantee %s leaves its region at %s", gr.ID, loc))
				}
			}
		}
		pass("confined")
	}

	net, err := sc.BuildNetwork(res.Paths)
	if err != nil {
		return fail("sim", err)
	}
	net.Allocate()
	if err := net.CheckCapacities(); err != nil {
		return fail("sim", err)
	}
	for _, f := range net.Flows {
		if f.MinRate > 0 && f.Rate < f.MinRate-1 {
			return fail("sim", fmt.Errorf("flow %s allocated %.0f below its %.0f guarantee", f.ID, f.Rate, f.MinRate))
		}
	}
	pass("sim")

	// Recompile determinism: a pristine regeneration must compile to the
	// same bytes.
	ref, err := recompile(spec, merlin.Options{NoDefault: true})
	if err != nil {
		return fail("determinism", err)
	}
	if !sameOutputs(res, ref) {
		return fail("determinism", fmt.Errorf("recompile of the same spec diverged"))
	}
	pass("determinism")

	if spec.Failures {
		for i, ev := range sc.Schedule {
			if _, err := comp.ApplyTopo(ev.Event); err != nil {
				return fail("replay", fmt.Errorf("event %d (%v %s %s): %w", i, ev.Event.Kind, ev.Event.A, ev.Event.B, err))
			}
		}
		if !sameOutputs(comp.Result(), ref) {
			return fail("replay", fmt.Errorf("balanced schedule did not restore the pre-schedule output"))
		}
		pass("replay")
	}

	if sc.Invariants.Negotiable {
		if err := runNegotiation(sc, comp); err != nil {
			return fail("negotiate", err)
		}
		pass("negotiate")
	}

	if diff {
		mono, err := recompile(spec, merlin.Options{NoDefault: true, NoShard: true})
		if err != nil {
			return fail("diff", err)
		}
		if !sameOutputs(mono, ref) {
			return fail("diff", fmt.Errorf("monolithic solve diverged from sharded outputs"))
		}
		pass("diff")
	}

	if budget {
		if err := runBudgetInjection(spec); err != nil {
			return fail("budget", err)
		}
		pass("budget")
	}
	return cell
}

// recompile regenerates the spec from scratch and compiles it cold —
// pristine topology, fresh caches — returning the result.
func recompile(spec Spec, opts merlin.Options) (*merlin.Result, error) {
	sc, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		return nil, err
	}
	return merlin.Compile(pol, sc.Topology, merlin.Placement(sc.Placement), opts)
}

// sameOutputs compares the backend-visible outputs of two results.
func sameOutputs(a, b *merlin.Result) bool {
	return reflect.DeepEqual(a.Outputs, b.Outputs) &&
		len(a.IR.Rules) == len(b.IR.Rules)
}

// runNegotiation replays negotiation ticks for a delegation cell: every
// tenant becomes a hub session over its statements, shard pools are sized
// to congest mid-sweep, and three demand windows tick through the hub —
// with the warm compiler bound, so every committed tick pays its
// recompile. Allocations must never exceed a tenant's delegated cap.
func runNegotiation(sc *Scenario, comp *merlin.Compiler) error {
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		return err
	}
	hub, err := merlin.NewHub(pol, merlin.HubOptions{})
	if err != nil {
		return err
	}
	comp.WatchHub(hub, nil)
	defer comp.UnwatchHub()
	capOf := map[string]float64{}
	var sessions []*merlin.Session
	for i, tn := range sc.Tenants {
		pool := fmt.Sprintf("pool%d", i)
		if err := hub.AddShard(pool, float64(len(tn.StmtIDs))*tn.CapBps/2); err != nil {
			return err
		}
		s, err := hub.Register(tn.Name, pool, tn.StmtIDs,
			merlin.AIMDState{Alloc: topo.Mbps, Increase: topo.Mbps, Decrease: 0.5})
		if err != nil {
			return err
		}
		sessions = append(sessions, s)
		for _, id := range tn.StmtIDs {
			capOf[id] = tn.CapBps
		}
	}
	for round := 0; round < 3; round++ {
		for i, s := range sessions {
			s.OfferDemand(float64(1+(i*13+round*7)%8) * topo.Mbps)
		}
		if _, err := hub.Tick(); err != nil {
			return err
		}
	}
	if st := hub.Stats(); st.TenantsActive != len(sc.Tenants) || st.TicksBatched == 0 {
		return fmt.Errorf("hub counters degenerate: %+v", st)
	}
	for id, a := range hub.Allocations() {
		if cap, ok := capOf[id]; ok && a.Max > cap+1e-6 {
			return fmt.Errorf("statement %s negotiated past its %.0f cap: %.0f", id, cap, a.Max)
		}
	}
	return nil
}

// runBudgetInjection compiles the cell with a zero ternary budget on the
// first statement flow's ingress edge switch — a device its traffic
// cannot avoid — and requires the compiler's typed overflow rejection.
func runBudgetInjection(spec Spec) error {
	sc, err := Generate(spec)
	if err != nil {
		return err
	}
	t := sc.Topology
	var device string
	for _, f := range sc.Traffic {
		if f.Stmt == "" {
			continue
		}
		src, ok := t.Lookup(f.Src)
		if !ok {
			continue
		}
		if att, ok := t.Attachment(src); ok {
			device = t.Node(att).Name
			break
		}
	}
	if device == "" {
		return fmt.Errorf("no ingress edge switch to budget")
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, t)
	if err != nil {
		return err
	}
	_, err = merlin.Compile(pol, t, merlin.Placement(sc.Placement),
		merlin.Options{NoDefault: true, TableBudgets: map[string]int{device: 0}})
	var overflow *codegen.TableOverflowError
	if !errors.As(err, &overflow) {
		return fmt.Errorf("zero budget on %s: want *codegen.TableOverflowError, got %v", device, err)
	}
	for _, o := range overflow.Overflows {
		if o.Name == device {
			return nil
		}
	}
	return fmt.Errorf("overflow error does not name budgeted device %s: %v", device, overflow)
}

// SummaryCSV renders the deterministic per-cell summary: shape counters
// and check outcomes, no wall-clock columns — same grid, same seeds,
// same bytes.
func (s *SweepResult) SummaryCSV() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "index,name,topo,suite,seed,failures,statements,guaranteed,events,rules,checks,status")
	for _, c := range s.Cells {
		status := "ok"
		if !c.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%d,%s,%s,%s,%d,%t,%d,%d,%d,%d,%s,%s\n",
			c.Index, c.Name, c.Topo, c.Suite, c.Seed, c.Failures,
			c.Statements, c.Guaranteed, c.Events, c.Rules,
			strings.Join(c.Checks, "+"), status)
	}
	return b.Bytes()
}

// CellsCSV renders the per-cell measurement CSV, wall-clock included —
// the analysis artifact, not covered by the byte-identical promise.
func (s *SweepResult) CellsCSV() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "index,name,compile_ms,total_ms,statements,rules,events,status,err")
	for _, c := range s.Cells {
		status := "ok"
		if !c.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%d,%s,%.2f,%.2f,%d,%d,%d,%s,%q\n",
			c.Index, c.Name, c.CompileMS, c.TotalMS, c.Statements, c.Rules, c.Events, status, c.Err)
	}
	return b.Bytes()
}

// GroupRows aggregates cells into one row per topology × suite — the
// grouped summary the BENCH machinery consumes. Rows are emitted in cell
// order; counters sum over seeds and failure settings.
func (s *SweepResult) GroupRows() []GroupRow {
	var rows []GroupRow
	index := map[string]int{}
	for _, c := range s.Cells {
		key := c.Topo + "/" + c.Suite
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, GroupRow{Label: key, Topo: c.Topo, Suite: c.Suite})
		}
		rows[i].Cells++
		if c.OK() {
			rows[i].Pass++
		}
		rows[i].Statements += c.Statements
		rows[i].Rules += c.Rules
		rows[i].Events += c.Events
		rows[i].Checks += len(c.Checks)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
	return rows
}

// GroupRow is one topology × suite aggregate.
type GroupRow struct {
	Label string
	Topo  string
	Suite string
	Cells int
	Pass  int
	// Statements, Rules, Events, and Checks sum over the group's cells.
	Statements int
	Rules      int
	Events     int
	Checks     int
}
