package merlin_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/topo"
)

// TestIncrementalMatchesColdRandom drives a Compiler through seeded random
// sequences of formula walks, cap-only changes, statement adds and
// removes, placement changes, link and switch failures and recoveries,
// and capacity changes, with deliberately failing deltas mixed in (a
// duplicate add, an infeasible capacity drop). After every successful
// step the outputs must equal a fresh Compile of the same policy on the
// same topology state; after a failed step the last result must stand.
func TestIncrementalMatchesColdRandom(t *testing.T) {
	specs := []struct {
		spec corpus.Spec
		opts merlin.Options
	}{
		{corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Tenants: 3, Guarantees: 2}, merlin.Options{}},
		{corpus.Spec{Topo: "ring-8", Suite: "chains"}, merlin.Options{NoDefault: true}},
		{corpus.Spec{Topo: "ring-8", Suite: "besteffort"}, merlin.Options{NoDefault: true}},
		// Every target: queue ids reach the OpenFlow, P4 and TCAM
		// artifacts, so a rate patch must re-emit all of them.
		{corpus.Spec{Topo: "fattree-k4", Suite: "tenants", Tenants: 3, Guarantees: 2}, merlin.Options{NoDefault: true, Targets: merlin.BackendNames()}},
	}
	seeds, steps := 3, 40
	if testing.Short() {
		seeds, steps = 1, 25
	}
	var full, patched, failed int
	for _, s := range specs {
		for seed := 1; seed <= seeds; seed++ {
			s.spec.Seed = int64(seed)
			f, p, x := randomIncrementalRun(t, s.spec, s.opts, steps)
			full, patched, failed = full+f, patched+p, failed+x
		}
	}
	if full == 0 || patched == 0 || failed == 0 {
		t.Fatalf("runs took %d full and %d patched codegens and %d failed steps; want each > 0", full, patched, failed)
	}
}

// randomIncrementalRun runs one seeded sequence and returns the full and
// patched codegens it took and the steps that failed.
func randomIncrementalRun(t *testing.T, spec corpus.Spec, opts merlin.Options, steps int) (full, patched, failed int) {
	sc, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tp := sc.Topology
	pol, err := merlin.ParsePolicy(sc.PolicyText, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(tp, sc.Placement, opts)
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	rng := rand.New(rand.NewSource(spec.Seed))

	// The model of the current inputs: guarantee and cap rates in Mbps by
	// statement ID, the best-effort statements added so far.
	mins, caps := map[string]int{}, map[string]int{}
	for _, g := range sc.Guarantee {
		if g.RateBps > 0 {
			mins[g.ID] = int(g.RateBps / topo.Mbps)
		}
	}
	var added []string
	hosts := tp.Hosts()
	var cables, hostCables []topo.Link // switch-switch cables, host access cables
	for _, l := range tp.Links() {
		if tp.Cable(l.ID) != l.ID {
			continue
		}
		switch {
		case tp.Node(l.Src).Kind == topo.Switch && tp.Node(l.Dst).Kind == topo.Switch:
			cables = append(cables, l)
		case tp.Node(l.Src).Kind == topo.Host || tp.Node(l.Dst).Kind == topo.Host:
			hostCables = append(hostCables, l)
		}
	}
	name := func(n topo.NodeID) string { return tp.Node(n).Name }
	var sourceIDs []string
	for _, s := range pol.Statements {
		sourceIDs = append(sourceIDs, s.ID)
	}
	next := 0
	var restore []merlin.TopoEvent

	for step := 0; step < steps; step++ {
		var (
			wire    merlin.WireDelta
			events  []merlin.TopoEvent
			label   string
			newMins = mins
			newCaps = caps
			commit  func()
			dupAdd  []merlin.Statement
			undo    []merlin.TopoEvent // undoes events should the step fail
		)
		switch k := rng.Intn(11); {
		case restore != nil: // a failed step's events stuck; undo them
			label, events, restore = "restore", restore, nil
		case step == 3 || k == 0: // duplicate add: always rejected
			label = "duplicate add"
			ids := append(slices.Clone(sourceIDs), added...)
			dup, err := merlin.ParsePolicy(fmt.Sprintf("[ %s : (eth.src = %s) -> .* ]", ids[rng.Intn(len(ids))], topo.MACOf(hosts[0])), tp)
			if err != nil {
				t.Fatal(err)
			}
			dupAdd = dup.Statements
		case (step == 6 || k == 1) && len(mins) > 0: // infeasible capacity drop under a guarantee
			label = "capacity drop"
			l := guaranteedAccess(sc, hostCables)
			a, b := name(l.Src), name(l.Dst)
			events = []merlin.TopoEvent{merlin.CapacityChange(a, b, 1e3)}
			undo = []merlin.TopoEvent{merlin.CapacityChange(a, b, tp.Link(l.ID).Capacity)}
		case k == 2 || k == 3: // formula walk: one guarantee's rate
			label = "formula walk"
			if len(mins) == 0 {
				continue
			}
			newMins = maps.Clone(mins)
			newMins[slices.Sorted(maps.Keys(mins))[rng.Intn(len(mins))]] = 1 + rng.Intn(30)
			wire.Formula = wireFormula(newMins, caps)
		case k == 4 || k == 5: // cap-only change
			label = "cap change"
			ids := append(slices.Clone(sourceIDs), added...)
			newCaps = maps.Clone(caps)
			newCaps[ids[rng.Intn(len(ids))]] = 100 + rng.Intn(900)
			wire.Formula = wireFormula(mins, newCaps)
		case k == 6: // add or remove a best-effort statement
			if len(added) > 0 && rng.Intn(2) == 0 {
				label = "remove"
				i := rng.Intn(len(added))
				id := added[i]
				newCaps = maps.Clone(caps)
				delete(newCaps, id)
				wire.Remove = []string{id}
				wire.Formula = wireFormula(mins, newCaps)
				commit = func() { added = slices.Delete(added, i, i+1) }
				break
			}
			label = "add"
			id := fmt.Sprintf("be%d", next)
			wire.Add = []string{randomBestEffort(rng, hosts, id, next)}
			commit = func() { added, next = append(added, id), next+1 }
		case k == 7: // placement change: a random nonempty subset per function
			if len(sc.Placement) == 0 {
				continue
			}
			label = "place"
			wire.Place = merlin.Placement{}
			for fn, locs := range sc.Placement {
				var sub []string
				for _, l := range locs {
					if rng.Intn(2) == 0 {
						sub = append(sub, l)
					}
				}
				if len(sub) == 0 {
					sub = []string{locs[rng.Intn(len(locs))]}
				}
				wire.Place[fn] = sub
			}
		case k == 8: // recover a failed cable, or fail one
			l := cables[rng.Intn(len(cables))]
			for _, dl := range cables {
				if tp.LinkFlaggedDown(dl.ID) {
					l = dl
				}
			}
			a, b := name(l.Src), name(l.Dst)
			label, events, undo = "link-down", []merlin.TopoEvent{merlin.LinkFailure(a, b)}, []merlin.TopoEvent{merlin.LinkRecovery(a, b)}
			if tp.LinkFlaggedDown(l.ID) {
				label, events, undo = "link-up", undo, events
			}
		case k == 9: // recover a failed switch, or fail one
			sws := tp.Switches()
			sw := sws[rng.Intn(len(sws))]
			for _, ds := range sws {
				if !tp.NodeIsUp(ds) {
					sw = ds
				}
			}
			label, events, undo = "switch-down", []merlin.TopoEvent{merlin.SwitchFailure(name(sw))}, []merlin.TopoEvent{merlin.SwitchRecovery(name(sw))}
			if !tp.NodeIsUp(sw) {
				label, events, undo = "switch-up", undo, events
			}
		default: // capacity change on a switch cable
			label = "set-capacity"
			l := cables[rng.Intn(len(cables))]
			a, b := name(l.Src), name(l.Dst)
			capBps := []float64{200 * topo.Mbps, 500 * topo.Mbps, topo.Gbps}[rng.Intn(3)]
			events = []merlin.TopoEvent{merlin.CapacityChange(a, b, capBps)}
			undo = []merlin.TopoEvent{merlin.CapacityChange(a, b, tp.Link(l.ID).Capacity)}
		}
		prev := c.Result()
		d, err := c.DecodeDelta(wire)
		if err != nil {
			t.Fatalf("%s seed %d step %d (%s): decode: %v", spec.Topo, spec.Seed, step, label, err)
		}
		d.Topo, d.Add = events, append(d.Add, dupAdd...)
		if _, err := c.Update(d); err != nil {
			failed++
			restore = undo
			if c.Result() != prev {
				t.Fatalf("%s seed %d step %d (%s): failed step replaced the last result", spec.Topo, spec.Seed, step, label)
			}
			continue
		}
		if label == "duplicate add" || label == "capacity drop" {
			t.Fatalf("%s seed %d step %d: %s accepted", spec.Topo, spec.Seed, step, label)
		}
		mins, caps = newMins, newCaps
		if commit != nil {
			commit()
		}
		checkCold(t, c, spec, opts, step, label)
	}
	st := c.Stats()
	return st.FullCodegens - base.FullCodegens, st.PatchedCodegens - base.PatchedCodegens, failed
}

// wireFormula renders guarantee (mins) and cap (caps) rates in Mbps by
// statement ID as a formula in concrete syntax.
func wireFormula(mins, caps map[string]int) string {
	var terms []string
	for _, id := range slices.Sorted(maps.Keys(mins)) {
		terms = append(terms, fmt.Sprintf("min(%s, %dMbps)", id, mins[id]))
	}
	for _, id := range slices.Sorted(maps.Keys(caps)) {
		terms = append(terms, fmt.Sprintf("max(%s, %dMbps)", id, caps[id]))
	}
	if len(terms) == 0 {
		return "true"
	}
	return strings.Join(terms, " and ")
}

// randomBestEffort renders the n-th added best-effort statement: traffic
// between two random hosts on its own TCP port.
func randomBestEffort(rng *rand.Rand, hosts []topo.NodeID, id string, n int) string {
	a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
	return fmt.Sprintf("%s : (eth.src = %s and eth.dst = %s and tcp.dst = %d) -> .*",
		id, topo.MACOf(a), topo.MACOf(b), 9000+n)
}

// checkCold compares the compiler's last result with a fresh Compile of
// its policy and placement on a pristine copy of the topology brought to
// the compiler's topology state.
func checkCold(t *testing.T, c *merlin.Compiler, spec corpus.Spec, opts merlin.Options, step int, label string) {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := merlin.ApplyTopoState(sc.Topology, snap.Topo); err != nil {
		t.Fatal(err)
	}
	pol, err := merlin.ParsePolicy(snap.Policy, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	want, err := merlin.Compile(pol, sc.Topology, snap.Place, opts)
	if err != nil {
		t.Fatalf("%s seed %d step %d (%s): incremental pass succeeded, cold compile failed: %v", spec.Topo, spec.Seed, step, label, err)
	}
	got := c.Result()
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s seed %d step %d (%s): incremental result differs from a cold compile", spec.Topo, spec.Seed, step, label)
	}
}

// guaranteedAccess returns the access cable of a host that sources a
// scenario guarantee: a capacity below every rate on it is infeasible.
func guaranteedAccess(sc *corpus.Scenario, hostCables []topo.Link) topo.Link {
	for _, l := range hostCables {
		for _, g := range sc.Guarantee {
			if g.RateBps > 0 && (sc.Topology.Node(l.Src).Name == g.Src || sc.Topology.Node(l.Dst).Name == g.Src) {
				return l
			}
		}
	}
	panic("corpus scenario without a guarantee")
}

// TestStatementEditsStayLocal drives seeded random statement adds and
// removes through Update under NoDefault. A statement's priority counts
// from the front of the policy, so appending one must leave every earlier
// statement's OpenFlow, P4 and TCAM entries byte-identical and remove
// nothing from any of those targets, and removing statement k may rewrite
// only the entries of statements k and later. Every step must still equal
// a cold compile. Lowering resumes past the statements an edit keeps: an
// add lowers only its own statement's plans, and removing statement k
// only the plans of the statements after k (CompilerStats.PlansLowered),
// unless the rollback would undo more than UndoPerKept plans per plan it
// keeps, when every plan lowers from an emptied state.
func TestStatementEditsStayLocal(t *testing.T) {
	targets := []string{"openflow", "p4", "tcam"}
	opts := merlin.Options{NoDefault: true, Targets: targets}
	specs := []corpus.Spec{
		{Topo: "fattree-k4", Suite: "tenants", Tenants: 3, Guarantees: 2},
		{Topo: "ring-8", Suite: "chains"},
		{Topo: "ring-8", Suite: "besteffort"},
	}
	seeds, steps := 2, 16
	if testing.Short() {
		seeds, steps = 1, 10
	}
	var adds, removes, resumedRemoves int
	for _, spec := range specs {
		for seed := 1; seed <= seeds; seed++ {
			spec.Seed = int64(seed)
			sc, err := corpus.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			tp := sc.Topology
			pol, err := merlin.ParsePolicy(sc.PolicyText, tp)
			if err != nil {
				t.Fatal(err)
			}
			c := merlin.NewCompiler(tp, sc.Placement, opts)
			if _, err := c.Compile(pol); err != nil {
				t.Fatal(err)
			}
			guaranteed := map[string]bool{}
			for _, g := range sc.Guarantee {
				guaranteed[g.ID] = g.RateBps > 0
			}
			// planCount is the number of plans a statement lowers to: one
			// for a guarantee, and what a compile of it alone lowers for a
			// best-effort statement.
			counts := map[string]int{}
			planCount := func(s merlin.Statement) int {
				if guaranteed[s.ID] {
					return 1
				}
				if n, ok := counts[s.ID]; ok {
					return n
				}
				one := merlin.NewCompiler(tp, sc.Placement, opts)
				if _, err := one.Compile(&merlin.Policy{Statements: []merlin.Statement{s}}); err != nil {
					t.Fatal(err)
				}
				counts[s.ID] = one.Stats().PlansLowered
				return counts[s.ID]
			}
			sumPlans := func(stmts []merlin.Statement) int {
				n := 0
				for _, s := range stmts {
					n += planCount(s)
				}
				return n
			}
			rng := rand.New(rand.NewSource(spec.Seed))
			for step := 0; step < steps; step++ {
				// Best-effort statements only: a guarantee added or
				// removed may re-route the others, which is not a
				// priority effect.
				prev := c.Result()
				var ids, removable []string
				for _, s := range prev.Policy.Statements {
					ids = append(ids, s.ID)
					if !guaranteed[s.ID] {
						removable = append(removable, s.ID)
					}
				}
				var wire merlin.WireDelta
				kept := ids // the statements whose entries must not move
				label := "add"
				if len(removable) > 1 && rng.Intn(2) == 0 {
					label = "remove"
					id := removable[rng.Intn(len(removable))]
					wire.Remove = []string{id}
					kept = ids[:slices.Index(ids, id)]
				} else {
					wire.Add = []string{randomBestEffort(rng, tp.Hosts(), fmt.Sprintf("loc%d", step), step)}
				}
				d, err := c.DecodeDelta(wire)
				if err != nil {
					t.Fatal(err)
				}
				lowered := c.Stats().PlansLowered
				diff, err := c.Update(d)
				if err != nil {
					t.Fatalf("%s seed %d step %d (%s): %v", spec.Topo, seed, step, label, err)
				}
				checkCold(t, c, spec, opts, step, label)
				lowered = c.Stats().PlansLowered - lowered
				now := c.Result().Policy.Statements
				want := sumPlans(now[len(kept):])
				if label == "remove" && len(kept) > 0 {
					if keep := sumPlans(now[:len(kept)]); merlin.UndoPerKept*keep < sumPlans(prev.Policy.Statements)-keep {
						want += keep // past the crossover: every plan lowers
					} else {
						resumedRemoves++
					}
				}
				if lowered != want {
					t.Fatalf("%s seed %d step %d (%s): lowered %d plans, want %d", spec.Topo, seed, step, label, lowered, want)
				}
				for _, name := range targets {
					before := stmtEntries(t, tp, name, prev.IR, kept)
					after := stmtEntries(t, tp, name, c.Result().IR, kept)
					if !reflect.DeepEqual(before, after) {
						t.Fatalf("%s seed %d step %d (%s): %s entries of the %d statements before the edit changed",
							spec.Topo, seed, step, label, name, len(kept))
					}
					if rm := diff.Backends[name].Remove; label == "add" && len(rm) != 0 {
						t.Fatalf("%s seed %d step %d: add removed %d %s entries, first %q",
							spec.Topo, seed, step, len(rm), name, rm[0].Text)
					}
				}
				if label == "add" {
					adds++
				} else {
					removes++
				}
			}
		}
	}
	if adds == 0 || resumedRemoves == 0 {
		t.Fatalf("ran %d adds and %d removes, %d of them resumed; want adds and resumed removes",
			adds, removes, resumedRemoves)
	}
	t.Logf("%d adds, %d removes (%d resumed)", adds, removes, resumedRemoves)
}

// stmtEntries renders through one backend the rules prog lowered for the
// given statements, in program order.
func stmtEntries(t *testing.T, tp *merlin.Topology, target string, prog *codegen.Program, ids []string) []codegen.Entry {
	t.Helper()
	sub := &codegen.Program{}
	for _, r := range prog.Rules {
		if slices.Contains(ids, r.Stmt) {
			sub.Rules = append(sub.Rules, r)
		}
	}
	b, _ := codegen.Lookup(target)
	art, err := b.Emit(tp, sub)
	if err != nil {
		t.Fatal(err)
	}
	return art.Entries()
}
