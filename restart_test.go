package merlin

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"merlin/internal/policy"
)

// sameResults asserts two compiled results are byte-identical across
// every section — the snapshot/restore and journal-replay invariant.
func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s: paths differ: %v vs %v", label, got.Paths, want.Paths)
	}
	if !reflect.DeepEqual(got.Placements, want.Placements) {
		t.Fatalf("%s: placements differ", label)
	}
	if !reflect.DeepEqual(got.Allocations, want.Allocations) {
		t.Fatalf("%s: allocations differ", label)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: backend artifacts differ", label)
	}
}

// TestWatchHubRebindDetachesOldHub is the WatchHub lifecycle regression:
// rebinding a compiler to a second hub must detach the first — before
// the fix, hub A's commits kept recompiling this compiler forever.
func TestWatchHubRebindDetachesOldHub(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := hubRingPolicy(t, tp, "at max(40MB/s)")
	hubA, err := NewHub(pol, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hubB, err := NewHub(pol, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(hubA.Policy()); err != nil {
		t.Fatal(err)
	}

	setup := func(h *Hub) *Session {
		t.Helper()
		if err := h.AddShard("left", 100*MBps); err != nil {
			t.Fatal(err)
		}
		s, err := h.Register("tenant-a", "left", []string{"a0"},
			AIMDState{Alloc: 10 * MBps, Increase: 5 * MBps, Decrease: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb := setup(hubA), setup(hubB)

	var diffsA, diffsB []*Diff
	c.WatchHub(hubA, func(d *Diff) { diffsA = append(diffsA, d) })
	c.WatchHub(hubB, func(d *Diff) { diffsB = append(diffsB, d) })

	// Hub A commits after the rebind: the commit must not reach this
	// compiler — no recompile, no diff, no veto coupling.
	before := c.Result()
	sa.OfferDemand(60 * MBps)
	rep, err := hubA.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed {
		t.Fatal("hub A tick did not commit")
	}
	if len(diffsA) != 0 {
		t.Fatal("detached hub A's commit reached the old onDiff callback")
	}
	if c.Result() != before {
		t.Fatal("detached hub A's commit recompiled the compiler")
	}

	// Hub B is the live binding: its commit recompiles and lands a diff,
	// and Stats mirrors its counters (one session, one tick), not A's.
	sb.OfferDemand(60 * MBps)
	rep, err = hubB.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed {
		t.Fatal("hub B tick did not commit")
	}
	if len(diffsB) != 1 {
		t.Fatalf("live hub B's commit produced %d diffs, want 1", len(diffsB))
	}
	sameCompiled(t, "rebind", c.Result(), hubB.Policy(), tp, nil, Options{NoDefault: true})
	if st := c.Stats(); st.TicksBatched != 1 {
		t.Fatalf("Stats mirrors TicksBatched=%d, want hub B's 1", st.TicksBatched)
	}

	// UnwatchHub drops the binding entirely: hub B's next commit no
	// longer reaches the compiler and Stats stops mirroring.
	c.UnwatchHub()
	before = c.Result()
	sb.OfferDemand(90 * MBps)
	if _, err := hubB.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(diffsB) != 1 || c.Result() != before {
		t.Fatal("UnwatchHub did not detach hub B")
	}
	if st := c.Stats(); st.TenantsActive != 0 || st.TicksBatched != 0 {
		t.Fatalf("Stats still mirrors an unbound hub: %+v", st)
	}
}

// TestSnapshotRestoreByteIdentical drives a compiler through policy and
// topology churn, snapshots it, restores onto a pristine topology, and
// asserts the restored compiler's output — and its own snapshot — are
// byte-identical to the live one's.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: a renegotiated rate, a link failure, a capacity change.
	if _, err := c.Update(Delta{Formula: minFormula(k, 2, 8*Mbps)}); err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])
	if _, err := c.ApplyTopo(LinkFailure(a, b)); err != nil {
		t.Fatal(err)
	}
	ca, cb := switchHop(t, tp, c.Result().Paths["t1g0"])
	if _, err := c.ApplyTopo(CapacityChange(ca, cb, 900*Mbps)); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := ParseSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}

	restored, res, err := RestoreCompiler(FatTree(k, Gbps), snap2, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "restore", res, c.Result())

	// The restored compiler is warm and live: the same follow-up delta
	// lands on both with identical results, and re-snapshotting yields
	// the same canonical bytes.
	if _, err := c.Update(Delta{Formula: minFormula(k, 2, 6*Mbps)}); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Update(Delta{Formula: minFormula(k, 2, 6*Mbps)}); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "restore+delta", restored.Result(), c.Result())

	reSnap, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	liveSnap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reBytes, _ := reSnap.Marshal()
	liveBytes, _ := liveSnap.Marshal()
	if string(reBytes) != string(liveBytes) {
		t.Fatalf("restored snapshot differs from live snapshot:\n%s\nvs\n%s", reBytes, liveBytes)
	}

	// Restoring onto a structurally different topology fails loudly.
	if _, _, err := RestoreCompiler(FatTree(k+2, Gbps), snap2, opts); err == nil {
		t.Fatal("restore onto a mismatched topology succeeded")
	}
}

// TestSnapshotRestoreNonRoundRates: negotiated caps are arbitrary floats
// (AIMD halving leaves fractional kbps), and the snapshot carries them as
// policy text — they must restore to the identical rates.
func TestSnapshotRestoreNonRoundRates(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	opts := Options{NoDefault: true}
	c := NewCompiler(tp, nil, opts)
	if _, err := c.Compile(hubRingPolicy(t, tp, "at max(40MB/s)")); err != nil {
		t.Fatal(err)
	}
	caps := policy.ConjFormula(
		policy.Max{Expr: policy.BandExpr{IDs: []string{"a0"}}, Rate: 210937.5e3},
		policy.Max{Expr: policy.BandExpr{IDs: []string{"b0"}}, Rate: 1234567e3})
	if _, err := c.Update(Delta{Formula: caps}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := ParseSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := RestoreCompiler(Ring(8, 1, 100*MBps), snap2, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	sameResults(t, "restore", res, c.Result())
	if got := res.Allocations["a0"].Max; got != 210937.5e3 {
		t.Fatalf("restored a0 cap %v, want 210937500", got)
	}
}

// TestSnapshotBeforeCompile: there is nothing to snapshot before the
// first successful Compile.
func TestSnapshotBeforeCompile(t *testing.T) {
	c := NewCompiler(Ring(4, 1, Gbps), nil, Options{NoDefault: true})
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot before first Compile succeeded")
	}
}

// TestWireDeltaDecode covers the HTTP/journal delta codec: adds in
// concrete syntax (with and without "at" rate sugar), removes with a
// replacement formula, and the identity fast path for formula-free adds.
func TestWireDeltaDecode(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	pol := tenantRingPolicy(t, tp, "10MB/s")
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	arc := func(lo, hi int) string {
		var names []string
		for i := lo; i < hi; i++ {
			names = append(names, fmt.Sprintf("s%d", i), fmt.Sprintf("h%d_0", i))
		}
		return "(" + strings.Join(names, "|") + ")*"
	}
	mac := func(host string) string {
		id, _ := tp.Identities().Of(tp.MustLookup(host))
		return id.MAC
	}

	// An "at" clause on an added statement conjoins into the formula,
	// so the decoded delta must carry the new formula even though the
	// wire form's Formula field is empty.
	addC0 := fmt.Sprintf("c0 : (eth.src = %s and eth.dst = %s) -> %s at min(5MB/s)",
		mac("h1_0"), mac("h2_0"), arc(0, 4))
	d, err := c.DecodeDelta(WireDelta{Add: []string{addC0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Add) != 1 || d.Add[0].ID != "c0" {
		t.Fatalf("decoded adds = %v, want [c0]", d.Add)
	}
	if d.Formula == nil {
		t.Fatal("at-clause add decoded without a formula change")
	}
	if _, err := c.Update(d); err != nil {
		t.Fatal(err)
	}
	wantSrc := fmt.Sprintf(`[ a0 : (eth.src = %s and eth.dst = %s) -> %s at min(20MB/s)
	  b0 : (eth.src = %s and eth.dst = %s) -> %s at min(10MB/s)
	  %s ]`,
		mac("h0_0"), mac("h3_0"), arc(0, 4),
		mac("h4_0"), mac("h7_0"), arc(4, 8), addC0)
	wantPol, err := ParsePolicy(wantSrc, tp)
	if err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "wire-add", c.Result(), wantPol, tp, nil, Options{NoDefault: true})

	// Remove + replacement formula (the formula must stop referencing
	// the removed statement; Validate enforces it either way).
	d, err = c.DecodeDelta(WireDelta{
		Remove:  []string{"c0"},
		Formula: "min(a0, 20MB/s) and min(b0, 10MB/s)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Add) != 0 || len(d.Remove) != 1 || d.Formula == nil {
		t.Fatalf("decoded remove delta = %+v", d)
	}
	if _, err := c.Update(d); err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "wire-remove", c.Result(), pol, tp, nil, Options{NoDefault: true})

	// A formula-only wire delta decodes with nil Add/Remove, preserving
	// Update's statement-identity fast path.
	d, err = c.DecodeDelta(WireDelta{Formula: "min(a0, 20MB/s) and min(b0, 5MB/s)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Add) != 0 || len(d.Remove) != 0 || d.Formula == nil {
		t.Fatalf("formula-only delta decoded as %+v", d)
	}
	base := c.Stats()
	if _, err := c.Update(d); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.StatementBuilds != base.StatementBuilds {
		t.Fatal("formula-only wire delta rebuilt statement artifacts")
	}

	// Malformed and colliding adds are rejected at decode time.
	if _, err := c.DecodeDelta(WireDelta{Add: []string{"not a statement"}}); err == nil {
		t.Fatal("malformed add decoded")
	}
	dupA0 := fmt.Sprintf("a0 : (eth.src = %s and eth.dst = %s) -> %s",
		mac("h1_0"), mac("h2_0"), arc(0, 4))
	if _, err := c.DecodeDelta(WireDelta{Add: []string{dupA0}}); err == nil {
		t.Fatal("add colliding with a kept statement decoded")
	}
	// So is a path whose thirty '+' would expand to a billion nodes.
	bomb := "p : true -> h1_0" + strings.Repeat("+", 30)
	if _, err := c.DecodeDelta(WireDelta{Add: []string{bomb}}); err == nil || !strings.Contains(err.Error(), "expands past") {
		t.Fatalf("'+' bomb: err = %v, want an expansion error", err)
	}
}

// TestApplyJournalRecordReplay replays a genesis-policy record, a wire
// delta, and a topology batch into a fresh compiler and asserts the
// result is byte-identical to a compiler driven through the live calls.
func TestApplyJournalRecordReplay(t *testing.T) {
	const k = 4
	opts := Options{NoDefault: true}

	// Live compiler: compile, renegotiate, fail a link.
	liveTopo := FatTree(k, Gbps)
	pol := podPolicy(t, liveTopo, k, 2)
	live := NewCompiler(liveTopo, nil, opts)
	first, err := live.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	newFormula := minFormula(k, 2, 8*Mbps)
	if _, err := live.Update(Delta{Formula: newFormula}); err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, liveTopo, first.Paths["t0g0"])
	applied := live.ApplyTopoBatch([]TopoEvent{LinkFailure(a, b)}, nil, nil)
	if len(applied) != 1 {
		t.Fatalf("ApplyTopoBatch applied %d events, want 1", len(applied))
	}

	// The journal merlind would have written for that history.
	deltaJSON, err := json.Marshal(WireDelta{Formula: newFormula.String()})
	if err != nil {
		t.Fatal(err)
	}
	topoJSON, err := json.Marshal(WireTopoEvents(applied))
	if err != nil {
		t.Fatal(err)
	}
	records := []struct {
		kind byte
		data []byte
	}{
		{RecPolicy, []byte(pol.String())},
		{RecDelta, deltaJSON},
		{RecTopo, topoJSON},
	}

	replayed := NewCompiler(FatTree(k, Gbps), nil, opts)
	for i, r := range records {
		if err := ApplyJournalRecord(replayed, r.kind, r.data); err != nil {
			t.Fatalf("replay record %d: %v", i, err)
		}
	}
	sameResults(t, "journal-replay", replayed.Result(), live.Result())

	// Unknown kinds and mismatched topologies fail loudly.
	if err := ApplyJournalRecord(replayed, 99, nil); err == nil {
		t.Fatal("unknown record kind replayed")
	}
	badTopo, _ := json.Marshal([]WireTopoEvent{{Kind: "link-down", A: "no-such", B: "nodes"}})
	if err := ApplyJournalRecord(replayed, RecTopo, badTopo); err == nil {
		t.Fatal("topology record naming unknown nodes replayed")
	}
}

// TestApplyTopoBatchReportsApplied pins the durability hook: the return
// value lists exactly the events that mutated the topology.
func TestApplyTopoBatchReportsApplied(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := switchHop(t, tp, first.Paths["t0g0"])

	// Full success: the whole batch.
	batch := []TopoEvent{LinkFailure(a, b), LinkRecovery(a, b)}
	if applied := c.ApplyTopoBatch(batch, nil, nil); !reflect.DeepEqual(applied, batch) {
		t.Fatalf("clean batch applied %v, want %v", applied, batch)
	}

	// Mixed batch: only the valid event is applied (and reported).
	var errs []error
	mixed := []TopoEvent{LinkFailure("no-such-node", a), LinkFailure(a, b)}
	applied := c.ApplyTopoBatch(mixed, nil, func(err error) { errs = append(errs, err) })
	if len(applied) != 1 || applied[0] != mixed[1] {
		t.Fatalf("mixed batch applied %v, want only the valid failure", applied)
	}
	if len(errs) != 1 {
		t.Fatalf("mixed batch reported %d errors, want 1", len(errs))
	}

	// Single malformed event: nothing applied.
	if applied := c.ApplyTopoBatch([]TopoEvent{LinkFailure("nope", a)}, nil, nil); applied != nil {
		t.Fatalf("malformed single event applied %v, want nil", applied)
	}

	// Post-apply recompile failure: the events stuck, so the batch is
	// still reported applied — journaling it is what makes a restart
	// reproduce the live compiler's degraded-topology state. Starving
	// t0g0's access link (its only way out of the host) below the 10Mbps
	// guarantee has no reroute, so the recompile must fail.
	infeasible := []TopoEvent{CapacityChange("edge0_0", "h0_0_0", Mbps)}
	errs = nil
	applied = c.ApplyTopoBatch(infeasible, nil, func(err error) { errs = append(errs, err) })
	if len(errs) != 1 {
		t.Fatalf("infeasible capacity drop reported %d errors, want 1", len(errs))
	}
	if !reflect.DeepEqual(applied, infeasible) {
		t.Fatalf("stuck-but-failed batch applied %v, want %v (events are facts)", applied, infeasible)
	}
	if l, ok := tp.FindLink(tp.MustLookup("edge0_0"), tp.MustLookup("h0_0_0")); ok && tp.Link(l.ID).Capacity != Mbps {
		t.Fatal("infeasible capacity change rolled back")
	}
}

// TestStatsDuringTopoStormRace hammers the daemon's read endpoints —
// Stats, Result, NegotiationShards, Snapshot — while a goroutine applies
// a storm of capacity events through ApplyTopoBatch underneath, with a
// hub bound so the Stats mirror path is exercised too. Run under -race,
// this pins the absence of unlocked reads on the /stats and /result paths.
func TestStatsDuringTopoStormRace(t *testing.T) {
	const k = 4
	tp := FatTree(k, Gbps)
	pol := podPolicy(t, tp, k, 2)
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(pol, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.WatchHub(hub, nil)
	a, b := switchHop(t, tp, first.Paths["t0g0"])

	events := make(chan TopoEvent)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			c.ApplyTopoBatch([]TopoEvent{ev}, nil, func(err error) { t.Errorf("storm: %v", err) })
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				if st.Compiles == 0 {
					t.Error("Stats lost the initial compile")
					return
				}
				if res := c.Result(); res == nil || len(res.Paths) == 0 {
					t.Error("Result went nil mid-storm")
					return
				}
				c.NegotiationShards()
				if _, err := c.Snapshot(); err != nil {
					t.Errorf("Snapshot mid-storm: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		capBps := float64(900+i%4) * Mbps
		events <- CapacityChange(a, b, capBps)
	}
	close(events)
	<-done
	close(stop)
	wg.Wait()
}
