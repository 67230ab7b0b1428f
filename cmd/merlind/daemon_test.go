package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"merlin"
	"merlin/internal/journal"
	"merlin/internal/topo"
)

// fatTreeConfig builds a daemon config over a pristine FatTree(4) with a
// two-statement genesis policy confined to pod 0 — restart tests hand a
// fresh topology to every boot, the way a restarted process would.
func fatTreeConfig(dir string) Config {
	tp := merlin.FatTree(4, merlin.Gbps)
	return Config{
		DataDir:    dir,
		Topo:       tp,
		PolicyText: testPolicyText(tp),
		Journal:    journal.Params{NoSync: true},
	}
}

func testPolicyText(tp *merlin.Topology) string {
	return fmt.Sprintf(
		"[ g0 : (eth.src = %s and eth.dst = %s) -> %s at min(10Mbps) ; g1 : (eth.src = %s and eth.dst = %s) -> %s at min(15Mbps) ]",
		mac(tp, "h0_0_0"), mac(tp, "h0_1_0"), podExpr(0),
		mac(tp, "h0_0_1"), mac(tp, "h0_1_1"), podExpr(0))
}

func mac(tp *merlin.Topology, name string) string {
	return topo.MACOf(tp.MustLookup(name))
}

func podExpr(p int) string {
	var names []string
	for i := 0; i < 2; i++ {
		names = append(names, fmt.Sprintf("agg%d_%d", p, i), fmt.Sprintf("edge%d_%d", p, i))
		for h := 0; h < 2; h++ {
			names = append(names, fmt.Sprintf("h%d_%d_%d", p, i, h))
		}
	}
	return "( " + strings.Join(names, " | ") + " )*"
}

// podDelta is a WireDelta adding one guaranteed statement inside pod p.
func podDelta(tp *merlin.Topology, p int, id string, mbps int) merlin.WireDelta {
	stmt := fmt.Sprintf("%s : (eth.src = %s and eth.dst = %s) -> %s at min(%dMbps)",
		id, mac(tp, fmt.Sprintf("h%d_0_0", p)), mac(tp, fmt.Sprintf("h%d_1_1", p)), podExpr(p), mbps)
	return merlin.WireDelta{Add: []string{stmt}}
}

// post sends body as JSON and decodes the JSON reply; it reports errors
// instead of failing a test so storm goroutines can use it.
func post(url string, body any) (int, map[string]any, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	err = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, err
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	status, out, err := post(url, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return status, out
}

// sameResults asserts two compiled results are byte-identical in every
// output-bearing field (the restart correctness bar).
func sameResults(t *testing.T, label string, got, want *merlin.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got == nil, want == nil)
	}
	for name, check := range map[string]bool{
		"paths":       reflect.DeepEqual(got.Paths, want.Paths),
		"placements":  reflect.DeepEqual(got.Placements, want.Placements),
		"allocations": reflect.DeepEqual(got.Allocations, want.Allocations),
		"outputs":     reflect.DeepEqual(got.Outputs, want.Outputs),
	} {
		if !check {
			t.Fatalf("%s: %s differ", label, name)
		}
	}
}

// referenceCompiler replays the same operation history against a fresh
// compiler, the oracle every restarted daemon must match byte-for-byte.
func referenceCompiler(t *testing.T, deltas []merlin.WireDelta, events []merlin.TopoEvent) *merlin.Compiler {
	t.Helper()
	tp := merlin.FatTree(4, merlin.Gbps)
	pol, err := merlin.ParsePolicy(testPolicyText(tp), tp)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(tp, nil, merlin.Options{})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	for _, w := range deltas {
		d, err := c.DecodeDelta(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		if _, err := c.ApplyTopo(ev); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDaemonGenesisWarmRestart drives the full lifecycle: genesis boot,
// policy delta and topology change over HTTP, clean shutdown (final
// snapshot), then a warm reboot whose compiled state — and behavior
// under further deltas — is byte-identical to a reference compiler that
// applied the same history.
func TestDaemonGenesisWarmRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDaemon(fatTreeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if d.Boot != "genesis" {
		t.Fatalf("first boot = %q, want genesis", d.Boot)
	}
	srv := httptest.NewServer(d.Handler())
	tp := merlin.FatTree(4, merlin.Gbps) // naming reference only

	delta := podDelta(tp, 1, "g2", 20)
	status, body := postJSON(t, srv.URL+"/v1/delta", delta)
	if status != http.StatusOK {
		t.Fatalf("delta: %d %v", status, body)
	}
	if body["seq"].(float64) != 2 { // seq 1 is the genesis policy record
		t.Fatalf("delta seq = %v, want 2", body["seq"])
	}
	event := merlin.CapacityChange("edge0_0", "h0_0_0", 800*merlin.Mbps)
	status, body = postJSON(t, srv.URL+"/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{event}))
	if status != http.StatusOK {
		t.Fatalf("topo: %d %v", status, body)
	}
	if body["applied"].(float64) != 1 {
		t.Fatalf("topo applied = %v, want 1", body["applied"])
	}
	srv.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ref := referenceCompiler(t, []merlin.WireDelta{delta}, []merlin.TopoEvent{event})

	d2, err := NewDaemon(fatTreeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Boot != "warm" {
		t.Fatalf("second boot = %q, want warm (clean shutdown snapshots)", d2.Boot)
	}
	sameResults(t, "warm restart", d2.c.Result(), ref.Result())

	// The warm compiler must keep working incrementally, not just render.
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	delta2 := podDelta(tp, 2, "g3", 25)
	if status, body := postJSON(t, srv2.URL+"/v1/delta", delta2); status != http.StatusOK {
		t.Fatalf("post-restart delta: %d %v", status, body)
	}
	rd, err := ref.DecodeDelta(delta2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Update(rd); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-restart delta", d2.c.Result(), ref.Result())

	resp, err := http.Get(srv2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Boot string `json:"boot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Boot != "warm" {
		t.Fatalf("/v1/stats boot = %q, want warm", stats.Boot)
	}
}

// TestDaemonCrashRecoveryTornTail is the crash-recovery acceptance test:
// the daemon dies without shutdown mid-write (simulated by truncating
// the final journal record), and the restarted daemon's compiled output
// is byte-identical to a reference compiler that applied only the
// durably-acknowledged operations.
func TestDaemonCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDaemon(fatTreeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	tp := merlin.FatTree(4, merlin.Gbps)

	deltas := []merlin.WireDelta{
		podDelta(tp, 1, "g2", 20),
		podDelta(tp, 2, "g3", 25),
		podDelta(tp, 3, "g4", 30),
	}
	for i, w := range deltas {
		status, body := postJSON(t, srv.URL+"/v1/delta", w)
		if status != http.StatusOK {
			t.Fatalf("delta %d: %d %v", i, status, body)
		}
	}
	srv.Close() // crash: no d.Close(), journal left as-written

	// Tear the final record: the crash hit mid-append of g4's frame.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no journal segments: %v %v", logs, err)
	}
	sort.Strings(logs)
	last := logs[len(logs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	// Only g2 and g3 survived durably; g4's record is torn and dropped.
	ref := referenceCompiler(t, deltas[:2], nil)

	d2, err := NewDaemon(fatTreeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Boot != "replay" {
		t.Fatalf("crash boot = %q, want replay (no snapshot was taken)", d2.Boot)
	}
	if d2.TornBytes == 0 {
		t.Fatal("recovery did not report the torn tail")
	}
	if d2.BootSeq != 3 { // genesis + g2 + g3
		t.Fatalf("recovered seq = %d, want 3", d2.BootSeq)
	}
	sameResults(t, "crash recovery", d2.c.Result(), ref.Result())

	// The client retries the lost operation; its sequence slot is reused.
	srv2 := httptest.NewServer(d2.Handler())
	status, body := postJSON(t, srv2.URL+"/v1/delta", deltas[2])
	if status != http.StatusOK {
		t.Fatalf("retried delta: %d %v", status, body)
	}
	if body["seq"].(float64) != 4 {
		t.Fatalf("retried delta seq = %v, want 4", body["seq"])
	}
	srv2.Close()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third boot is warm off the shutdown snapshot and matches the
	// full history.
	ref2 := referenceCompiler(t, deltas, nil)
	d3, err := NewDaemon(fatTreeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Boot != "warm" {
		t.Fatalf("third boot = %q, want warm", d3.Boot)
	}
	sameResults(t, "post-retry warm restart", d3.c.Result(), ref2.Result())
}

// hubRingConfig is a daemon config over an 8-ring whose genesis policy
// caps one host pair — the statement the hub tests delegate.
func hubRingConfig(dir string) Config {
	tp := merlin.Ring(8, 1, 100*merlin.MBps)
	var names []string
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("s%d", i), fmt.Sprintf("h%d_0", i))
	}
	return Config{
		DataDir: dir,
		Topo:    tp,
		PolicyText: fmt.Sprintf("[ a0 : (eth.src = %s and eth.dst = %s) -> (%s)* at max(40MB/s) ]",
			mac(tp, "h0_0"), mac(tp, "h3_0"), strings.Join(names, "|")),
		Opts:    merlin.Options{NoDefault: true},
		Journal: journal.Params{NoSync: true},
	}
}

// stageTenantA opens the one session the hub tests drive and stages a
// demand for it, so the next tick commits.
func stageTenantA(t *testing.T, url string) {
	t.Helper()
	status, body := postJSON(t, url+"/v1/hub/register", hubRequest{
		Tenant: "tenant-a", Shard: "left", ShardCapacityBps: 100 * merlin.MBps,
		Statements: []string{"a0"},
		AllocBps:   10 * merlin.MBps, IncreaseBps: 5 * merlin.MBps, Decrease: 0.5,
	})
	if status != http.StatusOK {
		t.Fatalf("register: %d %v", status, body)
	}
	if status, body = postJSON(t, url+"/v1/hub/demand", hubRequest{Tenant: "tenant-a", DemandBps: 60 * merlin.MBps}); status != http.StatusOK {
		t.Fatalf("demand: %d %v", status, body)
	}
}

// TestDaemonHubTickJournaled runs negotiation through the daemon: a
// committed tick journals the hub's full policy, a restart reproduces
// the committed allocation byte-identically, and hub sessions are
// volatile — the tenant must re-register after the restart.
func TestDaemonHubTickJournaled(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDaemon(hubRingConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())

	stageTenantA(t, srv.URL)
	status, body := postJSON(t, srv.URL+"/v1/hub/tick", nil)
	if status != http.StatusOK {
		t.Fatalf("tick: %d %v", status, body)
	}
	if body["committed"] != true {
		t.Fatalf("tick did not commit: %v", body)
	}
	if body["seq"].(float64) == 0 {
		t.Fatal("committed tick was not journaled")
	}
	committedPolicy := d.hub.Policy().String()
	srv.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDaemon(hubRingConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, err := d2.c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Policy != committedPolicy {
		t.Fatalf("restart lost the hub-committed policy:\n got %s\nwant %s", snap.Policy, committedPolicy)
	}
	// Sessions are volatile: demand for the old session is a 404 until
	// the tenant re-registers.
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	if status, _ := postJSON(t, srv2.URL+"/v1/hub/demand", hubRequest{Tenant: "tenant-a", DemandBps: merlin.MBps}); status != http.StatusNotFound {
		t.Fatalf("stale session demand = %d, want 404", status)
	}
}

// TestDaemonHubRoutesRequirePost pins the method check on the mutating
// hub routes: a body-less GET must not reach the apply loop (it would run
// and journal the op), while a body-less POST tick stays valid.
func TestDaemonHubRoutesRequirePost(t *testing.T) {
	d, err := NewDaemon(hubRingConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	stageTenantA(t, srv.URL)
	before, seq := d.c.Result(), d.store.LastSeq()
	for _, route := range []string{"tick", "register", "demand", "propose"} {
		resp, err := http.Get(srv.URL + "/v1/hub/" + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/hub/%s = %d, want 405", route, resp.StatusCode)
		}
	}
	if d.store.LastSeq() != seq || d.c.Result() != before {
		t.Fatal("a GET on a hub route mutated the daemon")
	}

	// The staged demand is still pending: a body-less POST commits it.
	resp, err := http.Post(srv.URL+"/v1/hub/tick", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || d.store.LastSeq() != seq+1 {
		t.Fatalf("body-less POST tick = %d, journal %d -> %d; want one committed 200",
			resp.StatusCode, seq, d.store.LastSeq())
	}
}

// TestDaemonOversizeBodyRejected posts a body over maxBodyBytes: the
// daemon answers 413, and neither the compiled result nor the journal
// moves.
func TestDaemonOversizeBodyRejected(t *testing.T) {
	d, err := NewDaemon(fatTreeConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	before, seq := d.c.Result(), d.store.LastSeq()
	huge := merlin.WireDelta{Add: []string{strings.Repeat("x", maxBodyBytes)}}
	if status, _ := postJSON(t, srv.URL+"/v1/delta", huge); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit delta = %d, want 413", status)
	}
	if d.store.LastSeq() != seq || d.c.Result() != before {
		t.Fatal("rejected over-limit body mutated the daemon")
	}
}

// TestDaemonTopoStormCoalesces: a switch failure and its link alarms
// arrive as separate concurrent requests inside the debounce window, and
// collectTopo folds them into one recompile and one journal record,
// acking every request.
func TestDaemonTopoStormCoalesces(t *testing.T) {
	dir := t.TempDir()
	cfg := fatTreeConfig(dir)
	cfg.Debounce = time.Second
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())

	storm := []merlin.TopoEvent{
		merlin.SwitchFailure("agg0_0"),
		merlin.LinkFailure("agg0_0", "edge0_0"),
		merlin.LinkFailure("agg0_0", "edge0_1"),
	}
	base, seq := d.c.Stats(), d.store.LastSeq()
	type reply struct {
		status int
		body   map[string]any
		err    error
	}
	replies := make(chan reply, len(storm))
	for _, ev := range storm {
		go func(ev merlin.TopoEvent) {
			var r reply
			r.status, r.body, r.err = post(srv.URL+"/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{ev}))
			replies <- r
		}(ev)
	}
	for range storm {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("storm request = %d %v (%v), want 200", r.status, r.body, r.err)
		}
		if r.body["seq"].(float64) != float64(seq+1) || r.body["coalesced"].(float64) != float64(len(storm)) {
			t.Fatalf("storm request not acked by the one coalesced batch: %v", r.body)
		}
	}
	if got := d.c.Stats().Updates - base.Updates; got != 1 {
		t.Fatalf("storm cost %d updates, want 1", got)
	}
	srv.Close()

	if topo, n := journalTopo(t, dir); len(topo) != 1 || n != int(seq)+1 {
		t.Fatalf("journal holds %d topo records of %d, want 1 of %d", len(topo), n, seq+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalTopo reads the journal back and decodes its RecTopo records,
// one batch each, along with the number of records it holds. Call it
// before Close snapshots past the records.
func journalTopo(t *testing.T, dir string) (batches [][]merlin.WireTopoEvent, records int) {
	t.Helper()
	peek, rec, err := journal.Open(dir, journal.Params{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	peek.Close()
	for _, r := range rec.Records {
		if r.Kind != merlin.RecTopo {
			continue
		}
		var batch []merlin.WireTopoEvent
		if err := json.Unmarshal(r.Data, &batch); err != nil {
			t.Fatalf("topo record %d: %v", r.Seq, err)
		}
		batches = append(batches, batch)
	}
	return batches, len(rec.Records)
}

// TestDaemonTopoCoalescedRepliesPerRequest: a malformed request sent
// alongside a valid one is answered as if each had been sent alone. The
// valid request gets 200 with its own applied count and no error, the
// malformed one gets 422 with its own error and joins no batch, and the
// journal holds one record with only the valid event.
func TestDaemonTopoCoalescedRepliesPerRequest(t *testing.T) {
	dir := t.TempDir()
	cfg := fatTreeConfig(dir)
	cfg.Debounce = time.Second
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	valid := merlin.LinkFailure("agg0_0", "edge0_0")
	bad := merlin.LinkFailure("no-such", "agg0_0")
	type reply struct {
		status int
		body   map[string]any
		err    error
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	for i, ev := range []merlin.TopoEvent{valid, bad} {
		wg.Add(1)
		go func(i int, ev merlin.TopoEvent) {
			defer wg.Done()
			r := &replies[i]
			r.status, r.body, r.err = post(srv.URL+"/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{ev}))
		}(i, ev)
	}
	wg.Wait()
	for i, r := range replies {
		if want := float64(1 - i); r.err != nil || r.body["coalesced"] != want {
			t.Fatalf("reply %d: %v (%v), want coalesced %v: only the valid event joins the batch", i, r.body, r.err, want)
		}
	}
	if r := replies[0]; r.status != http.StatusOK || r.body["applied"] != 1.0 || r.body["errors"] != nil {
		t.Fatalf("valid request = %d %v, want 200, applied 1, no errors", r.status, r.body)
	}
	r := replies[1]
	errs, _ := r.body["errors"].([]any)
	if r.status != http.StatusUnprocessableEntity || r.body["applied"] != 0.0 || r.body["seq"] != 0.0 ||
		len(errs) != 1 || !strings.Contains(errs[0].(string), "no-such") {
		t.Fatalf("malformed request = %d %v, want 422, applied 0, seq 0, its own unknown-node error", r.status, r.body)
	}
	topo, _ := journalTopo(t, dir)
	if want := merlin.WireTopoEvents([]merlin.TopoEvent{valid}); len(topo) != 1 || !reflect.DeepEqual(topo[0], want) {
		t.Fatalf("journal topo records = %v, want one holding only %v", topo, want)
	}
}

// TestDaemonTopoMalformedRequestKeepsStormWhole: one malformed request
// inside a storm's debounce window neither splits the storm nor costs a
// recompile. The three valid link failures go through one Update and one
// journal record and share one seq; the malformed request alone gets 422
// with seq 0 and its own error.
func TestDaemonTopoMalformedRequestKeepsStormWhole(t *testing.T) {
	dir := t.TempDir()
	cfg := fatTreeConfig(dir)
	cfg.Debounce = time.Second
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	valid := []merlin.TopoEvent{
		merlin.LinkFailure("agg1_0", "edge1_0"),
		merlin.LinkFailure("agg2_0", "edge2_0"),
		merlin.LinkFailure("agg3_0", "edge3_0"),
	}
	bad := merlin.LinkFailure("no-such", "agg0_0")
	reqs := append(valid[:3:3], bad)
	type reply struct {
		status int
		body   map[string]any
		err    error
	}
	base := d.c.Stats()
	replies := make([]reply, len(reqs))
	var wg sync.WaitGroup
	for i, ev := range reqs {
		wg.Add(1)
		go func(i int, ev merlin.TopoEvent) {
			defer wg.Done()
			r := &replies[i]
			r.status, r.body, r.err = post(srv.URL+"/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{ev}))
		}(i, ev)
	}
	wg.Wait()
	if got := d.c.Stats().Updates - base.Updates; got != 1 {
		t.Fatalf("storm with a malformed neighbour cost %d updates, want 1", got)
	}
	seq := replies[0].body["seq"]
	for i, r := range replies[:len(valid)] {
		if r.err != nil || r.status != http.StatusOK || r.body["applied"] != 1.0 || r.body["errors"] != nil ||
			r.body["coalesced"] != float64(len(valid)) || r.body["seq"] != seq || seq == 0.0 {
			t.Fatalf("valid request %d = %d %v (%v), want 200, applied 1, coalesced %d, shared seq %v",
				i, r.status, r.body, r.err, len(valid), seq)
		}
	}
	r := replies[len(valid)]
	errs, _ := r.body["errors"].([]any)
	if r.err != nil || r.status != http.StatusUnprocessableEntity || r.body["seq"] != 0.0 ||
		len(errs) != 1 || !strings.Contains(errs[0].(string), "no-such") {
		t.Fatalf("malformed request = %d %v (%v), want 422, seq 0, its own unknown-node error", r.status, r.body, r.err)
	}
	topo, _ := journalTopo(t, dir)
	if len(topo) != 1 {
		t.Fatalf("journal holds %d topo records, want 1", len(topo))
	}
	got := topo[0] // arrival order; valid is sorted by A
	sort.Slice(got, func(i, j int) bool { return got[i].A < got[j].A })
	if want := merlin.WireTopoEvents(valid); !reflect.DeepEqual(got, want) {
		t.Fatalf("journaled topo record = %v, want exactly the valid events %v", got, want)
	}
}

// TestDaemonDebounceSeparatesTopoBursts: debouncing does not merge bursts
// separated by more than the window. Two requests a full window apart
// are two batches: two seqs, two journal records, two recompiles.
func TestDaemonDebounceSeparatesTopoBursts(t *testing.T) {
	dir := t.TempDir()
	cfg := fatTreeConfig(dir)
	cfg.Debounce = 20 * time.Millisecond
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	base := d.c.Stats()
	var seqs []float64
	for i, ev := range []merlin.TopoEvent{
		merlin.LinkFailure("agg0_0", "edge0_0"),
		merlin.LinkFailure("agg1_0", "edge1_0"),
	} {
		if i > 0 {
			time.Sleep(300 * time.Millisecond) // well past the window
		}
		status, body := postJSON(t, srv.URL+"/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{ev}))
		if status != http.StatusOK || body["coalesced"] != 1.0 {
			t.Fatalf("burst %d = %d %v, want 200 with coalesced 1", i, status, body)
		}
		seqs = append(seqs, body["seq"].(float64))
	}
	if seqs[0] == seqs[1] {
		t.Fatalf("separate bursts shared seq %v", seqs[0])
	}
	if got := d.c.Stats().Updates - base.Updates; got != 2 {
		t.Fatalf("separate bursts cost %d updates, want 2", got)
	}
	if topo, _ := journalTopo(t, dir); len(topo) != 2 {
		t.Fatalf("journal holds %d topo records, want 2", len(topo))
	}
}

func TestParseTopoSpec(t *testing.T) {
	for _, spec := range []string{"fattree,k=4", "ring,n=8,hosts=1,cap=1e8", "linear,n=4", "star,n=4,hosts=2", "example"} {
		if _, err := ParseTopoSpec(spec); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	for _, spec := range []string{"mesh,k=4", "fattree,k", "ring,n=x"} {
		if _, err := ParseTopoSpec(spec); err == nil {
			t.Errorf("%s: expected error", spec)
		}
	}
}
