// merlind is the long-running Merlin controller: it wraps the stateful
// incremental Compiler behind a small HTTP/JSON API and makes its state
// durable. Every accepted policy delta, topology batch, and hub-committed
// policy is appended to a CRC-framed, fsync-batched journal before the
// client is acknowledged; periodic snapshots capture the compiled state's
// canonical inputs (policy, topology, placement) so a restart loads the
// latest snapshot and replays only the journal tail into a warm compiler —
// restart-to-first-config in snapshot+tail time instead of a
// replay-from-genesis cold start.
//
// API (JSON unless noted):
//
//	POST /v1/delta     WireDelta               → apply + journal a policy delta
//	POST /v1/topo      [WireTopoEvent...]      → apply + journal topology events
//	POST /v1/snapshot                          → force a snapshot
//	POST /v1/hub/register {tenant,shard,...}   → open a negotiation session
//	POST /v1/hub/demand   {tenant,demand_bps}  → stage a demand update
//	POST /v1/hub/tick                          → batched AIMD tick (journals on commit)
//	POST /v1/hub/propose  {tenant,policy}      → verified proposal (journals on accept)
//	GET  /v1/stats                             → compiler + journal counters
//	GET  /v1/result                            → compiled-output summary
//	GET  /v1/policy                            → current policy (text/plain)
//	GET  /healthz                              → liveness
//
// Consistency model: one apply goroutine serializes every mutation, and
// each mutation is journaled in apply order before its HTTP response is
// written (ack-after-fsync). A crash can lose applied-but-unacked
// operations — the client retries — and never acknowledged ones. Hub
// sessions are deliberately volatile: reconnecting tenants re-register
// after a restart and AIMD re-converges, while every policy the hub
// *committed* is durable as a full-policy journal record. A direct
// /v1/delta while a hub is live resets the hub (its sessions dissolve):
// in hub mode, policy changes are expected to flow through proposals.
// /v1/delta appends its adds after every kept statement, so a policy
// ending in an explicit catch-all (say "zall : true -> .*") shadows
// them: they compile, but their rules never match a packet. To put an
// add in front, remove the catch-all in the same delta and add it back
// last under a new ID (an add may not reuse a removed ID).
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"merlin"
	"merlin/internal/journal"
)

// Config assembles a Daemon.
type Config struct {
	// DataDir is the journal + snapshot directory.
	DataDir string
	// Topo constructs the pristine topology (same spec every boot).
	Topo *merlin.Topology
	// PolicyText is the genesis policy, used only on first boot (ignored
	// once the journal exists).
	PolicyText string
	// Place is the genesis placement table (first boot only).
	Place merlin.Placement
	// Opts are the compiler options.
	Opts merlin.Options
	// SnapshotEvery snapshots after that many journal records (0 = only
	// on shutdown or explicit POST /v1/snapshot).
	SnapshotEvery int
	// Debounce holds a topology batch open after its first request, so
	// storms arriving as separate requests still coalesce into one
	// recompile and one journal record.
	Debounce time.Duration
	// Journal tunes the store (tests use NoSync).
	Journal journal.Params
}

// Daemon is one controller instance: a compiler, its journal, and the
// single apply loop every mutation is serialized through.
type Daemon struct {
	cfg   Config
	c     *merlin.Compiler
	store *journal.Store
	mux   *http.ServeMux

	ops      chan *op
	loopDone chan struct{}

	mu      sync.Mutex
	closed  bool
	submits sync.WaitGroup

	// Boot describes how this instance recovered, for /v1/stats and the
	// restart benchmark: "genesis", "replay" (journal from genesis), or
	// "warm" (snapshot + tail).
	Boot      string
	BootSeq   uint64 // journal sequence recovered up to
	TornBytes int64  // truncated torn-tail bytes, if any

	// Apply-loop-owned state (no lock: only the loop touches it).
	hub        *merlin.Hub
	sessions   map[string]*merlin.Session
	shards     map[string]bool
	sinceSnap  int
	applyBroke bool // last apply left (policy, topo) uncompilable; defer snapshots
}

type opKind int

const (
	opDelta opKind = iota
	opTopo
	opSnapshot
	opHubRegister
	opHubDemand
	opHubTick
	opHubPropose
)

type op struct {
	kind  opKind
	delta merlin.WireDelta
	topo  []merlin.TopoEvent
	hub   hubRequest
	reply chan opResult
	// topoErrs are the errors of the topology events admitTopo rejected.
	topoErrs []string
}

type opResult struct {
	status int
	body   any
}

type hubRequest struct {
	Tenant string `json:"tenant"`
	// Register:
	Shard            string   `json:"shard,omitempty"`
	ShardCapacityBps float64  `json:"shard_capacity_bps,omitempty"`
	Statements       []string `json:"statements,omitempty"`
	AllocBps         float64  `json:"alloc_bps,omitempty"`
	IncreaseBps      float64  `json:"increase_bps,omitempty"`
	Decrease         float64  `json:"decrease,omitempty"`
	// Demand:
	DemandBps float64 `json:"demand_bps,omitempty"`
	// Propose:
	Policy string `json:"policy,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// NewDaemon opens (or creates) the data directory, recovers durable
// state into a warm compiler, and readies the HTTP API. Start the
// listener with Handler(); stop with Close().
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("merlind: config has no topology")
	}
	store, rec, err := journal.Open(cfg.DataDir, cfg.Journal)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		store:     store,
		ops:       make(chan *op),
		loopDone:  make(chan struct{}),
		sessions:  map[string]*merlin.Session{},
		shards:    map[string]bool{},
		TornBytes: rec.TornBytes,
	}
	if err := d.bootstrap(rec); err != nil {
		store.Close()
		return nil, err
	}
	d.BootSeq = store.LastSeq()
	d.buildMux()
	go d.loop()
	return d, nil
}

// bootstrap rebuilds the compiler from the recovered snapshot + journal
// tail (warm), from the whole journal (replay), or from the genesis
// policy on first boot.
func (d *Daemon) bootstrap(rec *journal.Recovery) error {
	switch {
	case rec.Snapshot != nil:
		d.Boot = "warm"
		snap, err := merlin.ParseSnapshot(rec.Snapshot)
		if err != nil {
			return err
		}
		c, _, err := merlin.RestoreCompiler(d.cfg.Topo, snap, d.cfg.Opts)
		if err != nil {
			return err
		}
		d.c = c
	case len(rec.Records) > 0:
		d.Boot = "replay"
		d.c = merlin.NewCompiler(d.cfg.Topo, d.cfg.Place, d.cfg.Opts)
	default:
		d.Boot = "genesis"
		if strings.TrimSpace(d.cfg.PolicyText) == "" {
			return fmt.Errorf("merlind: empty journal and no genesis policy")
		}
		pol, err := merlin.ParsePolicy(d.cfg.PolicyText, d.cfg.Topo)
		if err != nil {
			return fmt.Errorf("merlind: genesis policy: %w", err)
		}
		c := merlin.NewCompiler(d.cfg.Topo, d.cfg.Place, d.cfg.Opts)
		if _, err := c.Compile(pol); err != nil {
			return fmt.Errorf("merlind: genesis compile: %w", err)
		}
		// Journal the canonical form so replay needs no policy file.
		if _, err := d.store.Append(merlin.RecPolicy, []byte(pol.String())); err != nil {
			return err
		}
		d.c = c
		d.sinceSnap = 1
		return nil
	}
	for i, r := range rec.Records {
		if err := merlin.ApplyJournalRecord(d.c, r.Kind, r.Data); err != nil {
			return fmt.Errorf("merlind: journal replay at record %d (seq %d): %w", i, r.Seq, err)
		}
	}
	d.sinceSnap = len(rec.Records)
	return nil
}

// submit hands an op to the apply loop and waits for its result.
func (d *Daemon) submit(o *op) opResult {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return opResult{http.StatusServiceUnavailable, errorBody{"daemon is shutting down"}}
	}
	d.submits.Add(1)
	d.mu.Unlock()
	o.reply = make(chan opResult, 1)
	d.ops <- o
	d.submits.Done()
	return <-o.reply
}

// loop is the single apply goroutine: every mutation applies, journals,
// and acknowledges here, in order.
func (d *Daemon) loop() {
	defer close(d.loopDone)
	var pending *op
	for {
		o := pending
		pending = nil
		if o == nil {
			var ok bool
			o, ok = <-d.ops
			if !ok {
				return
			}
		}
		if o.kind == opTopo {
			batch, next, open := d.collectTopo(o)
			d.applyTopoOps(batch)
			pending = next
			if !open {
				return
			}
			continue
		}
		d.apply(o)
	}
}

// collectTopo coalesces queued topology ops behind the first one, for
// up to Config.Debounce after it arrives, checking each as it joins
// (admitTopo). A non-topology op ends the batch and is returned for
// ordinary processing; open reports whether the op channel is still
// open.
func (d *Daemon) collectTopo(first *op) (batch []*op, next *op, open bool) {
	batch = d.admitTopo(nil, first)
	var expired <-chan time.Time // nil: take only what is already queued
	if d.cfg.Debounce > 0 {
		timer := time.NewTimer(d.cfg.Debounce)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		var o *op
		var ok bool
		if expired != nil {
			select {
			case o, ok = <-d.ops:
			case <-expired:
				return batch, nil, true
			}
		} else {
			select {
			case o, ok = <-d.ops:
			default:
				return batch, nil, true
			}
		}
		if !ok {
			return batch, nil, false
		}
		if o.kind != opTopo {
			return batch, o, true
		}
		batch = d.admitTopo(batch, o)
	}
}

// admitTopo checks a topology request as it joins the batch
// (Compiler.CheckTopo). A request with no valid event is answered at
// once with 422, seq 0 and its own errors, and stays out of the batch;
// any other joins with only its valid events, keeping its check errors
// for the reply.
func (d *Daemon) admitTopo(batch []*op, o *op) []*op {
	valid, errs := d.c.CheckTopo(o.topo)
	for _, err := range errs {
		o.topoErrs = append(o.topoErrs, err.Error())
	}
	if len(valid) == 0 {
		o.reply <- opResult{http.StatusUnprocessableEntity, map[string]any{
			"seq": 0, "applied": 0, "coalesced": 0,
			"install": 0, "remove": 0, "errors": o.topoErrs,
		}}
		return batch
	}
	o.topo = valid
	return append(batch, o)
}

func (d *Daemon) apply(o *op) {
	switch o.kind {
	case opDelta:
		o.reply <- d.applyDelta(o.delta)
	case opSnapshot:
		o.reply <- d.applySnapshot()
	case opHubRegister, opHubDemand, opHubTick, opHubPropose:
		o.reply <- d.applyHub(o)
	default:
		o.reply <- opResult{http.StatusInternalServerError, errorBody{"unknown op"}}
	}
}

func (d *Daemon) applyDelta(w merlin.WireDelta) opResult {
	delta, err := d.c.DecodeDelta(w)
	if err != nil {
		return opResult{http.StatusBadRequest, errorBody{err.Error()}}
	}
	diff, err := d.c.Update(delta)
	if err != nil {
		return opResult{http.StatusUnprocessableEntity, errorBody{err.Error()}}
	}
	d.applyBroke = false
	payload, err := json.Marshal(w)
	if err != nil {
		return opResult{http.StatusInternalServerError, errorBody{err.Error()}}
	}
	seq, err := d.journal(merlin.RecDelta, payload)
	if err != nil {
		return opResult{http.StatusInternalServerError, errorBody{err.Error()}}
	}
	// Direct deltas reset hub mode: the hub's policy no longer matches.
	d.dropHub()
	in, rm := diff.Counts()
	return opResult{http.StatusOK, map[string]any{
		"seq": seq, "install": in.Total(), "remove": rm.Total(),
	}}
}

// applyTopoOps applies the valid events of every admitted request as one
// Update and one journal record. Each request is answered with its own
// applied count and check errors, plus the batch's shared seq, diff
// counts and recompile error: the events stick even when the recompile
// fails, so that error belongs to every request in the batch.
func (d *Daemon) applyTopoOps(batch []*op) {
	var events []merlin.TopoEvent
	for _, o := range batch {
		events = append(events, o.topo...)
	}
	if len(events) == 0 {
		return
	}
	diff, err := d.c.Update(merlin.Delta{Topo: events})
	d.applyBroke = err != nil
	payload, jerr := json.Marshal(merlin.WireTopoEvents(events))
	var seq uint64
	if jerr == nil {
		seq, jerr = d.journal(merlin.RecTopo, payload)
	}
	if jerr != nil {
		res := opResult{http.StatusInternalServerError, errorBody{jerr.Error()}}
		for _, o := range batch {
			o.reply <- res
		}
		return
	}
	install, remove := 0, 0
	if diff != nil {
		in, rm := diff.Counts()
		install, remove = in.Total(), rm.Total()
	}
	for _, o := range batch {
		errs := o.topoErrs
		if err != nil {
			errs = append(errs, err.Error())
		}
		o.reply <- opResult{http.StatusOK, map[string]any{
			"seq": seq, "applied": len(o.topo), "coalesced": len(events),
			"install": install, "remove": remove, "errors": errs,
		}}
	}
}

func (d *Daemon) applySnapshot() opResult {
	seq, err := d.snapshot(true)
	if err != nil {
		return opResult{http.StatusInternalServerError, errorBody{err.Error()}}
	}
	return opResult{http.StatusOK, map[string]any{"seq": seq}}
}

func (d *Daemon) applyHub(o *op) opResult {
	if err := d.ensureHub(); err != nil {
		return opResult{http.StatusUnprocessableEntity, errorBody{err.Error()}}
	}
	req := o.hub
	switch o.kind {
	case opHubRegister:
		if !d.shards[req.Shard] {
			if err := d.hub.AddShard(req.Shard, req.ShardCapacityBps); err != nil {
				return opResult{http.StatusBadRequest, errorBody{err.Error()}}
			}
			d.shards[req.Shard] = true
		}
		s, err := d.hub.Register(req.Tenant, req.Shard, req.Statements, merlin.AIMDState{
			Alloc: req.AllocBps, Increase: req.IncreaseBps, Decrease: req.Decrease,
		})
		if err != nil {
			return opResult{http.StatusBadRequest, errorBody{err.Error()}}
		}
		d.sessions[req.Tenant] = s
		return opResult{http.StatusOK, map[string]any{"tenant": req.Tenant, "shard": req.Shard}}
	case opHubDemand:
		s, ok := d.sessions[req.Tenant]
		if !ok {
			return opResult{http.StatusNotFound, errorBody{fmt.Sprintf("no session for tenant %q (sessions are volatile — re-register after a restart)", req.Tenant)}}
		}
		s.OfferDemand(req.DemandBps)
		return opResult{http.StatusOK, map[string]any{"tenant": req.Tenant}}
	case opHubTick:
		rep, err := d.hub.Tick()
		if err != nil {
			return opResult{http.StatusUnprocessableEntity, errorBody{err.Error()}}
		}
		var seq uint64
		if rep.Committed {
			// Journal the committed policy as a full-policy record; the
			// hub's commit callback already recompiled through the
			// compiler (under the hub lock, so the policy is read here,
			// after Tick returned).
			seq, err = d.journal(merlin.RecPolicy, []byte(d.hub.Policy().String()))
			if err != nil {
				return opResult{http.StatusInternalServerError, errorBody{err.Error()}}
			}
		}
		return opResult{http.StatusOK, map[string]any{
			"seq": seq, "committed": rep.Committed, "demands": rep.Demands, "changed": rep.Changed,
		}}
	case opHubPropose:
		pol, err := merlin.ParsePolicy(req.Policy, d.c.Topology())
		if err != nil {
			return opResult{http.StatusBadRequest, errorBody{err.Error()}}
		}
		recompiled, err := d.hub.Propose(req.Tenant, pol)
		if err != nil {
			return opResult{http.StatusUnprocessableEntity, errorBody{err.Error()}}
		}
		seq, err := d.journal(merlin.RecPolicy, []byte(d.hub.Policy().String()))
		if err != nil {
			return opResult{http.StatusInternalServerError, errorBody{err.Error()}}
		}
		return opResult{http.StatusOK, map[string]any{"seq": seq, "recompiled": recompiled}}
	}
	return opResult{http.StatusInternalServerError, errorBody{"unknown hub op"}}
}

// ensureHub lazily creates the negotiation hub over the current policy
// and binds it to the compiler. Sessions and shards are volatile state.
func (d *Daemon) ensureHub() error {
	if d.hub != nil {
		return nil
	}
	snap, err := d.c.Snapshot()
	if err != nil {
		return err
	}
	pol, err := merlin.ParsePolicy(snap.Policy, d.c.Topology())
	if err != nil {
		return err
	}
	hub, err := merlin.NewHub(pol, merlin.HubOptions{})
	if err != nil {
		return err
	}
	d.c.WatchHub(hub, nil)
	d.hub = hub
	return nil
}

func (d *Daemon) dropHub() {
	if d.hub == nil {
		return
	}
	d.c.UnwatchHub()
	d.hub = nil
	d.sessions = map[string]*merlin.Session{}
	d.shards = map[string]bool{}
}

// journal appends one record (ack-after-fsync) and advances the
// snapshot cadence.
func (d *Daemon) journal(kind byte, payload []byte) (uint64, error) {
	seq, err := d.store.Append(kind, payload)
	if err != nil {
		return 0, err
	}
	d.sinceSnap++
	if d.cfg.SnapshotEvery > 0 && d.sinceSnap >= d.cfg.SnapshotEvery {
		if _, err := d.snapshot(false); err != nil {
			// The record is durable; a failed snapshot only delays the
			// next warm restart. Surface it without failing the op.
			fmt.Fprintf(os.Stderr, "merlind: snapshot: %v\n", err)
		}
	}
	return seq, nil
}

// snapshot captures the compiler and persists it against the journal's
// current head. Skipped (not an error) while the latest applied state
// does not compile — a snapshot must restore, and topology facts that
// broke feasibility only restore through journal replay.
func (d *Daemon) snapshot(force bool) (uint64, error) {
	if d.applyBroke {
		if force {
			return 0, fmt.Errorf("merlind: current state does not compile; snapshot deferred until a successful apply")
		}
		return 0, nil
	}
	snap, err := d.c.Snapshot()
	if err != nil {
		return 0, err
	}
	seq := d.store.LastSeq()
	snap.Seq = seq
	payload, err := snap.Marshal()
	if err != nil {
		return 0, err
	}
	if err := d.store.Snapshot(seq, payload); err != nil {
		return 0, err
	}
	d.sinceSnap = 0
	return seq, nil
}

// Close drains the apply loop, takes a final snapshot, and closes the
// journal. In-flight requests finish first; later ones are refused.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.submits.Wait()
	close(d.ops)
	<-d.loopDone
	if _, err := d.snapshot(false); err != nil {
		fmt.Fprintf(os.Stderr, "merlind: final snapshot: %v\n", err)
	}
	return d.store.Close()
}

// Handler returns the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler { return d.mux }

func (d *Daemon) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/delta", func(w http.ResponseWriter, r *http.Request) {
		var wd merlin.WireDelta
		if !decodeJSON(w, r, &wd) {
			return
		}
		writeResult(w, d.submit(&op{kind: opDelta, delta: wd}))
	})
	mux.HandleFunc("/v1/topo", func(w http.ResponseWriter, r *http.Request) {
		var ws []merlin.WireTopoEvent
		if !decodeJSON(w, r, &ws) {
			return
		}
		events := make([]merlin.TopoEvent, len(ws))
		for i, we := range ws {
			ev, err := we.Event()
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
				return
			}
			events[i] = ev
		}
		if len(events) == 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{"empty event batch"})
			return
		}
		writeResult(w, d.submit(&op{kind: opTopo, topo: events}))
	})
	mux.HandleFunc("/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST only"})
			return
		}
		writeResult(w, d.submit(&op{kind: opSnapshot}))
	})
	hubOp := func(kind opKind) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			// A body-less POST (a bare tick) is a valid empty request;
			// anything else goes through decodeJSON's method check.
			var req hubRequest
			if (r.Method != http.MethodPost || r.ContentLength != 0) && !decodeJSON(w, r, &req) {
				return
			}
			writeResult(w, d.submit(&op{kind: kind, hub: req}))
		}
	}
	mux.HandleFunc("/v1/hub/register", hubOp(opHubRegister))
	mux.HandleFunc("/v1/hub/demand", hubOp(opHubDemand))
	mux.HandleFunc("/v1/hub/tick", hubOp(opHubTick))
	mux.HandleFunc("/v1/hub/propose", hubOp(opHubPropose))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		js := d.store.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"boot":       d.Boot,
			"boot_seq":   d.BootSeq,
			"torn_bytes": d.TornBytes,
			"compiler":   d.c.Stats(),
			"journal": map[string]any{
				"appends": js.Appends, "commits": js.Commits, "last_seq": d.store.LastSeq(),
			},
		})
	})
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		res := d.c.Result()
		if res == nil {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{"no compiled result"})
			return
		}
		counts := res.Counts()
		writeJSON(w, http.StatusOK, map[string]any{
			"counts": counts, "total": counts.Total(), "paths": res.Paths,
		})
	})
	mux.HandleFunc("/v1/policy", func(w http.ResponseWriter, r *http.Request) {
		snap, err := d.c.Snapshot()
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, snap.Policy)
	})
	d.mux = mux
}

// maxBodyBytes bounds a request body (answered 413 beyond it); legitimate
// bodies — a full-formula delta, a tenant proposal — are far smaller.
const maxBodyBytes = 16 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST only"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{err.Error()})
		return false
	}
	return true
}

func writeResult(w http.ResponseWriter, res opResult) { writeJSON(w, res.status, res.body) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
