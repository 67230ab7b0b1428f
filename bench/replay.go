package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/journal"
	"merlin/internal/topo"
)

const snapshotEvery = 64 // merlind's default -snapshot-every

// replayer applies a daemon workload's requests in process, the way
// cmd/merlind's apply loop does: decode the body, drive merlin.Compiler
// (and a Hub for /v1/hub requests), marshal and journal the record. The
// untraced run uses it as the reference merlind's final state must equal;
// the traced run gives it a span recorder and a journal.Store, so the same
// request stream yields the per-layer numbers.
type replayer struct {
	rec   *recorder      // nil: no spans
	store *journal.Store // nil: nothing is journaled
	topo  *topo.Topology
	c     *merlin.Compiler

	hub      *merlin.Hub
	sessions map[string]*merlin.Session
	shards   map[string]bool

	sinceSnap int
	prev      *merlin.Result  // previous result, for the diff probe
	hubStats  merlin.HubStats // of the hub most recently dissolved

	// Samples the traced run reports.
	busy        []float64            // per request: decode + apply + marshal + append, ms
	timing      map[string][]float64 // Result.Timing phase → ms, per recompile
	appendBytes []float64
	diffEntries []float64
}

// newReplayer compiles the genesis policy on a fresh fat tree — the graph
// merlind -topo fattree,k=8 builds — and journals it like a genesis boot.
func newReplayer(in *daemonInput, rec *recorder, store *journal.Store) (*replayer, error) {
	t, err := corpus.BuildTopo(daemonTopoCorpus)
	if err != nil {
		return nil, err
	}
	p := &replayer{
		rec: rec, store: store, topo: t,
		sessions: map[string]*merlin.Session{}, shards: map[string]bool{},
		timing: map[string][]float64{},
	}
	pol, err := merlin.ParsePolicy(in.Genesis, t)
	if err != nil {
		return nil, fmt.Errorf("genesis policy: %w", err)
	}
	p.c = merlin.NewCompiler(t, nil, merlin.Options{Workers: compileWorkers})
	if _, err := p.c.Compile(pol); err != nil {
		return nil, fmt.Errorf("genesis compile: %w", err)
	}
	p.prev = p.c.Result()
	if err := p.journal(merlin.RecPolicy, []byte(pol.String())); err != nil {
		return nil, err
	}
	return p, nil
}

// apply runs one request and returns the HTTP status merlind would answer
// with.
func (p *replayer) apply(rq request) int {
	p.rec.beginOp()
	var status int
	dur := p.rec.time("merlind", "request", func() {
		switch rq.Path {
		case "/v1/delta":
			status = p.applyDelta(rq.Body)
		case "/v1/topo":
			status = p.applyTopo(rq.Body)
		default:
			status = p.applyHub(rq.Path, rq.Body)
		}
	})
	p.busy = append(p.busy, ms(dur))
	if p.rec != nil && status == http.StatusOK {
		p.observe()
	}
	return status
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (p *replayer) applyDelta(body []byte) int {
	var w merlin.WireDelta
	var delta merlin.Delta
	var err error
	p.rec.time("merlin", "merlin.decode", func() {
		if err = decodeStrict(body, &w); err == nil {
			delta, err = p.c.DecodeDelta(w)
		}
	})
	if err != nil {
		return http.StatusBadRequest
	}
	p.rec.time("merlin", "merlin.update", func() { _, err = p.c.Update(delta) })
	if err != nil {
		return http.StatusUnprocessableEntity
	}
	payload, err := json.Marshal(w)
	if err == nil {
		err = p.journal(merlin.RecDelta, payload)
	}
	if err != nil {
		return http.StatusInternalServerError
	}
	p.dropHub()
	return http.StatusOK
}

func (p *replayer) applyTopo(body []byte) int {
	var ws []merlin.WireTopoEvent
	if err := decodeStrict(body, &ws); err != nil || len(ws) == 0 {
		return http.StatusBadRequest
	}
	events := make([]merlin.TopoEvent, len(ws))
	for i, w := range ws {
		ev, err := w.Event()
		if err != nil {
			return http.StatusBadRequest
		}
		events[i] = ev
	}
	var applied []merlin.TopoEvent
	failed := false
	p.rec.time("merlin", "merlin.applytopo", func() {
		applied = p.c.ApplyTopoBatch(events, nil, func(error) { failed = true })
	})
	if len(applied) == 0 && failed {
		return http.StatusUnprocessableEntity
	}
	if failed {
		// The events stuck but the recompile failed. merlind answers 200
		// and lists the errors; the schedules generated here keep the
		// policy compilable, so the reference reports it as a mismatch.
		return http.StatusConflict
	}
	payload, err := json.Marshal(merlin.WireTopoEvents(applied))
	if err == nil {
		err = p.journal(merlin.RecTopo, payload)
	}
	if err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

func (p *replayer) applyHub(path string, body []byte) int {
	var req hubRequest
	if len(body) > 0 {
		if err := decodeStrict(body, &req); err != nil {
			return http.StatusBadRequest
		}
	}
	if err := p.ensureHub(); err != nil {
		return http.StatusUnprocessableEntity
	}
	switch path {
	case "/v1/hub/register":
		if !p.shards[req.Shard] {
			if err := p.hub.AddShard(req.Shard, req.ShardCapacityBps); err != nil {
				return http.StatusBadRequest
			}
			p.shards[req.Shard] = true
		}
		s, err := p.hub.Register(req.Tenant, req.Shard, req.Statements, merlin.AIMDState{
			Alloc: req.AllocBps, Increase: req.IncreaseBps, Decrease: req.Decrease,
		})
		if err != nil {
			return http.StatusBadRequest
		}
		p.sessions[req.Tenant] = s
		return http.StatusOK
	case "/v1/hub/demand":
		s, ok := p.sessions[req.Tenant]
		if !ok {
			return http.StatusNotFound
		}
		p.rec.time("negotiate", "negotiate.offer", func() { s.OfferDemand(req.DemandBps) })
		return http.StatusOK
	case "/v1/hub/tick":
		var rep merlin.TickReport
		var err error
		p.rec.time("negotiate", "negotiate.tick", func() { rep, err = p.hub.Tick() })
		if err != nil {
			return http.StatusUnprocessableEntity
		}
		if rep.Committed {
			if err := p.journal(merlin.RecPolicy, []byte(p.hub.Policy().String())); err != nil {
				return http.StatusInternalServerError
			}
		}
		return http.StatusOK
	case "/v1/hub/propose":
		var pol *merlin.Policy
		var err error
		p.rec.time("policy", "policy.parse", func() { pol, err = merlin.ParsePolicy(req.Policy, p.topo) })
		if err != nil {
			return http.StatusBadRequest
		}
		p.rec.time("negotiate", "negotiate.propose", func() { _, err = p.hub.Propose(req.Tenant, pol) })
		if err != nil {
			return http.StatusUnprocessableEntity
		}
		if err := p.journal(merlin.RecPolicy, []byte(p.hub.Policy().String())); err != nil {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	}
	return http.StatusNotFound
}

func (p *replayer) ensureHub() error {
	if p.hub != nil {
		return nil
	}
	snap, err := p.c.Snapshot()
	if err != nil {
		return err
	}
	var pol *merlin.Policy
	p.rec.time("policy", "policy.parse", func() { pol, err = merlin.ParsePolicy(snap.Policy, p.topo) })
	if err != nil {
		return err
	}
	hub, err := merlin.NewHub(pol, merlin.HubOptions{})
	if err != nil {
		return err
	}
	p.c.WatchHub(hub, nil)
	p.hub = hub
	return nil
}

func (p *replayer) dropHub() {
	if p.hub == nil {
		return
	}
	p.c.UnwatchHub()
	p.hubStats = p.hub.Stats()
	p.hub = nil
	p.sessions = map[string]*merlin.Session{}
	p.shards = map[string]bool{}
}

// journal appends one record, fsynced, and snapshots on merlind's cadence.
func (p *replayer) journal(kind byte, payload []byte) error {
	if p.store == nil {
		return nil
	}
	var err error
	p.rec.time("journal", "journal.append", func() { _, err = p.store.Append(kind, payload) })
	if err != nil {
		return err
	}
	p.appendBytes = append(p.appendBytes, float64(len(payload)))
	p.sinceSnap++
	if p.sinceSnap < snapshotEvery {
		return nil
	}
	return p.snapshot()
}

func (p *replayer) snapshot() error {
	var snap *merlin.Snapshot
	var payload []byte
	var err error
	p.rec.time("merlin", "merlin.snapshot", func() {
		if snap, err = p.c.Snapshot(); err == nil {
			snap.Seq = p.store.LastSeq()
			payload, err = snap.Marshal()
		}
	})
	if err != nil {
		return err
	}
	p.rec.time("journal", "journal.snapshot", func() { err = p.store.Snapshot(snap.Seq, payload) })
	p.sinceSnap = 0
	return err
}

// observe samples what a traced run reports after a successful request:
// the public Timing phases of the recompile it caused, and a probe of the
// per-backend diff against the previous result (the work Update did
// internally to produce its Diff).
func (p *replayer) observe() {
	cur := p.c.Result()
	if cur == nil || cur == p.prev {
		return
	}
	tm := cur.Timing
	for i, d := range []float64{ms(tm.Preprocess), ms(tm.GraphBuild), ms(tm.LPConstruct), ms(tm.LPSolve), ms(tm.Rateless), ms(tm.Codegen)} {
		p.timing[timingPhases[i]] = append(p.timing[timingPhases[i]], d)
	}
	n := 0
	p.rec.time("codegen", "codegen.diff", func() {
		for name, art := range cur.Outputs {
			d := codegen.DiffArtifacts(name, p.prev.Outputs[name], art)
			n += len(d.Install) + len(d.Remove)
		}
	})
	p.diffEntries = append(p.diffEntries, float64(n))
	p.prev = cur
}

// policyText is what GET /v1/policy serves.
func (p *replayer) policyText() (string, error) {
	snap, err := p.c.Snapshot()
	if err != nil {
		return "", err
	}
	return snap.Policy + "\n", nil
}

// output is what GET /v1/result serves.
func (p *replayer) output() daemonOutput {
	res := p.c.Result()
	paths := res.Paths
	if paths == nil {
		paths = map[string][]string{}
	}
	return daemonOutput{Counts: res.Counts(), Total: res.Counts().Total(), Paths: paths}
}
