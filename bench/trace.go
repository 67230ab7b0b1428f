package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/journal"
	"merlin/internal/verify"
)

// setSpanMetrics reports every per-layer time metric that has spans: the
// span named like the metric without its unit suffix, summed per operation,
// median over the operations that entered the layer.
func setSpanMetrics(res *runResult, rec *recorder) {
	for _, def := range perLayer {
		var span string
		scale := 1.0
		switch def.Unit {
		case "ms":
			span = strings.TrimSuffix(def.Name, "_ms")
		case "ns":
			span, scale = strings.TrimSuffix(def.Name, "_ns"), 1e6
		default:
			continue
		}
		if samples := rec.perOp(span); len(samples) > 0 {
			res.set(def.Name, median(samples)*scale, len(samples))
		}
	}
}

func setCounts(res *runResult, cnt counts, n int) {
	names := make([]string, 0, len(cnt))
	for name := range cnt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.set(name, cnt[name], n)
	}
}

// finishTrace writes the spans out and prints self time per layer.
func finishTrace(res *runResult, rec *recorder, cfg runConfig) error {
	rec.finish()
	path := filepath.Join(cfg.Out, "trace-"+res.Workload+".jsonl")
	if err := rec.write(path); err != nil {
		return err
	}
	self := rec.selfByLayer()
	layers := make([]string, 0, len(self))
	total := 0.0
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		res.note("%-20s %-44s %12.3f ms      %4.1f%% of traced self time", res.Workload, "self:"+l, self[l], 100*self[l]/total)
	}
	res.note("%-20s %d spans written to %s", res.Workload, len(rec.spans), path)
	return nil
}

// traceCompile is the traced run of a compile workload: a quarter of the
// rounds, each scenario walked through the staged driver. One operation is
// one round — every scenario compiled once, on that round's draw — so a
// layer's number is its busy time per round.
func traceCompile(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg)
	rounds, draws := compileRounds(w, cfg)
	ins, err := generateAll(w, cfg.Seed, draws)
	if err != nil {
		return nil, err
	}
	opts := compileOptions(w)

	// The compiler's own results: the reference IR, the public Timing
	// phases, and the untraced round time the traced one is compared with.
	refs := make([][]*merlin.Result, draws)
	var untraced []float64
	timing := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		d := r % draws
		refs[d] = make([]*merlin.Result, len(ins[d]))
		start := time.Now()
		phases := make([]float64, len(timingPhases))
		for i, in := range ins[d] {
			if refs[d][i], err = merlin.Compile(in.Policy, in.Topo, in.Place, opts); err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			tm := refs[d][i].Timing
			for j, dur := range []time.Duration{tm.Preprocess, tm.GraphBuild, tm.LPConstruct, tm.LPSolve, tm.Rateless, tm.Codegen} {
				phases[j] += ms(dur)
			}
		}
		untraced = append(untraced, ms(time.Since(start)))
		for j, name := range timingPhases {
			timing[name] = append(timing[name], phases[j])
		}
	}

	rec := newRecorder()
	var traced []float64
	all := map[string][]float64{} // count name → its value in each round
	for r := 0; r < rounds; r++ {
		d := r % draws
		rec.beginOp()
		cnt := counts{"codegen.lower_skipped": 0}
		start := time.Now()
		for i, in := range ins[d] {
			res.attempt()
			if err := stagedCompile(rec, cnt, in.Text, in.Topo, in.Place, opts.NoDefault, refs[d][i]); err != nil {
				res.fail("%s: staged driver: %v", in.Name, err)
			}
		}
		traced = append(traced, ms(time.Since(start)))
		for name, v := range cnt {
			all[name] = append(all[name], v)
		}
	}
	cnt := counts{}
	for name, vs := range all {
		cnt[name] = median(vs) // each round is another draw; report the typical one
	}
	setSpanMetrics(res, rec)
	setCounts(res, cnt, rounds)
	for _, name := range timingPhases {
		res.set("merlin.timing."+name+"_ms", median(timing[name]), rounds)
	}
	res.set("trace_overhead", median(traced)/median(untraced)-1, rounds)
	return res, finishTrace(res, rec, cfg)
}

// traceDaemon is the traced run of a daemon workload, on a quarter of the
// requests: the staged driver on the genesis policy (where set-up and
// restart time go), the request stream replayed in process against
// merlin.Compiler and a journal.Store with spans around every layer call,
// and the same stream against the real merlind for what only it can show
// (round trip, ack latency by class, coalescing, its own counters).
func traceDaemon(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg)
	in, err := generateDaemon(w, cfg.Seed, requestCount(w, cfg))
	if err != nil {
		return nil, err
	}
	rec := newRecorder()

	// Genesis through the staged driver, twice.
	t, err := corpus.BuildTopo(daemonTopoCorpus)
	if err != nil {
		return nil, err
	}
	pol, err := merlin.ParsePolicy(in.Genesis, t)
	if err != nil {
		return nil, err
	}
	ref, err := merlin.Compile(pol, t, nil, merlin.Options{Workers: compileWorkers, Targets: merlin.BackendNames()})
	if err != nil {
		return nil, err
	}
	var cnt counts
	for r := 0; r < 2 && (r == 0 || !cfg.Validate); r++ {
		rec.beginOp()
		cnt = counts{"codegen.lower_skipped": 0}
		res.attempt()
		if err := stagedCompile(rec, cnt, in.Genesis, t, nil, false, ref); err != nil {
			res.fail("genesis: staged driver: %v", err)
		}
	}

	// The request stream in process: once plain, once with spans, both
	// journaling with fsync on.
	plain, err := replayAll(res, in, nil, cfg)
	if err != nil {
		return nil, err
	}
	defer plain.remove()
	traced, err := replayAll(res, in, rec, cfg)
	if err != nil {
		return nil, err
	}
	defer traced.remove()
	p := traced.p
	setCounts(res, cnt, 1)

	// Shutdown and restart in process: the final snapshot merlind takes on
	// SIGTERM, then RestoreCompiler from it and journal recovery.
	rec.beginOp()
	if err := p.snapshot(); err != nil {
		return nil, err
	}
	snap, err := p.c.Snapshot()
	if err != nil {
		return nil, err
	}
	fresh, err := corpus.BuildTopo(daemonTopoCorpus)
	if err != nil {
		return nil, err
	}
	rec.time("merlin", "merlin.restore", func() {
		_, _, err = merlin.RestoreCompiler(fresh, snap, merlin.Options{Workers: compileWorkers})
	})
	if err != nil {
		return nil, fmt.Errorf("RestoreCompiler: %w", err)
	}
	if err := traced.close(); err != nil {
		return nil, err
	}
	rec.time("journal", "journal.recover", func() {
		var st *journal.Store
		if st, _, err = journal.Open(traced.dir, journal.Params{}); err == nil {
			err = st.Close()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("journal recovery: %w", err)
	}

	if w.Kind == kindHub {
		hs := p.hubStats // the stream's last request dissolved the hub
		if total := hs.VerifyCacheHits + hs.VerifyCacheMisses; total > 0 {
			res.set("verify.hit_ratio", float64(hs.VerifyCacheHits)/float64(total), total)
		}
		if err := probeVerify(rec, in, t); err != nil {
			return nil, err
		}
	}

	setSpanMetrics(res, rec)
	for _, name := range timingPhases {
		if s := p.timing[name]; len(s) > 0 {
			res.set("merlin.timing."+name+"_ms", median(s), len(s))
		}
	}
	if len(p.diffEntries) > 0 {
		res.set("codegen.diff_entries", median(p.diffEntries), len(p.diffEntries))
	}
	if len(p.appendBytes) > 0 {
		res.set("journal.append_bytes", median(p.appendBytes), len(p.appendBytes))
	}
	timedBusy := func(p *replayer) []float64 { // the timed requests' samples
		var out []float64
		for i, rq := range in.Requests {
			if !rq.Warm && (w.Kind != kindHub || rq.Class == "demand") {
				out = append(out, p.busy[i])
			}
		}
		return out
	}
	inproc := median(timedBusy(plain.p))
	if inproc > 0 {
		res.set("trace_overhead", median(timedBusy(p))/inproc-1, len(p.busy))
	}

	// The real daemon, same requests.
	run, err := driveDaemon(res, w, cfg, in)
	if err != nil {
		return nil, err
	}
	checkAgainstReplay(res, in, run, p)
	ops := pooled(opClasses(w, run))
	res.set("merlind.rtt_ms", median(run.rtt), len(run.rtt))
	res.set("merlind.overhead_ms", median(ops)-inproc, len(ops))
	res.set("merlind.ack_p90_ms", percentile(ops, 90), len(ops))
	res.set("merlind.restart_s", run.restart, 1)
	for class, metric := range map[string]string{"formula": "merlind.ack_formula_ms", "cap": "merlind.ack_cap_ms", "propose": "merlind.ack_propose_ms"} {
		if l := run.lat[class]; len(l) > 0 {
			res.set(metric, median(l), len(l))
		}
	}
	if l := append(append([]float64(nil), run.lat["add"]...), run.lat["remove"]...); len(l) > 0 {
		res.set("merlind.ack_addrm_ms", median(l), len(l))
	}
	if l := run.lat["tick"]; len(l) > 0 {
		res.set("merlind.tick_p50_ms", median(l), len(l))
		res.set("merlind.tick_p90_ms", percentile(l, 90), len(l))
	}
	if run.commits > 0 {
		res.set("journal.appends_per_commit", float64(run.appends)/float64(run.commits), int(run.commits))
	}
	if len(run.coalesce) > 0 {
		res.set("merlind.coalesced", median(run.coalesce), len(run.coalesce))
	}
	for _, c := range statCounters {
		res.set("merlin."+c.metric, float64(run.stats[c.field]), run.timed)
	}
	return res, finishTrace(res, rec, cfg)
}

// journaledReplay is a replayer with its journal directory.
type journaledReplay struct {
	p      *replayer
	dir    string
	closed bool
}

func (j *journaledReplay) close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.p.store.Close()
}

// remove closes the journal and deletes its directory.
func (j *journaledReplay) remove() {
	j.close()
	os.RemoveAll(j.dir)
}

// replayAll runs the whole request stream through a journaling replayer
// and holds every status to the generator's expectation.
func replayAll(res *runResult, in *daemonInput, rec *recorder, cfg runConfig) (*journaledReplay, error) {
	dir, err := os.MkdirTemp(cfg.Out, "replay-")
	if err != nil {
		return nil, err
	}
	store, _, err := journal.Open(dir, journal.Params{})
	if err != nil {
		return nil, err
	}
	p, err := newReplayer(in, rec, store)
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	for _, rq := range in.Requests {
		res.attempt()
		if status := p.apply(rq); status != rq.Want {
			res.fail("in-process replay: %s answered %d, want %d", rq.Class, status, rq.Want)
		}
	}
	return &journaledReplay{p: p, dir: dir}, nil
}

// probeVerify times the refinement check a proposal triggers, uncached and
// served from the fingerprint cache, on one tenant's delegation.
func probeVerify(rec *recorder, in *daemonInput, t *merlin.Topology) error {
	var proposal hubRequest
	for _, rq := range in.Requests {
		if rq.Class == "propose" {
			if err := decodeStrict(rq.Body, &proposal); err != nil {
				return err
			}
			break
		}
	}
	if proposal.Policy == "" {
		return nil // too few windows for a proposal
	}
	refined, err := merlin.ParsePolicy(proposal.Policy, t)
	if err != nil {
		return err
	}
	// The delegation the proposal refines: the same statement at the
	// tenant's registered cap.
	var original *merlin.Policy
	for _, tn := range in.Scenario.Tenants {
		if tn.Name == proposal.Tenant {
			body, _, _ := strings.Cut(proposal.Policy, " at max(")
			if original, err = merlin.ParsePolicy(fmt.Sprintf("%s at max(%s) ]", body, fmtMBps(tn.CapBps)), t); err != nil {
				return err
			}
		}
	}
	if original == nil {
		return fmt.Errorf("proposal names unknown tenant %q", proposal.Tenant)
	}
	cache := verify.NewCache()
	for i := 0; i < 50; i++ {
		rec.beginOp()
		rec.time("verify", "verify.check", func() { _, err = verify.CheckRefinement(original, refined, verify.Options{}) })
		if err != nil {
			return err
		}
		if _, err := cache.CheckRefinement(original, refined, verify.Options{}); err != nil {
			return err
		}
		rec.time("verify", "verify.cached", func() { _, err = cache.CheckRefinement(original, refined, verify.Options{}) })
		if err != nil {
			return err
		}
	}
	return nil
}
