package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

const daemonBoots = 5 // genesis boots per run; setup_s is their median

// daemonRun is what one pass of a request stream through a real merlind
// measured.
type daemonRun struct {
	boots    []float64            // s, spawn → /healthz 200, genesis
	restart  float64              // s, second spawn over the same data dir
	lat      map[string][]float64 // class → ack latency, ms (timed requests)
	timed    int
	wall     time.Duration
	rssMB    float64
	stats    map[string]int // /v1/stats.compiler increase over the timed section
	appends  uint64
	commits  uint64
	coalesce []float64 // "coalesced" of each topo ack
	rtt      []float64 // GET /healthz round trips, ms
	policy   string
	before   daemonOutput // /v1/result after the warm-up requests
	after    daemonOutput // /v1/result after the last request
}

func requestCount(w workload, cfg runConfig) int {
	n := int(math.Round(w.PerSecond * cfg.Seconds))
	if cfg.Trace {
		n /= 4
	}
	floor := 12
	if w.Kind == kindHub {
		floor = 2 * (hubWindow + 1)
	}
	if cfg.Validate || n < floor {
		n = floor
	}
	return n
}

// driveDaemon boots the real merlind on the genesis policy, sends the
// request stream over one keep-alive connection, restarts the daemon over
// the same data directory, and checks every acknowledgement on the way.
func driveDaemon(res *runResult, w workload, cfg runConfig, in *daemonInput) (*daemonRun, error) {
	bin, err := buildMerlind(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Out, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(cfg.Out, "merlind-"+w.Name+".log")
	os.Remove(logPath)
	policyPath := filepath.Join(dir, "genesis.pol")
	if err := os.WriteFile(policyPath, []byte(in.Genesis), 0o644); err != nil {
		return nil, err
	}

	run := &daemonRun{lat: map[string][]float64{}}
	boots := daemonBoots
	if cfg.Validate {
		boots = 1
	}
	var d *daemon
	dataDir := ""
	for i := 0; i < boots; i++ {
		dataDir = filepath.Join(dir, fmt.Sprintf("data%d", i))
		if d, err = startDaemon(bin, dataDir, policyPath, logPath); err != nil {
			return nil, err
		}
		run.boots = append(run.boots, d.Boot.Seconds())
		if i < boots-1 {
			d.kill() // only the boot was wanted; its data dir is discarded
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	if cfg.Trace {
		for i := 0; i < 200; i++ {
			_, _, dur, err := d.do(http.MethodGet, "/healthz", nil)
			if err == nil {
				run.rtt = append(run.rtt, ms(dur))
			}
		}
	}

	var stats0 daemonStats
	lastSeq := uint64(1) // the genesis record
	started := false
	var timedStart time.Time
	for _, rq := range in.Requests {
		if !rq.Warm && !started {
			started = true
			if err := d.getJSON("/v1/stats", &stats0); err != nil {
				return nil, err
			}
			if err := d.getJSON("/v1/result", &run.before); err != nil {
				return nil, err
			}
			timedStart = time.Now()
		}
		status, reply, dur, err := d.do(http.MethodPost, rq.Path, rq.Body)
		res.attempt()
		if err != nil {
			res.fail("%s %s: %v", rq.Class, rq.Path, err)
			continue
		}
		if status != rq.Want {
			res.fail("%s %s: status %d, want %d: %s", rq.Class, rq.Path, status, rq.Want, truncate(string(reply), 200))
			continue
		}
		if !rq.Warm {
			run.lat[rq.Class] = append(run.lat[rq.Class], ms(dur))
			run.timed++
		}
		if status != http.StatusOK {
			continue
		}
		var ack struct {
			Seq       uint64   `json:"seq"`
			Applied   *int     `json:"applied"`
			Coalesced float64  `json:"coalesced"`
			Errors    []string `json:"errors"`
		}
		if err := json.Unmarshal(reply, &ack); err != nil {
			res.fail("%s %s: ack does not parse: %v", rq.Class, rq.Path, err)
			continue
		}
		if ack.Seq > 0 { // register, demand and a tick that moved nothing journal nothing
			if ack.Seq <= lastSeq {
				res.fail("%s %s: ack seq %d after %d: not strictly increasing", rq.Class, rq.Path, ack.Seq, lastSeq)
			}
			lastSeq = ack.Seq
		}
		if rq.Path == "/v1/topo" {
			if ack.Applied == nil || *ack.Applied == 0 || len(ack.Errors) > 0 {
				res.fail("topo: ack %s", truncate(string(reply), 200))
			}
			if !rq.Warm {
				run.coalesce = append(run.coalesce, ack.Coalesced)
			}
		}
	}
	run.wall = time.Since(timedStart)

	var stats1 daemonStats
	if err := d.getJSON("/v1/stats", &stats1); err != nil {
		return nil, err
	}
	run.stats = map[string]int{}
	for k, v := range stats1.Compiler {
		run.stats[k] = v - stats0.Compiler[k]
	}
	run.appends = stats1.Journal.Appends - stats0.Journal.Appends
	run.commits = stats1.Journal.Commits - stats0.Journal.Commits
	run.rssMB = peakRSSMB(d.pid())
	if err := d.getJSON("/v1/result", &run.after); err != nil {
		return nil, err
	}
	_, pol, _, err := d.do(http.MethodGet, "/v1/policy", nil)
	if err != nil {
		return nil, err
	}
	run.policy = string(pol)

	// Clean shutdown, then a second boot over the same data directory:
	// snapshot + journal tail.
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	d2, err := startDaemon(bin, dataDir, "", logPath)
	if err != nil {
		return nil, err
	}
	run.restart = d2.Boot.Seconds()
	var stats2 daemonStats
	var out2 daemonOutput
	err = d2.getJSON("/v1/stats", &stats2)
	if err == nil {
		err = d2.getJSON("/v1/result", &out2)
	}
	if stopErr := d2.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	res.attempt()
	switch {
	case stats2.Boot != "warm":
		res.fail("restart: boot is %q, want warm", stats2.Boot)
	case stats2.BootSeq != lastSeq:
		res.fail("restart: boot_seq %d, want the last acked seq %d", stats2.BootSeq, lastSeq)
	case !reflect.DeepEqual(out2, run.after):
		res.fail("restart: /v1/result differs from the one served before SIGTERM")
	}
	for _, line := range logErrors(logPath) {
		res.attempt()
		res.fail("merlind logged: %s", line)
	}
	return run, nil
}

// checkAgainstReplay holds merlind's final policy and output to an
// in-process merlin.Compiler fed the same request bodies.
func checkAgainstReplay(res *runResult, in *daemonInput, run *daemonRun, p *replayer) {
	res.attempt()
	want, err := p.policyText()
	switch {
	case err != nil:
		res.fail("reference compiler: %v", err)
	case want != run.policy:
		res.fail("/v1/policy differs from the in-process compiler fed the same requests (%d vs %d bytes)", len(run.policy), len(want))
	}
	res.attempt()
	if out := p.output(); !reflect.DeepEqual(out, run.after) {
		res.fail("/v1/result differs from the in-process compiler: total %d vs %d", run.after.Total, out.Total)
	}
	if in.Balanced {
		res.attempt()
		if !reflect.DeepEqual(run.before, run.after) {
			res.fail("balanced schedule: /v1/result after the run differs from before it")
		}
	}
}

// opClasses are the acks that make the workload's "op" latency, by
// request class: on daemon-hub the demand updates (ticks and proposals are
// reported apart), elsewhere every timed request.
func opClasses(w workload, run *daemonRun) map[string][]float64 {
	if w.Kind == kindHub {
		return map[string][]float64{"demand": run.lat["demand"]}
	}
	return run.lat
}

// runDaemon measures a daemon workload end to end.
func runDaemon(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg)
	in, err := generateDaemon(w, cfg.Seed, requestCount(w, cfg))
	if err != nil {
		return nil, err
	}
	run, err := driveDaemon(res, w, cfg, in)
	if err != nil {
		return nil, err
	}
	ref, err := newReplayer(in, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, rq := range in.Requests {
		if status := ref.apply(rq); status != rq.Want {
			res.attempt()
			res.fail("reference compiler: %s answered %d, want %d", rq.Class, status, rq.Want)
		}
	}
	checkAgainstReplay(res, in, run, ref)

	ops := pooled(opClasses(w, run))
	res.set("setup_s", median(run.boots), len(run.boots))
	res.set("op_p50_ms", classMedian(opClasses(w, run)), len(ops))
	res.set("op_p90_ms", percentile(ops, 90), len(ops))
	res.set("ops_per_s", float64(run.timed)/run.wall.Seconds(), run.timed)
	res.set("peak_rss_mb", run.rssMB, 1)
	res.set("out_entries", float64(run.after.Total), 1)
	// The pooled median, as a client that does not tell classes apart
	// sees it, and the highest tail the sample supports.
	res.extra("ack_p50_ms", median(ops), "ms", len(ops))
	if p := supportedTail(len(ops)); p > 90 {
		res.extra(fmt.Sprintf("ack_p%g_ms", p), percentile(ops, p), "ms", len(ops))
	}
	res.extra("restart_s", run.restart, "s", 1)
	classes := make([]string, 0, len(run.lat))
	for class := range run.lat {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		res.extra("ack_"+class+"_p50_ms", median(run.lat[class]), "ms", len(run.lat[class]))
	}
	if l := run.lat["tick"]; len(l) > 0 {
		res.extra("tick_p90_ms", percentile(l, 90), "ms", len(l))
	}
	res.extra("timed_wall_s", run.wall.Seconds(), "s", 1)
	return res, nil
}
