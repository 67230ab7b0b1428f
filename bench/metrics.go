package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metricDef is one metric of the benchmark's contract. BENCHMARK.json lists
// the same names, units, directions and bounds; TestBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: an "op" is one cold compile on the compile-*
// workloads and one acknowledged request on the daemon-* workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"out_entries", "count", "lower", 0.10},
}

var backendNames = []string{"openflow", "tc", "click", "host", "p4", "tcam"}

// perLayer are the metrics of single layers, reported by a traced run. A
// layer a workload never enters reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", "lower", "policy.parse_ms", "policy.preprocess_ms", "policy.localize_ms")
	add("count", "lower", "policy.parse_stmts")
	add("ms", "lower", "pred.cubes_ms")
	add("count", "lower", "pred.cubes_out")
	add("ms", "lower", "regex.dfa_ms", "logical.anchored_ms", "logical.minimized_ms")
	add("count", "lower", "regex.dfa_states", "logical.anchored_edges", "logical.minimized_edges")
	add("ms", "lower", "provision.partition_ms", "provision.solve_ms", "netflow.solve_ms", "mip.solve_ms")
	add("count", "lower", "provision.shards", "provision.netflow_shards", "mip.nodes")
	add("ms", "lower", "sinktree.build_ms")
	add("count", "lower", "sinktree.trees")
	add("ms", "lower", "codegen.lower_ms", "codegen.diff_ms", "ternary.expand_ms", "ternary.estimate_ms")
	add("count", "lower", "codegen.rules", "codegen.queues", "codegen.diff_entries", "codegen.lower_skipped", "ternary.rows")
	for _, b := range backendNames {
		add("ms", "lower", b+".emit_ms")
		add("count", "lower", b+".entries")
	}
	add("ms", "lower", "merlin.decode_ms", "merlin.update_ms", "merlin.applytopo_ms", "merlin.snapshot_ms", "merlin.restore_ms")
	for _, phase := range timingPhases {
		add("ms", "lower", "merlin.timing."+phase+"_ms")
	}
	for _, c := range statCounters {
		add("count", "lower", "merlin."+c.metric)
	}
	add("ms", "lower", "journal.append_ms", "journal.snapshot_ms", "journal.recover_ms")
	add("bytes", "lower", "journal.append_bytes")
	add("count", "higher", "journal.appends_per_commit")
	add("ns", "lower", "negotiate.offer_ns")
	add("ms", "lower", "negotiate.tick_ms", "negotiate.propose_ms", "verify.check_ms", "verify.cached_ms")
	add("ratio", "higher", "verify.hit_ratio")
	add("ms", "lower", "merlind.rtt_ms", "merlind.overhead_ms", "merlind.ack_formula_ms", "merlind.ack_cap_ms",
		"merlind.ack_addrm_ms", "merlind.ack_propose_ms", "merlind.ack_p90_ms", "merlind.tick_p50_ms", "merlind.tick_p90_ms")
	add("s", "lower", "merlind.restart_s")
	add("count", "higher", "merlind.coalesced")
	add("ratio", "lower", "trace_overhead")
	return out
}()

// timingPhases are the six public Result.Timing phases.
var timingPhases = []string{"preprocess", "graphbuild", "lpconstruct", "lpsolve", "rateless", "codegen"}

// statCounters maps /v1/stats.compiler fields (CompilerStats' JSON names)
// to metric names. A run reports their increase over its timed section;
// they repeat exactly for a given seed and request count.
var statCounters = []struct{ field, metric string }{
	{"StatementBuilds", "stmt_builds"},
	{"AnchoredBuilds", "anchored_builds"},
	{"ShardsSolved", "shards_solved"},
	{"ShardsWarm", "shards_warm"},
	{"ShardsReused", "shards_reused"},
	{"FullCodegens", "full_codegens"},
	{"PatchedCodegens", "patched_codegens"},
	{"GraphsPatched", "graphs_patched"},
	{"TreesKept", "trees_kept"},
	{"AnchoredInvalidated", "anchored_invalidated"},
}

// metricValue is one measured metric. N is the number of samples behind it.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runConfig is one run's command line.
type runConfig struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	Validate bool   // every op once, all checks, no timing
	Root     string // module root (where go.mod is)
	Out      string // bench/out: logs, traces, results, daemon data dirs
}

// runResult collects one run's metrics and check outcomes.
type runResult struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Trace     bool          `json:"trace"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
	// Extras are workload-specific numbers printed beside the contract's
	// metrics (restart_s, tick latencies, tcam_entries): reported, not
	// gated.
	Extras   []metricValue `json:"extras,omitempty"`
	Failures []string      `json:"failures,omitempty"`
	Notes    []string      `json:"-"`
	// misdelivered counts witnesses of statements that name no destination
	// which the compiled rules delivered to another host than addressed.
	misdelivered int
}

func newResult(w workload, cfg runConfig) *runResult {
	return &runResult{Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace}
}

func (r *runResult) attempt() { r.Attempted++ }

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, truncate(fmt.Sprintf(format, args...), 400))
	}
}

// truncate shortens a string for a failure report.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + fmt.Sprintf("… (%d more bytes)", len(s)-n)
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// set records a contract metric (its unit comes from the tables above).
func (r *runResult) set(name string, v float64, n int) {
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: v, Unit: unitOf(name), N: n})
}

func (r *runResult) extra(name string, v float64, unit string, n int) {
	r.Extras = append(r.Extras, metricValue{Name: name, Value: v, Unit: unit, N: n})
}

// complete fills every contract metric the run did not set with 0 (a layer
// the workload never enters) and orders them as the tables list them.
func (r *runResult) complete(defs []metricDef) {
	have := map[string]metricValue{}
	for _, m := range r.Metrics {
		have[m.Name] = m
	}
	r.Metrics = r.Metrics[:0]
	for _, d := range defs {
		m, ok := have[d.Name]
		if !ok {
			m = metricValue{Name: d.Name, Unit: d.Unit}
		}
		r.Metrics = append(r.Metrics, m)
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of a process (0 = this
// one) in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
