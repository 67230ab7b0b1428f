// Command bench is the repository's benchmark: end-to-end and per-layer
// measurements of the paths merlinc and merlind actually run. It drives the
// system only from outside — the real merlind binary over loopback HTTP,
// merlin.Compile / merlin.Compiler in process, and the exported functions
// of each internal package — on inputs generated from -seed by
// internal/corpus. See README.md in this directory.
//
//	go run ./bench -workload daemon-delta -seed 1          # one run
//	go run ./bench -workload compile-chains -seed 1 -trace 1
//	go run ./bench -all                                    # every workload, untraced then traced
//	go run ./bench -aa 10                                  # same-build spread of every end-to-end metric
//	go run ./bench -validate                               # every op once, all checks, no timing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 8, "length of the timed section; it sets the op count, so counters repeat exactly")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics from spans recorded in bench/")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, and write bench/out/results.json")
		aa       = flag.Int("aa", 0, "run every workload N times on this build, alternating order, and report each end-to-end metric's spread against its bound")
		validate = flag.Bool("validate", false, "generate every workload's inputs and run each op once with all output checks and no timing")
		list     = flag.Bool("list", false, "list workloads and metrics")
	)
	flag.Parse()
	if *list {
		printList()
		return
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Validate: *validate}
	var err error
	if cfg.Root, err = moduleRoot(); err == nil {
		cfg.Out = filepath.Join(cfg.Root, "bench", "out")
		err = os.MkdirAll(cfg.Out, 0o755)
	}
	switch {
	case err != nil:
	case *validate:
		err = runValidate(cfg, nil)
	case *all:
		err = runAll(cfg)
	case *aa > 0:
		err = runAA(cfg, *aa)
	default:
		err = runOne(cfg, *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the contract's command line: one workload, one report, the
// result object as the last line of standard output.
func runOne(cfg runConfig, name string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	report(os.Stdout, res)
	if err := writeJSON(filepath.Join(cfg.Out, resultFile(res)), resultFileBody{Env: environment(cfg.Root), Result: res}); err != nil {
		return err
	}
	fmt.Println(contractLine(res))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations or checks failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	var res *runResult
	var err error
	switch {
	case w.Kind == kindCompile && cfg.Trace:
		res, err = traceCompile(w, cfg)
	case w.Kind == kindCompile:
		res, err = runCompile(w, cfg)
	case cfg.Trace:
		res, err = traceDaemon(w, cfg)
	default:
		res, err = runDaemon(w, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: nothing was attempted", w.Name)
	}
	if res.Failed == 0 && !cfg.Validate {
		if cfg.Trace {
			res.complete(perLayer)
		} else {
			res.complete(endToEnd)
		}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` runs at the root, `go test` in bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// env records where a result was measured.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(root string) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

type resultFileBody struct {
	Env    env        `json:"env"`
	Result *runResult `json:"result"`
}

func resultFile(res *runResult) string {
	kind := "e2e"
	if res.Trace {
		kind = "trace"
	}
	return fmt.Sprintf("result-%s-%s.json", res.Workload, kind)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints every metric by name with its unit: workload metric value
// unit n.
func report(w *os.File, res *runResult) {
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
	for _, list := range [][]metricValue{res.Metrics, res.Extras} {
		for _, m := range list {
			fmt.Fprintf(w, "%-20s %-44s %12.4f %-6s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-20s %-44s %12.4f %-6s n=%d\n", res.Workload, "failed_share", share, "ratio", res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%-20s FAILED %s\n", res.Workload, f)
	}
}

// contractLine is the last line of standard output: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func contractLine(res *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range res.Metrics {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(b)
}

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload   %-20s %s\n", w.Name, w.Why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end-to-end %-28s %-6s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Printf("per-layer  %-28s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}
