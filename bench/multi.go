package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childRun is the contract line of one single-workload run.
type childRun struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own — this binary again —
// exactly as the single-run command line does, so peak memory and caches
// are the run's own. Its report is passed through unless quiet.
func runChild(cfg runConfig, name string, seed int64, trace, quiet bool) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", t)
	cmd.Dir = cfg.Root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" && !quiet {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	run := &childRun{Workload: name, Seed: seed, Trace: trace}
	if err := json.Unmarshal([]byte(last), run); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %s", name, runErr, truncate(last, 200))
	}
	if runErr != nil || !run.Correct {
		return run, fmt.Errorf("%s seed %d: %d of %d failed (%v)", name, seed, run.Failed, run.Attempted, runErr)
	}
	return run, nil
}

// runAll runs every workload, untraced then traced, prints every metric by
// name with its unit, and writes bench/out/results.json.
func runAll(cfg runConfig) error {
	var runs []*childRun
	var firstErr error
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			run, err := runChild(cfg, w.Name, cfg.Seed, trace, false)
			if run != nil {
				runs = append(runs, run)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	path := filepath.Join(cfg.Out, "results.json")
	if err := writeJSON(path, struct {
		Env  env         `json:"env"`
		Runs []*childRun `json:"runs"`
	}{environment(cfg.Root), runs}); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	return firstErr
}

// aaRow is one (workload, metric) pair's same-build spread.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
}

// runAA runs every workload n times on this build — round i with seed
// base+i, alternating the workload order between rounds — and reports each
// end-to-end metric's interquartile spread as a share of its median
// against its bound: what two sets of runs of the same code may differ by.
func runAA(cfg runConfig, n int) error {
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		order := append([]workload(nil), workloads...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			run, err := runChild(cfg, w.Name, cfg.Seed+int64(i), false, true)
			if err != nil {
				return err
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range run.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa round %d/%d: %s done\n", i+1, n, w.Name)
		}
	}
	var rows []aaRow
	fmt.Printf("%-20s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	over := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			vs := values[w.Name][def.Name]
			q1, q3 := quartiles(vs)
			row := aaRow{w.Name, def.Name, def.Unit, median(vs), q1, q3, spread(vs), def.Bound, vs}
			rows = append(rows, row)
			flag := ""
			switch {
			case row.Spread > def.Bound:
				flag = "OVER BOUND"
				over++
			case row.Spread > def.Bound/3:
				flag = "over a third of the bound"
			}
			fmt.Printf("%-20s %-14s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", w.Name, def.Name, row.Median, q1, q3, row.Spread, def.Bound, flag)
		}
	}
	path := filepath.Join(cfg.Out, "aa.json")
	if err := writeJSON(path, struct {
		Env    env     `json:"env"`
		Rounds int     `json:"rounds"`
		Seed   int64   `json:"first_seed"`
		Rows   []aaRow `json:"rows"`
	}{environment(cfg.Root), n, cfg.Seed, rows}); err != nil {
		return err
	}
	fmt.Println("spreads written to", path)
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) pairs spread wider than their bound", over)
	}
	return nil
}

// runValidate generates every workload's inputs and runs each op once with
// all output checks and no timing, untraced and traced. keep (nil = all)
// selects workloads: `go test -short` leaves the daemon workloads out.
func runValidate(cfg runConfig, keep func(workload) bool) error {
	var bad []string
	for _, w := range workloads {
		if keep != nil && !keep(w) {
			continue
		}
		for _, trace := range []bool{false, true} {
			c := cfg
			c.Trace = trace
			start := time.Now()
			res, err := runWorkload(w, c)
			took := time.Since(start).Round(time.Millisecond)
			switch {
			case err != nil:
				bad = append(bad, err.Error())
				fmt.Printf("%-20s trace=%v ERROR %v\n", w.Name, trace, err)
			case res.Failed > 0:
				bad = append(bad, fmt.Sprintf("%s: %s", w.Name, strings.Join(res.Failures, "; ")))
				fmt.Printf("%-20s trace=%v FAILED %d of %d: %s\n", w.Name, trace, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
			default:
				fmt.Printf("%-20s trace=%v ok (%d ops and checks, %v)\n", w.Name, trace, res.Attempted, took)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("validation failed: %s", strings.Join(bad, " | "))
	}
	return nil
}
