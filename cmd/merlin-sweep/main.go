// Command merlin-sweep runs scenario-corpus grids through the real
// compiler: every cell of topologies × policy suites × seeds × failure
// settings is generated by internal/corpus, compiled, validated (codegen
// output present, guarantees provisioned and region-confined, traffic
// allocation capacity-clean, byte-identical recompiles, balanced failure
// replay restoring the pre-schedule output, negotiation ticks honoring
// delegated caps, sharded ≡ monolithic and injected budget-overflow spot
// checks), and summarized.
//
// Usage:
//
//	merlin-sweep                                  # the 40-cell default grid
//	merlin-sweep -topos zoo-1,zoo-9 -suites tenants,delegation -seeds 1,2
//	merlin-sweep -grid grid.json -workers 4 -repeats 2
//	merlin-sweep -out results/                    # artifact directory
//
// A grid file is the JSON form of corpus.Grid:
//
//	{"topos": ["zoo-1", "fattree-k4"], "suites": ["tenants", "chains"],
//	 "seeds": [1, 2], "failures": [false, true], "diff_every": 4}
//
// Three artifacts are written to -out: sweep_summary.csv and
// sweep_summary.json hold only deterministic fields — the same grid and
// seeds reproduce them byte for byte — while sweep_cells.csv adds the
// per-cell wall-clock measurements. The exit status is the number of
// failed cells, clamped to 125.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"merlin/internal/corpus"
)

// summaryFile is the sweep_summary.json schema: one named experiment of
// labelled rows. GeneratedAt is never set, so the bytes are reproducible.
type summaryFile struct {
	GeneratedAt time.Time           `json:"generated_at"`
	Experiments []summaryExperiment `json:"experiments"`
}

type summaryExperiment struct {
	Name   string       `json:"name"`
	Title  string       `json:"title"`
	WallMS float64      `json:"wall_ms"`
	Rows   []summaryRow `json:"rows,omitempty"`
}

type summaryRow struct {
	Label  string
	Values map[string]string
	Order  []string
}

func main() {
	var (
		gridPath    = flag.String("grid", "", "JSON grid file (corpus.Grid); flags below override its fields")
		topos       = flag.String("topos", "", "comma-separated topologies (fattree-k4, btree-2-3-1, ring-12, star-8, linear-6, zoo-N)")
		suites      = flag.String("suites", "", "comma-separated policy suites: "+strings.Join(corpus.Suites(), ", "))
		seeds       = flag.String("seeds", "", "comma-separated integer seeds")
		failures    = flag.String("failures", "", "failure schedules: off, on, or both")
		workers     = flag.Int("workers", 0, "cell worker pool size (0 = one goroutine per cell)")
		repeats     = flag.Int("repeats", 0, "re-run each cell N times; repeats must reproduce the first run bit for bit")
		diffEvery   = flag.Int("diff-every", -1, "sharded-vs-monolithic differential on every Nth cell (0 disables, -1 keeps grid/default)")
		budgetEvery = flag.Int("budget-every", -1, "zero-budget overflow injection on every Nth cell (0 disables, -1 keeps grid/default)")
		outDir      = flag.String("out", ".", "directory for sweep_summary.{csv,json} and sweep_cells.csv")
		quiet       = flag.Bool("quiet", false, "suppress the per-group table")
	)
	flag.Parse()

	grid := corpus.DefaultGrid()
	if *gridPath != "" {
		data, err := os.ReadFile(*gridPath)
		if err != nil {
			fatal("reading -grid: %v", err)
		}
		grid = corpus.Grid{}
		if err := json.Unmarshal(data, &grid); err != nil {
			fatal("parsing -grid %s: %v", *gridPath, err)
		}
	}
	if *topos != "" {
		grid.Topos = splitList(*topos)
	}
	if *suites != "" {
		grid.Suites = splitList(*suites)
	}
	if *seeds != "" {
		grid.Seeds = nil
		for _, s := range splitList(*seeds) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				fatal("-seeds: %v", err)
			}
			grid.Seeds = append(grid.Seeds, n)
		}
	}
	switch *failures {
	case "":
	case "off":
		grid.Failures = []bool{false}
	case "on":
		grid.Failures = []bool{true}
	case "both":
		grid.Failures = []bool{false, true}
	default:
		fatal("-failures must be off, on, or both (got %q)", *failures)
	}
	if *workers != 0 {
		grid.Workers = *workers
	}
	if *repeats != 0 {
		grid.Repeats = *repeats
	}
	if *diffEvery >= 0 {
		grid.DiffEvery = *diffEvery
	}
	if *budgetEvery >= 0 {
		grid.BudgetEvery = *budgetEvery
	}
	if len(grid.Topos) == 0 || len(grid.Suites) == 0 {
		fatal("empty grid: need at least one topology and one suite")
	}
	if len(grid.Seeds) == 0 {
		grid.Seeds = []int64{1}
	}
	if len(grid.Failures) == 0 {
		grid.Failures = []bool{false}
	}

	cellCount := len(grid.Specs())
	fmt.Printf("sweeping %d cells: %d topologies x %d suites x %d seeds x %d failure settings\n",
		cellCount, len(grid.Topos), len(grid.Suites), len(grid.Seeds), len(grid.Failures))
	res := corpus.RunSweep(grid)

	if !*quiet {
		fmt.Printf("\n%-28s %6s %6s %10s %8s %8s\n", "group", "cells", "pass", "statements", "rules", "events")
		for _, g := range res.GroupRows() {
			fmt.Printf("%-28s %6d %6d %10d %8d %8d\n", g.Label, g.Cells, g.Pass, g.Statements, g.Rules, g.Events)
		}
	}
	for _, c := range res.Cells {
		if !c.OK() {
			fmt.Fprintf(os.Stderr, "merlin-sweep: cell %d %s: %s\n", c.Index, c.Name, c.Err)
		}
	}

	if err := writeArtifacts(*outDir, res); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\n%d/%d cells passed; wrote %s\n", cellCount-res.Failed, cellCount,
		filepath.Join(*outDir, "sweep_summary.{csv,json}"))
	if res.Failed > 0 {
		code := res.Failed
		if code > 125 {
			code = 125
		}
		os.Exit(code)
	}
}

// writeArtifacts emits the three sweep artifacts. The summary pair holds
// only deterministic fields; the cells CSV carries wall-clock.
func writeArtifacts(dir string, res *corpus.SweepResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "sweep_summary.csv"), res.SummaryCSV(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "sweep_cells.csv"), res.CellsCSV(), 0o644); err != nil {
		return err
	}
	rows := make([]summaryRow, 0, len(res.GroupRows()))
	for _, g := range res.GroupRows() {
		order := []string{"cells", "pass", "statements", "rules", "events", "checks"}
		rows = append(rows, summaryRow{
			Label: g.Label,
			Order: order,
			Values: map[string]string{
				"cells":      fmt.Sprint(g.Cells),
				"pass":       fmt.Sprint(g.Pass),
				"statements": fmt.Sprint(g.Statements),
				"rules":      fmt.Sprint(g.Rules),
				"events":     fmt.Sprint(g.Events),
				"checks":     fmt.Sprint(g.Checks),
			},
		})
	}
	payload := summaryFile{Experiments: []summaryExperiment{{
		Name:  "sweep",
		Title: "scenario corpus grid validation",
		Rows:  rows,
	}}}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "sweep_summary.json"), append(data, '\n'), 0o644)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "merlin-sweep: "+format+"\n", args...)
	os.Exit(2)
}
