// Command merlin-bench regenerates the paper's evaluation tables and
// figures (§6) and prints their rows. Absolute numbers differ from the
// paper — the substrate is the bundled simulator and simplex rather than a
// hardware testbed and Gurobi — but the shapes (who wins, by roughly what
// factor, where growth turns super-linear) reproduce. It is not the
// performance benchmark: bench/ (see bench/README.md) measures the paths
// merlinc and merlind run.
//
// Usage:
//
//	merlin-bench -list                      # print registered experiments
//	merlin-bench -run all
//	merlin-bench -run fig4,hadoop,fig5,fig6,table7,fig8,fig9,fig10,ablation
//	merlin-bench -run fig6 -zoo-stride 1    # all 262 zoo topologies
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"merlin/internal/experiments"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiments, see -list")
		list      = flag.Bool("list", false, "print the registered experiments and exit")
		zooStride = flag.Int("zoo-stride", 10, "sample every Nth Topology Zoo network for fig6 (1 = all 262)")
	)
	flag.Parse()
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	// show prints whatever rows were produced even on error, so a failure
	// partway through a sweep leaves the completed rows to debug from.
	show := func(rows []experiments.Row, err error) error {
		for _, r := range rows {
			fmt.Println(r.Format())
		}
		return err
	}

	// Experiments are registered first and run after the registry is
	// complete, so -list can print it and an unknown -run name is a hard
	// error before any measurement starts.
	type bench struct {
		name, title string
		run         func() error
	}
	var benches []bench
	section := func(name, title string, f func() error) {
		benches = append(benches, bench{name: name, title: title, run: f})
	}

	section("fig4", "expressiveness on the Stanford campus", func() error {
		return show(experiments.Fig4())
	})
	section("hadoop", "Hadoop sort under interference and guarantees (§6.2)", func() error {
		return show(experiments.Hadoop())
	})
	section("fig5", "Ring Paxos throughput without/with Merlin", func() error {
		return show(experiments.Fig5())
	})
	section("fig6", "Topology Zoo all-pairs compile times", func() error {
		return show(experiments.Fig6(*zooStride))
	})
	section("table7", "fat-tree provisioning cost split (Fig. 7 table)", func() error {
		for _, c := range experiments.Table7Cases() {
			r, err := experiments.Table7(c)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		}
		return nil
	})
	section("fig8", "compile time vs traffic classes (four panels)", func() error {
		for _, c := range experiments.Fig8Cases() {
			if err := show(experiments.Fig8(c)); err != nil {
				return err
			}
		}
		return nil
	})
	section("fig9", "negotiator verification scaling", func() error {
		if err := show(experiments.Fig9Predicates([]int{100, 500, 1000, 2000, 4000})); err != nil {
			return err
		}
		if err := show(experiments.Fig9Regexes([]int{50, 100, 200, 400, 800, 1000})); err != nil {
			return err
		}
		return show(experiments.Fig9Allocations([]int{100, 500, 1000, 2000, 4000}))
	})
	section("fig10", "AIMD and MMFS dynamic adaptation", func() error {
		aimd, err := experiments.Fig10AIMD()
		if err != nil {
			return err
		}
		fmt.Println("-- AIMD --")
		show(experiments.SeriesRows(aimd, 5), nil)
		mmfs, err := experiments.Fig10MMFS()
		if err != nil {
			return err
		}
		fmt.Println("-- MMFS --")
		return show(experiments.SeriesRows(mmfs, 2), nil)
	})
	section("ablation", "design-choice ablations", func() error {
		fmt.Println("-- path-selection heuristics (Fig. 3) --")
		if err := show(experiments.AblationHeuristics()); err != nil {
			return err
		}
		fmt.Println("-- greedy vs MIP --")
		if err := show(experiments.AblationGreedyVsMIP(8)); err != nil {
			return err
		}
		fmt.Println("-- DFA minimization in verification --")
		if err := show(experiments.AblationMinimization([]int{100, 400})); err != nil {
			return err
		}
		fmt.Println("-- localization splits (§3.1) --")
		return show(experiments.AblationLocalization())
	})

	if *list {
		for _, b := range benches {
			fmt.Printf("%-12s %s\n", b.name, b.title)
		}
		return
	}
	// An unknown -run name is a hard error, not a silent no-op: a typo'd
	// selection alongside valid names must never quietly skip its
	// measurement.
	known := map[string]bool{"all": true}
	for _, b := range benches {
		known[b.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "merlin-bench: unknown experiment %q in -run; see -list\n", name)
			os.Exit(2)
		}
	}
	if len(want) == 0 {
		fmt.Fprintf(os.Stderr, "merlin-bench: nothing selected by -run %q\n", *run)
		os.Exit(2)
	}

	for _, b := range benches {
		if !want["all"] && !want[b.name] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", b.name, b.title)
		if err := b.run(); err != nil {
			fmt.Fprintf(os.Stderr, "merlin-bench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
	}
}
