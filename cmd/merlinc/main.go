// Command merlinc compiles a Merlin policy against a topology and prints
// the generated device configuration: OpenFlow rules, queue reservations,
// tc/iptables commands, and Click configurations.
//
// Usage:
//
//	merlinc -topology fattree:4 -policy policy.m [-heuristic ratio] [-place dpi=m1,nat=m1]
//	merlinc -topology stanford -expr 'foreach (s,d) in cross(hosts,hosts): .*'
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	merlin "merlin"
	"merlin/internal/topo"
)

func main() {
	var (
		topoSpec  = flag.String("topology", "fattree:4", "topology: fattree:K, btree:FANOUT:DEPTH:HOSTS, linear:N, stanford, twopath, example")
		policyArg = flag.String("policy", "", "policy file to compile")
		exprArg   = flag.String("expr", "", "inline policy source (alternative to -policy)")
		heuristic = flag.String("heuristic", "wsp", "path selection: wsp, ratio, reserved")
		placeArg  = flag.String("place", "", "function placements, e.g. dpi=m1;nat=m1,h2")
		greedy    = flag.Bool("greedy", false, "use the greedy allocator instead of the MIP")
		targets   = flag.String("targets", "", "comma-separated dataplane backends (default: openflow,tc,click,host; registered: "+strings.Join(merlin.BackendNames(), ",")+")")
		budgetArg = flag.String("budget", "", "per-device ternary table budgets, e.g. core0=512;r1=0 (overflow re-places or rejects)")
		workers   = flag.Int("workers", 0, "compile worker pool size (0 = all CPUs, 1 = sequential)")
		timing    = flag.Bool("time", false, "print the per-phase compile-time breakdown")
		verbose   = flag.Bool("v", false, "print every generated rule")
	)
	flag.Parse()

	t, err := buildTopology(*topoSpec)
	if err != nil {
		fatal(err)
	}
	src := *exprArg
	if *policyArg != "" {
		data, err := os.ReadFile(*policyArg)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	if src == "" {
		fatal(fmt.Errorf("provide -policy FILE or -expr SOURCE"))
	}
	pol, err := merlin.ParsePolicy(src, t)
	if err != nil {
		fatal(err)
	}
	opts := merlin.Options{Greedy: *greedy, Workers: *workers}
	if *budgetArg != "" {
		budgets, err := parseBudgets(*budgetArg)
		if err != nil {
			fatal(err)
		}
		opts.TableBudgets = budgets
	}
	if *targets != "" {
		for _, name := range strings.Split(*targets, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Targets = append(opts.Targets, name)
			}
		}
	}
	switch *heuristic {
	case "wsp":
		opts.Heuristic = merlin.WeightedShortestPath
	case "ratio":
		opts.Heuristic = merlin.MinMaxRatio
	case "reserved":
		opts.Heuristic = merlin.MinMaxReserved
	default:
		fatal(fmt.Errorf("unknown heuristic %q", *heuristic))
	}
	res, err := merlin.Compile(pol, t, parsePlacement(*placeArg), opts)
	if err != nil {
		fatal(err)
	}
	c := res.Counts()
	fmt.Printf("compiled %d statements on %d switches / %d hosts\n",
		len(res.Policy.Statements), len(t.Switches()), len(t.Hosts()))
	fmt.Printf("  openflow rules: %d\n  queue configs:  %d\n  tc commands:    %d\n  iptables:       %d\n  click configs:  %d\n",
		c.OpenFlow, c.Queues, c.TC, c.IPTables, c.Click)
	if *timing {
		tm := res.Timing
		fmt.Printf("  timing (total %v):\n", tm.Total())
		fmt.Printf("    preprocess:   %v\n    graph build:  %v\n    lp construct: %v\n    lp solve:     %v\n    rateless:     %v\n    codegen:      %v\n",
			tm.Preprocess, tm.GraphBuild, tm.LPConstruct, tm.LPSolve, tm.Rateless, tm.Codegen)
	} else {
		fmt.Printf("  timing: preprocess=%v graphs=%v lp-construct=%v lp-solve=%v rateless=%v codegen=%v\n",
			res.Timing.Preprocess, res.Timing.GraphBuild, res.Timing.LPConstruct,
			res.Timing.LPSolve, res.Timing.Rateless, res.Timing.Codegen)
	}
	// Maps iterate in random order; sort so runs are diffable.
	for _, id := range sortedKeys(res.Paths) {
		fmt.Printf("  path %-8s %s\n", id+":", merlin.DescribePath(res.Paths[id]))
	}
	for _, id := range sortedKeys(res.Placements) {
		for _, pl := range res.Placements[id] {
			fmt.Printf("  place %-7s %s @ %s\n", id+":", pl.Fn, pl.Location)
		}
	}
	if *verbose {
		// Every target (e.g. -targets ...,p4) prints its native entries.
		for _, name := range sortedKeys(res.Outputs) {
			entries := res.Outputs[name].Entries()
			fmt.Printf("%s entries (%d):\n", name, len(entries))
			for _, e := range entries {
				fmt.Printf("  dev=%d %s\n", e.Device, e.Text)
			}
		}
	}
}

func buildTopology(spec string) (*merlin.Topology, error) {
	parts := strings.Split(spec, ":")
	atoi := func(i, def int) int {
		if i >= len(parts) {
			return def
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil {
			return def
		}
		return v
	}
	switch parts[0] {
	case "fattree":
		return topo.FatTree(atoi(1, 4), topo.Gbps), nil
	case "btree":
		return topo.BalancedTree(atoi(1, 2), atoi(2, 2), atoi(3, 2), topo.Gbps), nil
	case "linear":
		return topo.Linear(atoi(1, 3), topo.Gbps), nil
	case "stanford":
		return topo.Stanford(atoi(1, 24), atoi(2, 1), topo.Gbps), nil
	case "twopath":
		return topo.TwoPath(400*topo.MBps, 100*topo.MBps), nil
	case "example":
		return topo.Example(topo.Gbps), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
}

// parseBudgets parses the -budget form dev=N;dev=N into the per-device
// ternary table budget map.
func parseBudgets(arg string) (map[string]int, error) {
	budgets := map[string]int{}
	for _, kv := range strings.Split(arg, ";") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || parts[0] == "" {
			return nil, fmt.Errorf("bad -budget entry %q (want dev=N)", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -budget entry %q: budget must be a non-negative integer", kv)
		}
		budgets[parts[0]] = n
	}
	return budgets, nil
}

func parsePlacement(arg string) merlin.Placement {
	if arg == "" {
		return nil
	}
	place := merlin.Placement{}
	for _, kv := range strings.Split(arg, ";") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			continue
		}
		place[parts[0]] = strings.Split(parts[1], ",")
	}
	return place
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "merlinc:", err)
	os.Exit(1)
}

// sortedKeys returns a map's keys in sorted order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
