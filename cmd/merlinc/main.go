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

// topoParam is one integer parameter of a -topology family: its name in
// the usage string, its default, and the values the family can build.
type topoParam struct {
	name     string
	def, min int
	even     bool
}

// topologies are the -topology families by name, each with its
// colon-separated parameters in order.
var topologies = map[string]struct {
	params []topoParam
	build  func(p []int) *merlin.Topology
}{
	"fattree": {[]topoParam{{"K", 4, 2, true}},
		func(p []int) *merlin.Topology { return topo.FatTree(p[0], topo.Gbps) }},
	"btree": {[]topoParam{{"FANOUT", 2, 1, false}, {"DEPTH", 2, 0, false}, {"HOSTS", 2, 0, false}},
		func(p []int) *merlin.Topology { return topo.BalancedTree(p[0], p[1], p[2], topo.Gbps) }},
	"linear": {[]topoParam{{"N", 3, 1, false}},
		func(p []int) *merlin.Topology { return topo.Linear(p[0], topo.Gbps) }},
	"stanford": {[]topoParam{{"SUBNETS", 24, 1, false}, {"HOSTS", 1, 1, false}},
		func(p []int) *merlin.Topology { return topo.Stanford(p[0], p[1], topo.Gbps) }},
	"twopath": {nil, func([]int) *merlin.Topology { return topo.TwoPath(400*topo.MBps, 100*topo.MBps) }},
	"example": {nil, func([]int) *merlin.Topology { return topo.Example(topo.Gbps) }},
}

// buildTopology builds a -topology spec, FAMILY[:P1[:P2...]]. Omitted
// parameters take their defaults; a parameter the family cannot build is
// an error naming it.
func buildTopology(spec string) (*merlin.Topology, error) {
	name, rest, hasArgs := strings.Cut(spec, ":")
	fam, ok := topologies[name]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
	var args []string
	if hasArgs {
		args = strings.Split(rest, ":")
	}
	if len(args) > len(fam.params) {
		return nil, fmt.Errorf("topology %s takes %d parameters, got %d", name, len(fam.params), len(args))
	}
	vals := make([]int, len(fam.params))
	for i, p := range fam.params {
		vals[i] = p.def
		if i >= len(args) {
			continue
		}
		v, err := strconv.Atoi(args[i])
		switch {
		case err != nil || v < p.min:
			return nil, fmt.Errorf("topology %s: %s must be an integer >= %d, got %q", name, p.name, p.min, args[i])
		case p.even && v%2 != 0:
			return nil, fmt.Errorf("topology %s: %s must be even, got %d", name, p.name, v)
		}
		vals[i] = v
	}
	return fam.build(vals), nil
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
