// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) at laptop scale. Each Run function produces printable
// rows in the paper's shape; cmd/merlin-bench renders them and the
// repository-root benchmarks time them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"merlin/internal/negotiate"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/regex"
	"merlin/internal/sim"
	"merlin/internal/topo"
	"merlin/internal/verify"
	"merlin/internal/zoo"

	merlin "merlin"
)

// Row is one line of experiment output.
type Row struct {
	Label  string
	Values map[string]string
	Order  []string
}

func row(label string, kv ...string) Row {
	r := Row{Label: label, Values: map[string]string{}}
	for i := 0; i+1 < len(kv); i += 2 {
		r.Order = append(r.Order, kv[i])
		r.Values[kv[i]] = kv[i+1]
	}
	return r
}

// Format renders a row for terminal output.
func (r Row) Format() string {
	parts := make([]string, 0, len(r.Order))
	for _, k := range r.Order {
		parts = append(parts, fmt.Sprintf("%s=%s", k, r.Values[k]))
	}
	return fmt.Sprintf("%-28s %s", r.Label, strings.Join(parts, "  "))
}

// pairPolicy builds an all-pairs connectivity policy over the topology.
func pairPolicy(t *topo.Topology) (*merlin.Policy, error) {
	return merlin.ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, t)
}

// Fig4 reproduces the expressiveness experiment: the five policies of
// §6.1 on the Stanford-style campus topology, reporting Merlin policy
// size versus generated instruction counts.
func Fig4() ([]Row, error) {
	t := topo.Stanford(24, 1, topo.Gbps)
	ids := t.Identities()
	hosts := ids.Hosts()
	macs := ids.MACs()
	var rows []Row

	compile := func(label string, loc int, pol *merlin.Policy, place merlin.Placement, opts merlin.Options) error {
		res, err := merlin.Compile(pol, t, place, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		c := res.Counts()
		rows = append(rows, row(fmt.Sprintf("%s (%d loc)", label, loc),
			"openflow", fmt.Sprint(c.OpenFlow),
			"queues", fmt.Sprint(c.Queues),
			"tc", fmt.Sprint(c.TC),
			"iptables", fmt.Sprint(c.IPTables),
			"click", fmt.Sprint(c.Click),
			"total", fmt.Sprint(c.Total()),
		))
		return nil
	}

	// 1. Baseline: all-pairs connectivity (6 lines of Merlin).
	base, err := pairPolicy(t)
	if err != nil {
		return nil, err
	}
	if err := compile("baseline", 6, base, nil, merlin.Options{NoDefault: true}); err != nil {
		return nil, err
	}

	// 2. Bandwidth: baseline + guarantees and caps for 10% of classes
	// (11 lines). Guarantees are provisioned greedily at this scale.
	var sb strings.Builder
	sb.WriteString(`foreach (s,d) in cross(hosts,hosts): .*` + "\n[")
	g := 0
	for i := 0; i < len(hosts) && g < len(hosts)*(len(hosts)-1)/10; i += 1 {
		j := (i*7 + 3) % len(hosts)
		if i == j {
			continue
		}
		fmt.Fprintf(&sb, " g%d : (eth.src = %s and eth.dst = %s and tcp.dst = 5000) -> .* at min(1Mbps) at max(1Gbps) ;",
			g, macs[i], macs[j])
		g++
	}
	sb.WriteString("]")
	bw, err := merlin.ParsePolicy(sb.String(), t)
	if err != nil {
		return nil, err
	}
	if err := compile("bandwidth", 11, bw, nil, merlin.Options{NoDefault: true, Greedy: true}); err != nil {
		return nil, err
	}

	// 3. Firewall: web traffic into the campus passes the mb0 middlebox
	// (23 lines).
	fw := `
foreach (s,d) in cross(hosts,hosts): tcp.dst != 80 -> .*
foreach (s,d) in cross(hosts,hosts): tcp.dst = 80 -> .* fw .*
`
	fwPol, err := merlin.ParsePolicy(fw, t)
	if err != nil {
		return nil, err
	}
	if err := compile("firewall", 23, fwPol, merlin.Placement{"fw": {"mb0"}},
		merlin.Options{NoDefault: true}); err != nil {
		return nil, err
	}

	// 4. Monitoring middlebox: hosts partitioned in two; cross-set
	// traffic inspected (11 lines).
	half := len(macs) / 2
	setA := strings.Join(macs[:half], ", ")
	setB := strings.Join(macs[half:], ", ")
	mbox := `
a := {` + setA + `}
b := {` + setB + `}
foreach (s,d) in cross(a,a): .*
foreach (s,d) in cross(b,b): .*
foreach (s,d) in cross(a,b): .* mon .*
foreach (s,d) in cross(b,a): .* mon .*
`
	mboxPol, err := merlin.ParsePolicy(mbox, t)
	if err != nil {
		return nil, err
	}
	if err := compile("mbox", 11, mboxPol, merlin.Placement{"mon": {"mb0", "mb1"}},
		merlin.Options{NoDefault: true}); err != nil {
		return nil, err
	}

	// 5. Combination: firewall + guarantees + inspection (23 lines).
	combo := `
a := {` + setA + `}
b := {` + setB + `}
foreach (s,d) in cross(a,a): tcp.dst != 80 -> .*
foreach (s,d) in cross(b,b): tcp.dst != 80 -> .*
foreach (s,d) in cross(a,b): tcp.dst != 80 -> .* mon .*
foreach (s,d) in cross(b,a): tcp.dst != 80 -> .* mon .*
foreach (s,d) in cross(hosts,hosts): tcp.dst = 80 -> ( .* fw .* ) at min(500kbps)
`
	comboPol, err := merlin.ParsePolicy(combo, t)
	if err != nil {
		return nil, err
	}
	if err := compile("combo", 23, comboPol,
		merlin.Placement{"fw": {"mb0"}, "mon": {"mb0", "mb1"}},
		merlin.Options{NoDefault: true, Greedy: true}); err != nil {
		return nil, err
	}
	return rows, nil
}

// Hadoop reproduces §6.2's sort-job experiment: baseline, interference,
// and 90%-guarantee configurations.
func Hadoop() ([]Row, error) {
	base, err := sim.RunHadoop(sim.HadoopConfig{})
	if err != nil {
		return nil, err
	}
	interf, err := sim.RunHadoop(sim.HadoopConfig{Background: true})
	if err != nil {
		return nil, err
	}
	guar, err := sim.RunHadoop(sim.HadoopConfig{Background: true, GuaranteeFraction: 0.9})
	if err != nil {
		return nil, err
	}
	return []Row{
		row("baseline", "completion_s", fmt.Sprintf("%.0f", base.CompletionSeconds), "paper_s", "466"),
		row("interference", "completion_s", fmt.Sprintf("%.0f", interf.CompletionSeconds), "paper_s", "558"),
		row("guarantee-90%", "completion_s", fmt.Sprintf("%.0f", guar.CompletionSeconds), "paper_s", "500"),
	}, nil
}

// Fig5 reproduces the Ring Paxos throughput sweep without and with a
// Merlin guarantee for service 2.
func Fig5() ([]Row, error) {
	without, err := sim.RunRingPaxos(sim.RingPaxosConfig{})
	if err != nil {
		return nil, err
	}
	with, err := sim.RunRingPaxos(sim.RingPaxosConfig{GuaranteeBps: 6e8})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i := range without {
		w, m := without[i], with[i]
		rows = append(rows, row(fmt.Sprintf("clients=%d", w.Clients),
			"plain_r1_Mbps", fmt.Sprintf("%.0f", w.Ring1/1e6),
			"plain_r2_Mbps", fmt.Sprintf("%.0f", w.Ring2/1e6),
			"plain_agg", fmt.Sprintf("%.0f", w.Aggregate/1e6),
			"merlin_r1", fmt.Sprintf("%.0f", m.Ring1/1e6),
			"merlin_r2", fmt.Sprintf("%.0f", m.Ring2/1e6),
			"merlin_agg", fmt.Sprintf("%.0f", m.Aggregate/1e6),
		))
	}
	return rows, nil
}

// Fig6 reproduces the Topology Zoo compile-time experiment: all-pairs
// connectivity on every (sampled) zoo topology, reporting time versus
// switch count. stride samples the 262 networks (1 = all).
func Fig6(stride int) ([]Row, error) {
	if stride < 1 {
		stride = 1
	}
	var rows []Row
	for i := 0; i < zoo.Count; i += stride {
		t := zoo.Generate(i, 1)
		pol, err := pairPolicy(t)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, err = merlin.Compile(pol, t, nil, merlin.Options{NoDefault: true})
		if err != nil {
			return nil, fmt.Errorf("zoo %d: %w", i, err)
		}
		elapsed := time.Since(start)
		rows = append(rows, row(fmt.Sprintf("zoo-%03d", i),
			"switches", fmt.Sprint(len(t.Switches())),
			"hosts", fmt.Sprint(len(t.Hosts())),
			"compile_ms", fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
		))
	}
	return rows, nil
}

// Table7Case is one row of the fat-tree provisioning table.
type Table7Case struct {
	Name       string
	Build      func() *topo.Topology
	Guaranteed int // number of guaranteed classes (5% of classes, scaled)
}

// Table7Cases are the scaled-down fat-tree/balanced-tree sweep cases. The
// paper's table runs to 480 hosts and 10^4-second Gurobi solves; the
// bundled simplex reproduces the same shape (LP time exploding
// super-linearly while rateless time stays near-linear) at laptop scale.
func Table7Cases() []Table7Case {
	return []Table7Case{
		{"fattree-k2", func() *topo.Topology { return topo.FatTree(2, topo.Gbps) }, 1},
		{"btree-2-2", func() *topo.Topology { return topo.BalancedTree(2, 2, 2, topo.Gbps) }, 3},
		{"fattree-k4", func() *topo.Topology { return topo.FatTree(4, topo.Gbps) }, 6},
		{"fattree-k4+", func() *topo.Topology { return topo.FatTree(4, topo.Gbps) }, 8},
	}
}

// table7Policy builds one sweep case's policy: all-pairs traffic classes
// with the given number of them guaranteed.
func table7Policy(c Table7Case, t *topo.Topology) (*merlin.Policy, int, error) {
	macs := t.Identities().MACs()
	classes := len(macs) * (len(macs) - 1)
	var sb strings.Builder
	sb.WriteString(`foreach (s,d) in cross(hosts,hosts): .*` + "\n[")
	for g := 0; g < c.Guaranteed; g++ {
		i := g % len(macs)
		j := (g*5 + 1 + g/len(macs)) % len(macs)
		if i == j {
			j = (j + 1) % len(macs)
		}
		fmt.Fprintf(&sb, " g%d : (eth.src = %s and eth.dst = %s and tcp.dst = 7000) -> .* at min(5Mbps) ;",
			g, macs[i], macs[j])
	}
	sb.WriteString("]")
	pol, err := merlin.ParsePolicy(sb.String(), t)
	return pol, classes, err
}

// Table7 runs one sweep case, reporting the paper's table columns.
func Table7(c Table7Case) (Row, error) {
	t := c.Build()
	pol, classes, err := table7Policy(c, t)
	if err != nil {
		return Row{}, err
	}
	res, err := merlin.Compile(pol, t, nil, merlin.Options{NoDefault: true})
	if err != nil {
		return Row{}, err
	}
	return row(c.Name,
		"classes", fmt.Sprint(classes+c.Guaranteed),
		"hosts", fmt.Sprint(len(t.Hosts())),
		"switches", fmt.Sprint(len(t.Switches())),
		"lp_construct_ms", fmt.Sprintf("%.1f", ms(res.Timing.GraphBuild+res.Timing.LPConstruct)),
		"lp_solve_ms", fmt.Sprintf("%.1f", ms(res.Timing.LPSolve)),
		"rateless_ms", fmt.Sprintf("%.1f", ms(res.Timing.Rateless)),
	), nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Fig8Case selects one of the four compile-time sweep panels.
type Fig8Case struct {
	Name       string
	Build      func(scale int) *topo.Topology
	Guaranteed bool
	Scales     []int
}

// Fig8Cases returns the four panels: balanced tree and fat tree, all-pairs
// and 5%-guaranteed.
func Fig8Cases() []Fig8Case {
	btree := func(scale int) *topo.Topology { return topo.BalancedTree(2, scale, 2, topo.Gbps) }
	ftree := func(scale int) *topo.Topology { return topo.FatTree(scale, topo.Gbps) }
	return []Fig8Case{
		{"8a-btree-allpairs", btree, false, []int{1, 2, 3, 4}},
		{"8b-btree-guaranteed", btree, true, []int{1, 2, 3}},
		{"8c-fattree-allpairs", ftree, false, []int{2, 4, 6}},
		{"8d-fattree-guaranteed", ftree, true, []int{2, 4}},
	}
}

// Fig8 runs one panel, one row per scale point.
func Fig8(c Fig8Case) ([]Row, error) {
	var rows []Row
	for _, scale := range c.Scales {
		t := c.Build(scale)
		macs := t.Identities().MACs()
		classes := len(macs) * (len(macs) - 1)
		guaranteed := 0
		var src strings.Builder
		src.WriteString(`foreach (s,d) in cross(hosts,hosts): .*`)
		if c.Guaranteed {
			guaranteed = classes / 20 // 5%
			if guaranteed < 1 {
				guaranteed = 1
			}
			if guaranteed > 8 {
				guaranteed = 8 // keep the exact solver tractable
			}
			src.WriteString("\n[")
			for g := 0; g < guaranteed; g++ {
				i := g % len(macs)
				j := (g*3 + 1) % len(macs)
				if i == j {
					j = (j + 1) % len(macs)
				}
				fmt.Fprintf(&src, " g%d : (eth.src = %s and eth.dst = %s and tcp.dst = 7000) -> .* at min(2Mbps) ;",
					g, macs[i], macs[j])
			}
			src.WriteString("]")
		}
		pol, err := merlin.ParsePolicy(src.String(), t)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, err = merlin.Compile(pol, t, nil, merlin.Options{NoDefault: true})
		if err != nil {
			return nil, fmt.Errorf("%s scale %d: %w", c.Name, scale, err)
		}
		rows = append(rows, row(fmt.Sprintf("%s scale=%d", c.Name, scale),
			"classes", fmt.Sprint(classes+guaranteed),
			"guaranteed", fmt.Sprint(guaranteed),
			"compile_ms", fmt.Sprintf("%.1f", ms(time.Since(start))),
		))
	}
	return rows, nil
}

// Fig9Predicates measures verification time against the number of
// delegated predicates (left panel): one parent statement partitioned
// into n children.
func Fig9Predicates(ns []int) ([]Row, error) {
	var rows []Row
	for _, n := range ns {
		orig, ref, err := PartitionWorkload(n)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := verify.CheckRefinement(orig, ref, verify.Options{})
		if err != nil {
			return nil, err
		}
		if !rep.OK() {
			return nil, fmt.Errorf("fig9a: workload rejected: %v", rep.Violations[0])
		}
		rows = append(rows, row(fmt.Sprintf("statements=%d", n),
			"verify_ms", fmt.Sprintf("%.2f", ms(time.Since(start)))))
	}
	return rows, nil
}

// PartitionWorkload builds the Fig. 9(a)/(c) refinement: tcp traffic split
// into n port classes plus a remainder, each with an equal cap share.
func PartitionWorkload(n int) (*policy.Policy, *policy.Policy, error) {
	orig, err := policy.Parse(`[ x : ip.proto = 6 -> .* ], max(x, 100MB/s)`, policy.Env{})
	if err != nil {
		return nil, nil, err
	}
	ref := &policy.Policy{Formula: policy.FTrue{}}
	share := 100 * 8e6 / float64(n+1)
	rest := pred.Pred(pred.Test{Field: "ip.proto", Value: "6"})
	for i := 0; i < n; i++ {
		port := fmt.Sprint(i + 1)
		p := pred.Conj(pred.Test{Field: "ip.proto", Value: "6"},
			pred.Test{Field: "tcp.dst", Value: port})
		id := fmt.Sprintf("p%d", i)
		ref.Statements = append(ref.Statements, policy.Statement{
			ID: id, Predicate: p, Path: regex.Star{X: regex.Any{}},
		})
		ref.Formula = policy.ConjFormula(ref.Formula,
			policy.Max{Expr: policy.BandExpr{IDs: []string{id}}, Rate: share})
		rest = pred.Conj(rest, pred.Negate(pred.Test{Field: "tcp.dst", Value: port}))
	}
	ref.Statements = append(ref.Statements, policy.Statement{
		ID: "rest", Predicate: rest, Path: regex.Star{X: regex.Any{}},
	})
	ref.Formula = policy.ConjFormula(ref.Formula,
		policy.Max{Expr: policy.BandExpr{IDs: []string{"rest"}}, Rate: share})
	return orig, ref, nil
}

// Fig9Regexes measures verification time against path-expression size
// (middle panel): waypoint chains of growing node count.
func Fig9Regexes(nodes []int) ([]Row, error) {
	var rows []Row
	for _, n := range nodes {
		orig, ref, err := regexWorkload(n)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := verify.CheckRefinement(orig, ref, verify.Options{})
		if err != nil {
			return nil, err
		}
		if !rep.OK() {
			return nil, fmt.Errorf("fig9b: workload rejected")
		}
		rows = append(rows, row(fmt.Sprintf("regex_nodes=%d", n),
			"verify_ms", fmt.Sprintf("%.2f", ms(time.Since(start)))))
	}
	return rows, nil
}

// regexWorkload builds statements whose paths are waypoint chains with
// about n AST nodes; the refinement inserts one more waypoint.
func regexWorkload(n int) (*policy.Policy, *policy.Policy, error) {
	waypoints := n / 4 // ".* wK" contributes ~4 nodes each
	if waypoints < 1 {
		waypoints = 1
	}
	chain := func(extra bool) regex.Expr {
		parts := []regex.Expr{regex.Star{X: regex.Any{}}}
		for i := 0; i < waypoints; i++ {
			parts = append(parts, regex.Sym{Name: fmt.Sprintf("w%d", i)}, regex.Star{X: regex.Any{}})
		}
		if extra {
			parts = append(parts, regex.Sym{Name: "extra"}, regex.Star{X: regex.Any{}})
		}
		return regex.ConcatAll(parts...)
	}
	p := pred.Pred(pred.Test{Field: "ip.proto", Value: "6"})
	orig := &policy.Policy{Statements: []policy.Statement{
		{ID: "x", Predicate: p, Path: chain(false)},
	}, Formula: policy.FTrue{}}
	ref := &policy.Policy{Statements: []policy.Statement{
		{ID: "x", Predicate: p, Path: chain(true)},
	}, Formula: policy.FTrue{}}
	return orig, ref, nil
}

// Fig9Allocations measures verification time against the number of
// bandwidth allocations (right panel) — the same partition workload, whose
// formula carries one allocation per statement.
func Fig9Allocations(ns []int) ([]Row, error) {
	rows, err := Fig9Predicates(ns)
	for i := range rows {
		rows[i].Label = strings.Replace(rows[i].Label, "statements", "allocations", 1)
	}
	return rows, err
}

// Fig10AIMD runs the additive-increase/multiplicative-decrease adaptation
// and returns the two tenants' rate series.
func Fig10AIMD() ([]sim.Series, error) {
	return negotiate.RunAIMD(negotiate.AIMDConfig{})
}

// Fig10MMFS runs the max-min fair-share adaptation.
func Fig10MMFS() ([]sim.Series, error) {
	return negotiate.RunMMFS(negotiate.MMFSConfig{})
}

// SeriesRows renders time series as rows (sampled every sampleEvery
// points).
func SeriesRows(series []sim.Series, sampleEvery int) []Row {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var rows []Row
	if len(series) == 0 {
		return rows
	}
	for i := 0; i < len(series[0].Samples); i += sampleEvery {
		kv := []string{"t_s", fmt.Sprintf("%.0f", series[0].Samples[i].Time)}
		for _, s := range series {
			kv = append(kv, s.Name, fmt.Sprintf("%.0fMbps", s.Samples[i].Rate/1e6))
		}
		rows = append(rows, row("", kv...))
	}
	return rows
}
