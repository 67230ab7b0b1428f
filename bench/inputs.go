package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/topo"
)

type workloadKind int

const (
	kindCompile workloadKind = iota
	kindDelta
	kindFailover
	kindHub
)

// workload is one set of inputs the benchmark runs. Why is recorded in
// BENCHMARK.json; TestBenchmarkJSON keeps the two in step.
type workload struct {
	Name string
	Why  string
	Kind workloadKind
	// Scenarios are the policies a compile workload compiles, each cold,
	// once per round.
	Scenarios []scenarioSpec
	// TotalityDefault compiles with Options{} — the §2.1 default statement
	// on, as merlinc and merlind run — instead of NoDefault.
	TotalityDefault bool
	// PerSecond sizes the timed section: rounds (compile) or requests
	// (daemon) per second of -seconds, so a run measures for about
	// -seconds on the machine the counts were chosen on. Counts, not
	// durations, end the section, so work counters repeat exactly.
	PerSecond float64
}

// scenarioSpec names one compile scenario: a corpus cell, or the all-pairs
// foreach policy (AllPairs) on a bare topology.
type scenarioSpec struct {
	Topo, Suite         string
	Tenants, Guarantees int
	AllPairs            bool
}

func (s scenarioSpec) name() string {
	if s.AllPairs {
		return s.Topo + "/allpairs"
	}
	return fmt.Sprintf("%s/%s-%dx%d", s.Topo, s.Suite, s.Tenants, s.Guarantees)
}

const (
	daemonTopoSpec   = "fattree,k=8" // merlind -topo
	daemonTopoCorpus = "fattree-k8"  // the same graph in internal/corpus
	catchAll         = " zall : true -> .* ;"
)

var workloads = []workload{
	{
		Name: "compile-guaranteed", Kind: kindCompile, PerSecond: 1.5,
		Why: "Region-confined guarantees: anchored product-graph builds (regex, logical) dominate, the solver is all netflow, codegen is negligible.",
		Scenarios: []scenarioSpec{
			{Topo: "fattree-k8", Suite: "tenants", Tenants: 8, Guarantees: 6},
			{Topo: "zoo-14", Suite: "tenants", Tenants: 8, Guarantees: 3},
			{Topo: "zoo-54", Suite: "tenants", Tenants: 6, Guarantees: 3},
		},
	},
	{
		Name: "compile-chains", Kind: kindCompile, PerSecond: 1.5,
		Why: "Middlebox waypoints: provision's per-shard solve dominates (all netflow today, no shard takes branch and bound) and graph builds are the minority.",
		Scenarios: []scenarioSpec{
			{Topo: "fattree-k6", Suite: "chains", Tenants: 8, Guarantees: 6},
			{Topo: "fattree-k8", Suite: "chains", Tenants: 8, Guarantees: 6},
			{Topo: "zoo-14", Suite: "chains", Tenants: 8, Guarantees: 6},
		},
	},
	{
		Name: "compile-besteffort", Kind: kindCompile, PerSecond: 10,
		Why: "No guarantees: pred cubes, sink trees, codegen.Lower, ternary expansion and the six emitters do the work while the solver idles.",
		Scenarios: []scenarioSpec{
			{Topo: "fattree-k8", Suite: "delegation", Tenants: 1000, Guarantees: 1},
			{Topo: "zoo-40", Suite: "besteffort"},
			{Topo: "fattree-k4", Suite: "besteffort"},
			{Topo: "fattree-k6", AllPairs: true},
		},
	},
	{
		Name: "compile-default", Kind: kindCompile, PerSecond: 1.5, TotalityDefault: true,
		Why: "Options{} as merlinc and merlind run it: the totality default's negated predicate goes through pred.PositiveCubes, a path no NoDefault workload touches.",
		Scenarios: []scenarioSpec{
			{Topo: "fattree-k4", Suite: "tenants", Tenants: 2, Guarantees: 2},
			{Topo: "fattree-k4", Suite: "tenants", Tenants: 5, Guarantees: 1},
			{Topo: "fattree-k4", Suite: "tenants", Tenants: 2, Guarantees: 3},
		},
	},
	{
		Name: "daemon-delta", Kind: kindDelta, PerSecond: 22,
		Why: "Policy deltas against a warm merlind: artifact caches mostly hit, so time goes to re-lower, re-emit, diff and the journal.",
	},
	{
		Name: "daemon-failover", Kind: kindFailover, PerSecond: 12.5,
		Why: "A balanced failure schedule against the same merlind: caches are invalidated and patched (graph repair, tree rebuilds, dirty-cable shard re-solves).",
	},
	{
		Name: "daemon-hub", Kind: kindHub, PerSecond: 4500,
		Why: "1000 negotiation sessions: the compile is the cheap caps-only path, so HTTP/apply-loop overhead, negotiate, verify, policy.Parse and ~100 KB journal records dominate.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// compileInput is one generated compile scenario. The compiler under test
// receives Text (parsed), Topo and Place; Scenario's descriptors are only
// read by the output checks.
type compileInput struct {
	Name     string
	Scenario *corpus.Scenario // nil for AllPairs
	Topo     *topo.Topology
	Text     string
	Place    merlin.Placement
	Policy   *merlin.Policy
}

func generateCompile(spec scenarioSpec, seed int64) (*compileInput, error) {
	in := &compileInput{Name: spec.name()}
	if spec.AllPairs {
		t, err := corpus.BuildTopo(spec.Topo)
		if err != nil {
			return nil, err
		}
		in.Topo, in.Text = t, "foreach (s,d) in cross(hosts,hosts): .*"
	} else {
		sc, err := corpus.Generate(corpus.Spec{
			Topo: spec.Topo, Suite: spec.Suite, Seed: seed,
			Tenants: spec.Tenants, Guarantees: spec.Guarantees,
		})
		if err != nil {
			return nil, err
		}
		in.Scenario, in.Topo, in.Text, in.Place = sc, sc.Topology, sc.PolicyText, sc.Placement
	}
	pol, err := merlin.ParsePolicy(in.Text, in.Topo)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Name, err)
	}
	in.Policy = pol
	return in, nil
}

// request is one HTTP operation of a daemon workload. merlind and the
// in-process replay both receive only Path and Body.
type request struct {
	// Class groups requests for per-class latencies: formula, cap, add,
	// remove, a topology event kind (link-down, ...), register, demand,
	// tick, propose, propose-over, reset.
	Class string
	Path  string
	Body  []byte
	// Want is the status a correct daemon answers with: 200, or 422 for a
	// proposal that over-allocates its delegation.
	Want int
	// Warm requests run before the timed section.
	Warm bool
}

// daemonInput is one generated daemon workload.
type daemonInput struct {
	Scenario *corpus.Scenario
	Genesis  string
	Requests []request
	// Balanced promises the requests restore the genesis state, so the
	// post-run /v1/result must equal the pre-run one.
	Balanced bool
}

// hubRequest mirrors cmd/merlind's JSON body for the /v1/hub endpoints.
type hubRequest struct {
	Tenant           string   `json:"tenant"`
	Shard            string   `json:"shard,omitempty"`
	ShardCapacityBps float64  `json:"shard_capacity_bps,omitempty"`
	Statements       []string `json:"statements,omitempty"`
	AllocBps         float64  `json:"alloc_bps,omitempty"`
	IncreaseBps      float64  `json:"increase_bps,omitempty"`
	Decrease         float64  `json:"decrease,omitempty"`
	DemandBps        float64  `json:"demand_bps,omitempty"`
	Policy           string   `json:"policy,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshalled
	}
	return b
}

// opRNG derives the request-stream generator from the run seed, apart from
// the stream corpus.Generate draws the scenario from.
func opRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + 101)) }

// generateDaemon builds the genesis policy and request stream for a daemon
// workload with n timed requests.
func generateDaemon(w workload, seed int64, n int) (*daemonInput, error) {
	switch w.Kind {
	case kindDelta:
		return generateDelta(seed, n)
	case kindFailover:
		return generateFailover(seed, n)
	case kindHub:
		return generateHub(seed, n)
	}
	return nil, fmt.Errorf("%s is not a daemon workload", w.Name)
}

// tenantGenesis is the delta and failover genesis: the tenants suite (8
// tenants × 6 region-confined guarantees), one capped best-effort class per
// tenant, and an explicit catch-all so merlind adds no default statement.
func tenantGenesis(sc *corpus.Scenario) string {
	var sb strings.Builder
	sb.WriteString(strings.TrimSuffix(sc.PolicyText, "]"))
	for i, tn := range sc.Tenants {
		g := guaranteeOf(sc, tn.StmtIDs[0])
		fmt.Fprintf(&sb, " %s : (eth.src = %s and eth.dst = %s and tcp.dst = %d) -> .* at max(50MB/s) ;",
			capID(tn), macOf(sc.Topology, g.Src), macOf(sc.Topology, g.Dst), 7000+i)
	}
	sb.WriteString(catchAll + " ]")
	return sb.String()
}

func capID(tn corpus.Tenant) string { return tn.Name + "cap" }

func guaranteeOf(sc *corpus.Scenario, id string) corpus.Guarantee {
	for _, g := range sc.Guarantee {
		if g.ID == id {
			return g
		}
	}
	return corpus.Guarantee{}
}

func macOf(t *topo.Topology, host string) string { return topo.MACOf(t.MustLookup(host)) }

const deltaWarmups = 8

// generateDelta builds the policy-delta stream: 70 % formula rate-walks of
// one tenant's guarantees (one shard re-solves), 15 % cap changes (the
// caps-only patch path), 15 % adds and removes of a best-effort statement.
// The mix is exact in every block of 20 requests and the seed shuffles it,
// so two seeds differ in order and targets, not in how much of each class
// they send.
func generateDelta(seed int64, n int) (*daemonInput, error) {
	sc, err := corpus.Generate(corpus.Spec{Topo: daemonTopoCorpus, Suite: "tenants", Seed: seed, Tenants: 8, Guarantees: 6})
	if err != nil {
		return nil, err
	}
	in := &daemonInput{Scenario: sc, Genesis: tenantGenesis(sc)}
	rng := opRNG(seed)
	rates := map[string]int{} // Mbps
	for _, g := range sc.Guarantee {
		rates[g.ID] = int(g.RateBps / topo.Mbps)
	}
	caps := make([]int, len(sc.Tenants)) // MB/s
	for i := range caps {
		caps[i] = 50
	}
	formula := func() string {
		var terms []string
		for _, g := range sc.Guarantee {
			terms = append(terms, fmt.Sprintf("min(%s, %dMbps)", g.ID, rates[g.ID]))
		}
		for i, tn := range sc.Tenants {
			terms = append(terms, fmt.Sprintf("max(%s, %dMB/s)", capID(tn), caps[i]))
		}
		return strings.Join(terms, " and ")
	}
	hosts := sc.Topology.Hosts()
	var live []string
	next := 0
	var block []string // the classes of the next requests: an exact 14:3:3 mix, shuffled
	for i := 0; i < deltaWarmups+n; i++ {
		if len(block) == 0 {
			for j := 0; j < 20; j++ {
				switch {
				case j < 14:
					block = append(block, "formula")
				case j < 17:
					block = append(block, "cap")
				default:
					block = append(block, "addrm")
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[0]
		block = block[1:]
		var d merlin.WireDelta
		switch {
		case class == "formula":
			tn := sc.Tenants[rng.Intn(len(sc.Tenants))]
			for j, id := range tn.StmtIDs {
				old := rates[id]
				rates[id] = 5 * (1 + rng.Intn(5))
				if j == 0 && rates[id] == old { // at least one rate moves
					rates[id] = old%25 + 5
				}
			}
			d.Formula = formula()
		case class == "cap":
			p := rng.Intn(len(caps))
			caps[p] = caps[p]%100 + 25
			d.Formula = formula()
		case len(live) == 0 || (len(live) < 6 && rng.Intn(2) == 0):
			class = "add"
			a := rng.Intn(len(hosts))
			b := (a + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			id := fmt.Sprintf("be%d", next)
			d.Add = []string{fmt.Sprintf("%s : (eth.src = %s and eth.dst = %s and tcp.dst = %d) -> .*",
				id, topo.MACOf(hosts[a]), topo.MACOf(hosts[b]), 20000+next)}
			live = append(live, id)
			next++
		default:
			class = "remove"
			d.Remove = []string{live[0]}
			live = live[1:]
		}
		in.Requests = append(in.Requests, request{
			Class: class, Path: "/v1/delta", Body: mustJSON(d), Want: 200, Warm: i < deltaWarmups,
		})
	}
	return in, nil
}

// generateFailover replays a balanced corpus failure schedule (link flaps,
// hostless-switch storms, capacity wobbles in rotation), one request per
// schedule step. The first episode warms the failure path up untimed.
func generateFailover(seed int64, n int) (*daemonInput, error) {
	sc, err := corpus.Generate(corpus.Spec{
		Topo: daemonTopoCorpus, Suite: "tenants", Seed: seed, Tenants: 8, Guarantees: 6,
		Failures: true, Episodes: (n+1)/2 + 1,
	})
	if err != nil {
		return nil, err
	}
	in := &daemonInput{Scenario: sc, Genesis: tenantGenesis(sc), Balanced: true}
	for i := 0; i < len(sc.Schedule); {
		step := sc.Schedule[i].Step
		var events []merlin.TopoEvent
		for ; i < len(sc.Schedule) && sc.Schedule[i].Step == step; i++ {
			events = append(events, sc.Schedule[i].Event)
		}
		in.Requests = append(in.Requests, request{
			Class: events[0].Kind.String(), Path: "/v1/topo", Want: 200, Warm: step < 2,
			Body: mustJSON(merlin.WireTopoEvents(events)),
		})
	}
	if len(in.Requests) < 4 {
		return nil, fmt.Errorf("failure schedule has only %d steps", len(in.Requests))
	}
	return in, nil
}

const (
	hubTenants  = 1000
	hubPools    = 4
	hubWindow   = 250 // demand updates per tick
	hubProposeN = 10  // every Nth window carries a valid and an over-allocating proposal
)

// generateHub builds the negotiation stream: 1000 sessions registered over
// 4 pools (untimed), then windows of demand updates closed by one tick,
// with a valid and an over-allocating proposal every tenth window, and a
// final one-request reset of every cap.
func generateHub(seed int64, n int) (*daemonInput, error) {
	sc, err := corpus.Generate(corpus.Spec{Topo: daemonTopoCorpus, Suite: "delegation", Seed: seed, Tenants: hubTenants, Guarantees: 1})
	if err != nil {
		return nil, err
	}
	in := &daemonInput{Scenario: sc, Genesis: strings.TrimSuffix(sc.PolicyText, "]") + catchAll + " ]"}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		return nil, err
	}
	stmts := map[string]string{} // statement ID → "id : pred -> path", without its rate clause
	for _, s := range pol.Statements {
		stmts[s.ID] = s.String()
	}
	for i, tn := range sc.Tenants {
		in.Requests = append(in.Requests, request{
			Class: "register", Path: "/v1/hub/register", Want: 200, Warm: true,
			Body: mustJSON(hubRequest{
				Tenant: tn.Name, Shard: fmt.Sprintf("pool%d", i%hubPools), ShardCapacityBps: 150 * topo.Gbps,
				Statements: tn.StmtIDs, AllocBps: tn.CapBps, IncreaseBps: 5 * topo.MBps, Decrease: 0.5,
			}),
		})
	}
	rng := opRNG(seed)
	windows := n / (hubWindow + 1)
	if windows < 2 {
		windows = 2
	}
	for w := 0; w < windows; w++ {
		for d := 0; d < hubWindow; d++ {
			tn := sc.Tenants[rng.Intn(len(sc.Tenants))]
			in.Requests = append(in.Requests, request{
				Class: "demand", Path: "/v1/hub/demand", Want: 200,
				Body: mustJSON(hubRequest{Tenant: tn.Name, DemandBps: tn.CapBps * (0.25 + 1.5*rng.Float64())}),
			})
		}
		in.Requests = append(in.Requests, request{Class: "tick", Path: "/v1/hub/tick", Want: 200})
		if w%hubProposeN != hubProposeN-1 {
			continue
		}
		tn := sc.Tenants[rng.Intn(len(sc.Tenants))]
		propose := func(class string, want int, capBps float64) {
			pol := fmt.Sprintf("[ %s at max(%s) ]", stmts[tn.StmtIDs[0]], fmtMBps(capBps))
			in.Requests = append(in.Requests, request{
				Class: class, Path: "/v1/hub/propose", Want: want,
				Body: mustJSON(hubRequest{Tenant: tn.Name, Policy: pol}),
			})
		}
		propose("propose", 200, tn.CapBps/2)
		propose("propose-over", 422, tn.CapBps*2)
	}
	// Close-out: one /v1/delta resets every cap to its delegation (and
	// dissolves the hub). AIMD leaves rates such as 210937.5 kbps, which
	// Policy.String renders as "2.109375e+08bps" and the policy lexer
	// rejects, so without the reset merlind could not restart from its
	// own snapshot (see README, "What the benchmark surfaces").
	var terms []string
	for _, tn := range sc.Tenants {
		terms = append(terms, fmt.Sprintf("max(%s, %s)", tn.StmtIDs[0], fmtMBps(tn.CapBps)))
	}
	in.Requests = append(in.Requests, request{
		Class: "reset", Path: "/v1/delta", Want: 200,
		Body: mustJSON(merlin.WireDelta{Formula: strings.Join(terms, " and ")}),
	})
	return in, nil
}

func fmtMBps(bps float64) string { return fmt.Sprintf("%gMB/s", bps/topo.MBps) }
