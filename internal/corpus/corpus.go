// Package corpus generates seeded evaluation scenarios — policy suites,
// traffic matrices, failure/recovery schedules, and expected-invariant
// descriptors — over any topology, turning the hand-built fat-tree
// workloads of the paper's §6 into a corpus that covers the Topology Zoo
// and beyond. Everything is deterministic in the spec's seed: the same
// Spec always yields byte-identical policy text, the same traffic matrix,
// and the same event timeline, regardless of how many scenarios are
// generated concurrently. cmd/merlin-sweep runs grids of these scenarios
// through the real compiler and validates each cell's outputs.
//
// Four policy suites compose over a topology, scaled to its host count:
//
//   - "tenants": multi-tenant bandwidth guarantees. The switches are
//     partitioned into link-disjoint regions grown around host
//     attachments; each tenant's guarantees are confined to its region by
//     the path expression, so provisioning shards one MIP per tenant —
//     the workload shape of the sharding and failover benchmarks,
//     synthesized for arbitrary graphs.
//   - "chains": middlebox function paths. Two middleboxes are attached to
//     the highest-degree switches and dpi/nat/firewall chains (some with
//     bandwidth guarantees) steer sampled host pairs through them.
//   - "delegation": per-tenant capped statements whose max() formula
//     terms form the delegation a negotiation hub renegotiates — the
//     input shape for Hub.Register/Tick/Propose.
//   - "besteffort": background best-effort classes — sampled host-pair
//     statements plus port classes — exercising the sink-tree path.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"merlin/internal/topo"
	"merlin/internal/zoo"

	merlin "merlin"
)

// Suites lists the policy suite names Generate accepts.
func Suites() []string { return []string{"tenants", "chains", "delegation", "besteffort"} }

// Spec selects one scenario: a topology, a policy suite, a seed, and
// scale/failure knobs. The zero values of the knobs mean "scale to the
// topology".
type Spec struct {
	// Topo names the topology: "fattree-k4", "btree-2-3-2" (fanout,
	// depth, hosts/leaf), "ring-12", "star-8", "linear-6" (one host per
	// switch), or "zoo-14" (Topology Zoo entry, one host per attachment).
	Topo string
	// Suite is one of Suites().
	Suite string
	// Seed drives every random choice. Same spec, same scenario, byte
	// for byte.
	Seed int64
	// Failures attaches a failure/recovery schedule; the schedule is
	// balanced (every outage is restored, every capacity wobble undone),
	// and every event is chosen so the policy stays compilable while it
	// is in force.
	Failures bool
	// Tenants bounds the number of tenants/regions (0 = hosts/8,
	// clamped to [2, 6]).
	Tenants int
	// Guarantees is the number of guarantees per tenant (0 = 2).
	Guarantees int
	// Episodes bounds the failure schedule's episode count (0 = 3).
	Episodes int
}

// Guarantee describes one generated path obligation: a bandwidth
// guarantee when RateBps > 0, a reachability-only obligation (a
// middlebox chain without a rate) when RateBps == 0. The failure
// scheduler keeps every obligation satisfiable throughout the timeline.
type Guarantee struct {
	// ID is the policy statement ID.
	ID string
	// Tenant names the owning tenant.
	Tenant string
	// Src and Dst are host names.
	Src, Dst string
	// Via lists middlebox waypoints, in path order (chains suite).
	Via []string
	// Region is the sorted node-name set the path expression confines
	// the guarantee to; empty means unconfined (.* around waypoints).
	Region []string
	// RateBps is the guaranteed rate.
	RateBps float64
}

// Tenant is one generated tenant: the statements it owns and the region
// its traffic is confined to. The delegation suite registers these as hub
// sessions.
type Tenant struct {
	Name string
	// StmtIDs are the policy statements the tenant owns, in order.
	StmtIDs []string
	// Region is the tenant's sorted node-name set (empty when the suite
	// does not confine paths).
	Region []string
	// CapBps is the tenant's per-statement cap (delegation suite).
	CapBps float64
}

// FlowSpec is one traffic-matrix entry for internal/sim.
type FlowSpec struct {
	// ID names the flow; guarantee flows reuse their statement ID.
	ID string
	// Src and Dst are host names.
	Src, Dst string
	// Stmt is the owning statement ("" for background flows).
	Stmt string
	// DemandBps is the offered load; MinBps the guaranteed rate (0 for
	// best-effort); MaxBps the cap (0 = uncapped).
	DemandBps, MinBps, MaxBps float64
}

// ScheduledEvent is one failure-schedule entry: a topology event applied
// at a step. Steps are dense and ordered; a replay applies events in
// slice order.
type ScheduledEvent struct {
	Step  int
	Event merlin.TopoEvent
}

// Invariants describes what a generated scenario promises — the
// descriptors a sweep cell validates its outputs against.
type Invariants struct {
	// Statements is the number of policy statements in PolicyText.
	Statements int
	// Guaranteed is the number of statements with min-rate guarantees.
	Guaranteed int
	// Tenants is the number of generated tenants (0 for suites without
	// tenant structure).
	Tenants int
	// Events is the schedule length.
	Events int
	// Balanced promises the schedule restores the pristine topology:
	// after a full replay, an incremental compiler's output must be
	// byte-identical to its pre-schedule output.
	Balanced bool
	// Confined promises every guarantee's provisioned path stays inside
	// its Region.
	Confined bool
	// Negotiable promises the policy's formula is the negotiator
	// fragment (max terms only), so a hub can be built over it.
	Negotiable bool
}

// Scenario is one generated evaluation scenario.
type Scenario struct {
	Spec Spec
	// Name is the canonical cell label: topo/suite/seedN[+fail].
	Name string
	// Topology is the materialized topology (chains suites attach
	// middleboxes to it).
	Topology *topo.Topology
	// PolicyText is the Merlin policy source, parseable by
	// merlin.ParsePolicy against Topology.
	PolicyText string
	// Placement maps function names to their allowed locations.
	Placement map[string][]string
	Tenants   []Tenant
	Guarantee []Guarantee
	// Traffic is the scenario's flow-level traffic matrix.
	Traffic []FlowSpec
	// Schedule is the failure/recovery timeline (nil without Failures).
	Schedule []ScheduledEvent
	// Invariants describes the expected properties of the outputs.
	Invariants Invariants
}

// BuildTopo materializes a topology by its spec name.
func BuildTopo(name string) (*topo.Topology, error) {
	fail := func() (*topo.Topology, error) {
		return nil, fmt.Errorf("corpus: unknown topology %q", name)
	}
	parts := strings.Split(name, "-")
	num := func(s string) (int, bool) {
		n, err := strconv.Atoi(strings.TrimLeft(s, "k"))
		return n, err == nil && n >= 0
	}
	switch parts[0] {
	case "fattree":
		if len(parts) != 2 {
			return fail()
		}
		if k, ok := num(parts[1]); ok && k >= 2 && k%2 == 0 {
			return topo.FatTree(k, topo.Gbps), nil
		}
	case "btree":
		if len(parts) != 4 {
			return fail()
		}
		f, okF := num(parts[1])
		d, okD := num(parts[2])
		h, okH := num(parts[3])
		if okF && okD && okH && f >= 2 && d >= 1 {
			return topo.BalancedTree(f, d, h, topo.Gbps), nil
		}
	case "ring":
		if len(parts) != 2 {
			return fail()
		}
		if n, ok := num(parts[1]); ok && n >= 3 {
			return topo.Ring(n, 1, topo.Gbps), nil
		}
	case "star":
		if len(parts) != 2 {
			return fail()
		}
		if n, ok := num(parts[1]); ok && n >= 2 {
			return topo.Star(n, 1, topo.Gbps), nil
		}
	case "linear":
		if len(parts) != 2 {
			return fail()
		}
		if n, ok := num(parts[1]); ok && n >= 2 {
			return topo.Linear(n, topo.Gbps), nil
		}
	case "zoo":
		if len(parts) != 2 {
			return fail()
		}
		if i, ok := num(parts[1]); ok && i < zoo.Count {
			return zoo.Generate(i, 1), nil
		}
	}
	return fail()
}

// Generate materializes the scenario a spec describes. It is pure in the
// spec: the same spec yields the same scenario, byte for byte, on every
// call.
func Generate(spec Spec) (*Scenario, error) {
	t, err := BuildTopo(spec.Topo)
	if err != nil {
		return nil, err
	}
	if len(t.Hosts()) < 2 {
		return nil, fmt.Errorf("corpus: topology %s has %d hosts; need at least 2", spec.Topo, len(t.Hosts()))
	}
	sc := &Scenario{Spec: spec, Topology: t, Name: spec.Name()}
	rng := rand.New(rand.NewSource(spec.Seed*1000003 + 17))
	switch spec.Suite {
	case "tenants":
		err = genTenants(sc, rng)
	case "chains":
		err = genChains(sc, rng)
	case "delegation":
		err = genDelegation(sc, rng)
	case "besteffort":
		err = genBestEffort(sc, rng)
	default:
		err = fmt.Errorf("corpus: unknown suite %q (have %s)", spec.Suite, strings.Join(Suites(), ", "))
	}
	if err != nil {
		return nil, err
	}
	genTraffic(sc, rng)
	if spec.Failures {
		if err := genSchedule(sc, rng); err != nil {
			return nil, err
		}
	}
	sc.Invariants.Events = len(sc.Schedule)
	return sc, nil
}

// tenants returns the spec's tenant count scaled to the topology.
// Name is the spec's display name — topo/suite/seedN, with "+fail"
// marking a failure schedule. Scenario.Name carries the same value, but
// this form needs no successful generation, so sweep cells stay named
// even when generation fails.
func (s Spec) Name() string {
	name := fmt.Sprintf("%s/%s/seed%d", s.Topo, s.Suite, s.Seed)
	if s.Failures {
		name += "+fail"
	}
	return name
}

func (s Spec) tenants(t *topo.Topology) int {
	if s.Tenants > 0 {
		return s.Tenants
	}
	n := len(t.Hosts()) / 8
	if n < 2 {
		n = 2
	}
	if n > 6 {
		n = 6
	}
	return n
}

// guaranteesPerTenant returns the spec's per-tenant guarantee count.
func (s Spec) guaranteesPerTenant() int {
	if s.Guarantees > 0 {
		return s.Guarantees
	}
	return 2
}

// episodes returns the spec's failure-episode count.
func (s Spec) episodes() int {
	if s.Episodes > 0 {
		return s.Episodes
	}
	return 3
}

// hostNames returns the topology's host names in node-ID order (the
// attachment order, stable across runs).
func hostNames(t *topo.Topology) []string {
	hosts := t.Hosts()
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = t.Node(h).Name
	}
	return names
}

// macOf returns the canonical MAC of a named host.
func macOf(t *topo.Topology, name string) string {
	return topo.MACOf(t.MustLookup(name))
}

// pickPair draws a distinct host pair from names (len ≥ 2).
func pickPair(rng *rand.Rand, names []string) (src, dst string) {
	i := rng.Intn(len(names))
	j := rng.Intn(len(names) - 1)
	if j >= i {
		j++
	}
	return names[i], names[j]
}

// sortedCopy returns a sorted copy of names.
func sortedCopy(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
