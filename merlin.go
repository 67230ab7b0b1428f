// Package merlin is the public API of this Merlin implementation — a
// reproduction of "Merlin: A Language for Provisioning Network Resources"
// (Soulé et al., CoNEXT 2014). It compiles declarative network policies —
// packet-classifying predicates, path regular expressions, and Presburger
// bandwidth formulas — into device-level configuration: OpenFlow rules,
// switch queue reservations, tc/iptables commands, Click middlebox
// configurations, and end-host interpreter programs.
//
// Typical one-shot use:
//
//	t := merlin.FatTree(4, merlin.Gbps)
//	pol, _ := merlin.ParsePolicy(src, t)
//	res, _ := merlin.Compile(pol, t, merlin.Placement{"dpi": {"m1"}}, merlin.Options{})
//	fmt.Println(res.Counts())
//
// Provisioning shards automatically: guarantees whose product graphs
// share no physical link — disjoint tenants, disjoint pods, localized
// sub-policies — solve as independent MIPs over a worker pool and merge
// into one equally-optimal result, falling back to the single global MIP
// when the policy is fully coupled (see internal/provision.Partition and
// PERFORMANCE.md's "Sharded provisioning"). Each shard relaxes, then
// verifies: under a separable objective (weighted-shortest-path) every
// request takes its shortest path with capacity ignored, and when those
// routes fit every cable they stand, with no branch and bound. The rest
// build a compact bounded-variable MIP — one row per cable — searched by
// a wave-parallel branch and bound whose result is bit-for-bit
// independent of the worker count (PERFORMANCE.md's "Flow-structured
// solver").
//
// Long-running controllers hold a Compiler instead: it caches every
// expensive artifact (product graphs, sink trees, the per-shard
// provisioning solutions and their simplex bases) across calls, so a
// small policy change recompiles only what it dirtied — re-solving only
// the provisioning shards the change touched — and yields a device-level
// diff, one ArtifactDiff per target, rather than a full configuration:
//
//	c := merlin.NewCompiler(t, place, merlin.Options{})
//	res, _ := c.Compile(pol)                                  // cold: full pipeline
//	diff, _ := c.Update(merlin.Delta{Formula: newFormula})    // warm: caps patch / warm-started re-solve
//	for name, d := range diff.Backends {
//		fmt.Println(name, len(d.Install), len(d.Remove)) // native entries per target
//	}
//	install, remove := diff.Counts() // Fig. 4 totals of the openflow/tc/click deltas
//
// Code generation is pluggable: the compiler lowers every policy into a
// target-neutral IR (Program) and registered dataplane backends render
// it. Options.Targets selects the backends; the default set reproduces
// the paper's output exactly, and the bundled "p4" backend emits P4
// table entries from the same IR:
//
//	opts := merlin.Options{Targets: []string{"openflow", "tc", "click", "host", "p4"}}
//	res, _ := merlin.Compile(pol, t, place, opts)
//	for _, e := range res.Outputs["p4"].Entries() {
//		fmt.Println(e.Device, e.Text) // P4 table entries, per switch
//	}
//
// New device families plug in with merlin.RegisterBackend — implement
// Name/Emit/Diff against the IR and every compile, incremental update,
// and failure reroute routes per-backend diffs to it.
//
// Hardware-shaped targets use the backend API v2, a capability surface
// discovered by type assertion on the same Backend value: a backend
// implementing codegen.TableModeler declares a TableModel (table
// capacity, native range support) per device class, and one
// implementing codegen.TernaryEmitter receives the compiler's expanded
// ternary tables — real value/mask TCAM rows, port ranges expanded to
// prefix covers — instead of rendering symbolic predicates itself. The
// bundled "tcam" backend is the reference consumer: a vendor-CLI
// renderer whose per-switch entry counts are checked against each
// device's table budget before emission. Budgets come from the targeted
// backends' models, overridden per device by Options.TableBudgets (what
// merlinc -budget sets). When a placement would overflow a device's
// table, the compiler re-places the guaranteed traffic through the
// provisioning MIP with the budgets as placement constraints, and
// rejects with the typed *TableOverflowError only when that is
// infeasible:
//
//	opts := merlin.Options{
//		Targets:      []string{"tcam"},
//		TableBudgets: map[string]int{"core0": 512}, // override one switch
//	}
//	res, err := merlin.Compile(pol, t, place, opts)
//	var overflow *merlin.TableOverflowError
//	if errors.As(err, &overflow) {
//		for _, o := range overflow.Overflows {
//			fmt.Printf("%s needs %d entries, budget %d\n", o.Name, o.Entries, o.Budget)
//		}
//	}
//
// Dynamic adaptation (§4 of the paper) goes through one negotiator, the
// Hub: NewHub holds the global policy, Hub.Register delegates statements
// to a tenant session, Hub.Propose verifies a tenant's refinement against
// that delegation (admission control rejects a violation instead of
// recompiling), and Hub.Tick re-allocates bandwidth from offered demands
// by per-session AIMD or max-min fair sharing. Compiler.WatchHub makes
// every commit an incremental recompile. At 10⁴–10⁵ live sessions,
// sessions shard by the link-disjoint provisioning partition
// (Compiler.NegotiationShards), demand updates coalesce into one batched
// tick per window riding the caps-only patch path, and proposals verify
// through a fingerprint cache. Delegate and CheckRefinement are the
// library form of the §5 projection and the §4.2 check.
//
// The topology is dynamic too: link/switch failures, recoveries, and
// capacity changes flow through the same incremental pipeline as
// TopoEvents — Delta.Topo, Compiler.ApplyTopo, or a coalesced
// Compiler.ApplyTopoBatch. Compiler.CheckTopo decides which events are
// valid once, before they batch, so a batch's valid events go through
// one Update however many malformed ones rode along. Each event
// invalidates only the artifacts it stales (every cached product graph
// is its full-fabric form cut by the links down now, so a failure or a
// recovery re-cuts just the graphs it can change and builds no
// automaton; a failure keeps the sink trees whose used paths avoided
// the failed cable, and re-solves just the provisioning shards it
// touches), and the Update yields the reroute as a device-level diff:
//
//	diff, _ := c.ApplyTopo(merlin.LinkFailure("agg0_0", "edge0_0"))
//
// Durability comes from cmd/merlind, the journaled controller daemon: it
// serves all of the above over HTTP/JSON, appends every accepted delta,
// topology batch, and hub-committed policy to an internal/journal
// write-ahead log (group-committed fsyncs, ack-after-durable), and
// snapshots the canonical inputs — Compiler.Snapshot captures policy
// text, topology state, and placement; RestoreCompiler rebuilds a warm
// compiler from them — so a restart is one compile plus a short journal
// tail instead of a replay from genesis:
//
//	merlind -addr :8640 -data /var/lib/merlind -topo fattree,k=8 -policy genesis.pol
//	curl -X POST :8640/v1/delta -d '{"add":["y : (eth.src = h1_0_0 and eth.dst = h2_0_0) -> .* at min(5Mbps)"]}'
//	# kill -TERM, restart with the same -data and -topo: boots warm,
//	# byte-identical to the pre-restart compiler (GET /v1/stats → "boot":"warm")
//
// WireDelta / WireTopoEvent are the JSON forms, DecodeDelta and
// ApplyJournalRecord the replay entry points — usable directly by any
// embedding that wants merlind's durability without its HTTP surface.
//
// Everything above is exercised at corpus scale by internal/corpus and
// cmd/merlin-sweep: a seeded, deterministic scenario generator (tenant,
// middlebox-chain, delegation, and best-effort policy suites over fat
// trees and Topology Zoo graphs, with traffic matrices and balanced
// failure/recovery schedules as []TopoEvent timelines) and a grid
// runner that compiles every cell through this package, replays its
// schedule, and validates the results — recompile determinism,
// sharded ≡ monolithic output, region confinement, negotiated caps,
// injected budget overflows. A quickstart grid:
//
//	merlin-sweep -topos zoo-3,fattree-k4 -suites tenants,delegation \
//	    -seeds 1,2 -failures both -out results/
//
// See cmd/merlin-sweep's doc and PERFORMANCE.md's "Scenario sweeps".
package merlin

import (
	"merlin/internal/codegen"
	"merlin/internal/negotiate"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/provision"
	"merlin/internal/topo"
	"merlin/internal/verify"

	// Bundled non-default backends register themselves with the codegen
	// registry; importing them here makes every target name in their
	// packages available to Options.Targets out of the box.
	_ "merlin/internal/p4"
	_ "merlin/internal/tcam"
)

// Re-exported core types. The internal packages carry the implementation;
// these aliases are the supported surface.
type (
	// Topology is the physical network model.
	Topology = topo.Topology
	// NodeID identifies a topology node.
	NodeID = topo.NodeID
	// Policy is a parsed Merlin policy.
	Policy = policy.Policy
	// Statement is one policy statement.
	Statement = policy.Statement
	// Alloc is a statement's localized bandwidth allocation.
	Alloc = policy.Alloc
	// Pred is a packet-classification predicate.
	Pred = pred.Pred
	// Program is the target-neutral codegen IR every backend emits from.
	Program = codegen.Program
	// Backend is one pluggable dataplane target (Name / Emit / Diff).
	Backend = codegen.Backend
	// Artifact is one backend's emitted configuration.
	Artifact = codegen.Artifact
	// ArtifactDiff is a backend's install/remove delta in native form.
	ArtifactDiff = codegen.ArtifactDiff
	// TableModel describes one device class's ternary match table
	// (capacity, native range support) — what a v2 backend declares
	// through codegen.TableModeler.
	TableModel = codegen.TableModel
	// TableOverflow is one device's table-budget violation.
	TableOverflow = codegen.TableOverflow
	// TableOverflowError is the typed error a compile returns when a
	// placement's expanded ternary tables exceed some device's budget and
	// budget-constrained re-placement was infeasible.
	TableOverflowError = codegen.TableOverflowError
)

// Backend registry, re-exported from the codegen substrate: new device
// families register once and become valid Options.Targets names.
var (
	RegisterBackend = codegen.Register
	LookupBackend   = codegen.Lookup
	BackendNames    = codegen.Names
	DefaultTargets  = codegen.DefaultTargets
)

// Capacity units (bits per second).
const (
	Gbps = topo.Gbps
	Mbps = topo.Mbps
	MBps = topo.MBps
)

// Heuristic selects the §3.2 path-selection objective.
type Heuristic = provision.Heuristic

// Path-selection heuristics (Figure 3 of the paper).
const (
	WeightedShortestPath = provision.WeightedShortestPath
	MinMaxRatio          = provision.MinMaxRatio
	MinMaxReserved       = provision.MinMaxReserved
)

// Placement maps packet-processing function names to the locations able to
// host them — the auxiliary compiler input of §3.2.
type Placement map[string][]string

// Topology constructors, re-exported from the topology substrate.
var (
	NewTopology  = topo.New
	FatTree      = topo.FatTree
	BalancedTree = topo.BalancedTree
	Linear       = topo.Linear
	Ring         = topo.Ring
	Star         = topo.Star
	Stanford     = topo.Stanford
	TwoPath      = topo.TwoPath
	Example      = topo.Example
)

// ParsePolicy parses policy source against a topology: the environment
// exposes the set "hosts" bound to every host MAC, so policies can write
// "foreach (s,d) in cross(hosts,hosts): ...".
func ParsePolicy(src string, t *Topology) (*Policy, error) {
	return policy.Parse(src, policyEnv(t))
}

// policyEnv is the sugar environment policies parse in against t.
func policyEnv(t *Topology) policy.Env {
	env := policy.Env{Sets: map[string][]string{}}
	if t != nil {
		env.Sets["hosts"] = t.Identities().MACs()
	}
	return env
}

// CheckRefinement verifies that refined only restricts original (§4.2).
func CheckRefinement(original, refined *Policy) error {
	rep, err := verify.CheckRefinement(original, refined, verify.Options{})
	if err != nil {
		return err
	}
	return rep.Err()
}

// Delegate projects a policy onto a tenant scope (§5).
func Delegate(pol *Policy, scope Pred) (*Policy, error) {
	return verify.Delegate(pol, scope)
}

// MaxMinFairShare is the hub's fair-share allocation primitive (MMFS ticks).
var MaxMinFairShare = negotiate.MaxMinFairShare
