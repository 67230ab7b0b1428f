// Package codegen turns provisioned paths and sink trees into device-level
// configuration (§3.4) through a two-stage, pluggable pipeline: a lowering
// pass (Lower) first compiles plans into a target-neutral intermediate
// representation — per-device classifier rules with tags and priorities,
// queue reservations, rate caps, middlebox hops, and host functions — and
// registered backends (Register / Lookup) then render that Program into
// concrete dataplane form. The built-in backends reproduce the paper's
// targets: OpenFlow rules using tags to pin forwarding paths
// (FlowTags-style) plus QoS queue configurations, tc commands for
// host-side rate limits, Click configurations for middlebox
// packet-processing functions, and end-host interpreter programs. New
// device families (P4, eBPF, vendor CLIs) plug in by implementing Backend
// against the same IR.
package codegen

import (
	"fmt"
	"math"

	"merlin/internal/logical"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// Classify selects how a statement's ingress rules match packets.
type Classify int

// Classification modes.
const (
	// ByPredicate expands the statement predicate into positive-cube
	// match rules (one per distinct cube) at first-match priority. Lower
	// expands each predicate once and shares the cubes across its plans.
	ByPredicate Classify = iota
	// ByDestination matches only the destination MAC — the compact form
	// for plain connectivity statements sharing a destination sink tree.
	ByDestination
)

// Plan is the compiled artifact of one statement handed to code
// generation.
type Plan struct {
	// ID names the statement the plan was lowered from. Every plan of one
	// statement carries that statement's predicate, so lowering expands
	// predicates per ID.
	ID        string
	Predicate pred.Pred
	// Priority orders classification: earlier statements shadow later
	// ones (first-match). Higher values win, and only their order
	// matters to lowering; classification rules are installed at
	// 100 + Priority, so a Priority above 65435 overflows OpenFlow's
	// 16-bit priorities. The compiler counts it down from the front of
	// the policy, so appending a statement moves no earlier one.
	Priority int
	Alloc    policy.Alloc
	Classify Classify

	// SrcHost/DstHost are the endpoints resolved from the predicate.
	SrcHost, DstHost topo.NodeID

	// Path is the provisioned path for guaranteed statements; Tree the
	// sink tree for best-effort ones. Exactly one must be set.
	Path []logical.Step
	Tree *sinktree.Tree
}

// HostCommand is a generated end-host configuration line.
type HostCommand struct {
	Host    topo.NodeID
	Kind    string // "tc" or "iptables"
	Command string
}

// QueueConfig is one switch-port QoS queue reservation. It doubles as the
// IR's queue section: the reservation is already target-neutral.
type QueueConfig struct {
	Switch topo.NodeID
	Port   topo.LinkID
	Queue  int
	MinBps float64
}

// ClickConfig configures one packet-processing function instance on a
// middlebox (or host running the Click substrate).
type ClickConfig struct {
	Node   topo.NodeID
	Fn     string
	Config string
}

// Counts summarizes instruction totals per backend — the Fig. 4 metric.
type Counts struct {
	OpenFlow, Queues, TC, IPTables, Click int
}

// Total is the grand instruction total.
func (c Counts) Total() int { return c.OpenFlow + c.Queues + c.TC + c.IPTables + c.Click }

// CapApplies reports whether a statement cap emits a host-side tc
// command (finite and nonzero).
func CapApplies(maxBps float64) bool { return maxBps != 0 && !math.IsInf(maxBps, 1) }

// CapCommand renders the tc command enforcing a statement's bandwidth
// cap at its source host. It is shared between the tc backend and the
// incremental compiler's caps-only patch path so the two stay
// byte-identical.
func CapCommand(host topo.NodeID, id string, maxBps float64) HostCommand {
	return HostCommand{
		Host: host,
		Kind: "tc",
		Command: fmt.Sprintf("tc class add dev eth0 parent 1: classid 1:%s htb rate %.0fkbit ceil %.0fkbit",
			id, maxBps/1e3, maxBps/1e3),
	}
}
