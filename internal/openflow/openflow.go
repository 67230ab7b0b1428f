// Package openflow models OpenFlow-style switch configuration — priority-
// ordered flow rules with match fields and action lists — plus a dataplane
// simulator that executes installed rules against concrete packets. The
// simulator is the stand-in for the paper's hardware testbed switches: the
// integration tests compile a policy, install the emitted rules, inject
// packets, and check that observed paths satisfy the policy.
package openflow

import (
	"sort"
	"strconv"
	"strings"

	"merlin/internal/packet"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// MatchAny wildcards an integer match field. It is distinct from
// packet.VLANNone (-1), which matches only untagged packets.
const MatchAny = -2

// Match selects packets. Zero-valued string fields and MatchAny integer
// fields are wildcards. Predicate, when non-nil, must also hold — it is the
// compiler's classifier abstraction for ingress rules (a hardware backend
// would expand it into TCAM entries; Expand in package codegen counts that
// expansion for the Fig. 4 instruction totals).
type Match struct {
	InPort    topo.LinkID // arrival link; MatchAny for any
	VLAN      int         // 802.1Q tag; MatchAny for any, packet.VLANNone for untagged
	EthSrc    string
	EthDst    string
	Predicate pred.Pred
}

// Matches reports whether the match selects the packet arriving on in.
func (m Match) Matches(pkt *packet.Packet, in topo.LinkID) bool {
	if m.InPort != MatchAny && m.InPort != in {
		return false
	}
	if m.VLAN != MatchAny && m.VLAN != pkt.VLAN {
		return false
	}
	if m.EthSrc != "" && m.EthSrc != pkt.EthSrc.String() {
		return false
	}
	if m.EthDst != "" && m.EthDst != pkt.EthDst.String() {
		return false
	}
	if m.Predicate != nil && !pkt.Matches(m.Predicate) {
		return false
	}
	return true
}

// Action is one forwarding action.
type Action interface{ isAction() }

// Output forwards the packet out the given link.
type Output struct{ Port topo.LinkID }

// SetVLAN pushes/rewrites the 802.1Q tag.
type SetVLAN struct{ VLAN int }

// StripVLAN removes the 802.1Q tag.
type StripVLAN struct{}

// Enqueue forwards out the given link through a QoS queue.
type Enqueue struct {
	Port  topo.LinkID
	Queue int
}

// Drop discards the packet.
type Drop struct{}

func (Output) isAction()    {}
func (SetVLAN) isAction()   {}
func (StripVLAN) isAction() {}
func (Enqueue) isAction()   {}
func (Drop) isAction()      {}

// Rule is one flow-table entry on a switch.
type Rule struct {
	Switch   topo.NodeID
	Priority int
	Match    Match
	Actions  []Action
}

// String renders a compact human-readable form:
// "sw=3 prio=500 [in=7,vlan=2] -> strip_vlan,output:4".
func (r Rule) String() string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString("sw=")
	writeInt(&b, int(r.Switch))
	b.WriteString(" prio=")
	writeInt(&b, r.Priority)
	b.WriteString(" [")
	n := b.Len()
	sep := func() {
		if b.Len() > n {
			b.WriteByte(',')
		}
	}
	if r.Match.InPort != MatchAny {
		b.WriteString("in=")
		writeInt(&b, int(r.Match.InPort))
	}
	if r.Match.VLAN != MatchAny {
		sep()
		b.WriteString("vlan=")
		writeInt(&b, r.Match.VLAN)
	}
	if r.Match.EthSrc != "" {
		sep()
		b.WriteString("src=")
		b.WriteString(r.Match.EthSrc)
	}
	if r.Match.EthDst != "" {
		sep()
		b.WriteString("dst=")
		b.WriteString(r.Match.EthDst)
	}
	if r.Match.Predicate != nil {
		sep()
		b.WriteString(pred.Format(r.Match.Predicate))
	}
	b.WriteString("] -> ")
	n = b.Len()
	for _, a := range r.Actions {
		switch act := a.(type) {
		case Output:
			sep()
			b.WriteString("output:")
			writeInt(&b, int(act.Port))
		case SetVLAN:
			sep()
			b.WriteString("set_vlan:")
			writeInt(&b, act.VLAN)
		case StripVLAN:
			sep()
			b.WriteString("strip_vlan")
		case Enqueue:
			sep()
			b.WriteString("enqueue:")
			writeInt(&b, int(act.Port))
			b.WriteByte(':')
			writeInt(&b, act.Queue)
		case Drop:
			sep()
			b.WriteString("drop")
		}
	}
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

// PacketFunction is a middlebox/host packet-processing function: one packet
// in, zero or more out (§2.1's transformation contract; only local state).
type PacketFunction func(*packet.Packet) []*packet.Packet

// Identity passes packets through unchanged; the default middlebox
// behavior when a function's transformation is irrelevant to the test.
func Identity(p *packet.Packet) []*packet.Packet { return []*packet.Packet{p} }

// Network is a simulated dataplane: switches run rules, middleboxes run
// packet functions and bounce traffic back on the arrival link, hosts
// deliver.
type Network struct {
	topo   *topo.Topology
	tables map[topo.NodeID][]Rule // sorted by priority desc
	mboxes map[topo.NodeID][]PacketFunction
}

// NewNetwork builds an empty dataplane over the topology.
func NewNetwork(t *topo.Topology) *Network {
	return &Network{
		topo:   t,
		tables: map[topo.NodeID][]Rule{},
		mboxes: map[topo.NodeID][]PacketFunction{},
	}
}

// Install adds rules to their switches' tables.
func (n *Network) Install(rules []Rule) {
	for _, r := range rules {
		n.tables[r.Switch] = append(n.tables[r.Switch], r)
	}
	for sw := range n.tables {
		tbl := n.tables[sw]
		sort.SliceStable(tbl, func(i, j int) bool { return tbl[i].Priority > tbl[j].Priority })
	}
}

// AddMiddleboxFunction registers a packet function at a middlebox node.
func (n *Network) AddMiddleboxFunction(mb topo.NodeID, fn PacketFunction) {
	n.mboxes[mb] = append(n.mboxes[mb], fn)
}

// Trace records one packet's journey.
type Trace struct {
	// Hops is the sequence of nodes the packet visited, starting at the
	// injecting host.
	Hops []topo.NodeID
	// Delivered is set when the packet reached a host other than the
	// sender.
	Delivered bool
	// DeliveredTo is that host.
	DeliveredTo topo.NodeID
	// Dropped explains a drop ("" if delivered or lost to a missing rule).
	Dropped string
	// Final is the packet as delivered (tags stripped, transformations
	// applied).
	Final *packet.Packet
}

// HopNames renders the visited nodes.
func (tr Trace) HopNames(t *topo.Topology) []string {
	out := make([]string, len(tr.Hops))
	for i, h := range tr.Hops {
		out[i] = t.Node(h).Name
	}
	return out
}

// maxHops bounds simulation walks; a compiled network's paths are far
// shorter, so hitting it indicates a forwarding loop.
const maxHops = 64

// Inject sends pkt from the given host and simulates forwarding until
// delivery, drop, or loop detection.
func (n *Network) Inject(from topo.NodeID, pkt *packet.Packet) Trace {
	tr := Trace{Hops: []topo.NodeID{from}}
	if n.topo.Node(from).Kind != topo.Host {
		tr.Dropped = "injection point is not a host"
		return tr
	}
	cur := pkt.Clone()
	// The host hands the packet to its attached switch.
	att, ok := n.topo.Attachment(from)
	if !ok {
		tr.Dropped = "host has no attached switch"
		return tr
	}
	link, _ := n.topo.FindLink(from, att)
	node, in := att, link.ID
	for hop := 0; hop < maxHops; hop++ {
		tr.Hops = append(tr.Hops, node)
		switch n.topo.Node(node).Kind {
		case topo.Host:
			if node != from {
				tr.Delivered = true
				tr.DeliveredTo = node
				tr.Final = cur
				return tr
			}
			tr.Dropped = "packet returned to sender"
			return tr
		case topo.Middlebox:
			outs := []*packet.Packet{cur}
			for _, fn := range n.mboxes[node] {
				var next []*packet.Packet
				for _, p := range outs {
					next = append(next, fn(p)...)
				}
				outs = next
			}
			if len(outs) == 0 {
				tr.Dropped = "middlebox consumed packet"
				return tr
			}
			cur = outs[0] // simulation follows the first output packet
			// Bounce back on the arrival link.
			back := n.topo.Link(in).Reverse
			node = n.topo.Link(back).Dst
			in = back
		case topo.Switch:
			rule, ok := n.lookup(node, cur, in)
			if !ok {
				tr.Dropped = "no matching rule"
				return tr
			}
			out, done := n.apply(rule, &cur)
			if done {
				tr.Dropped = "dropped by rule"
				return tr
			}
			if out < 0 {
				tr.Dropped = "rule has no output action"
				return tr
			}
			node = n.topo.Link(out).Dst
			in = out
		}
	}
	tr.Dropped = "forwarding loop (hop limit)"
	return tr
}

func (n *Network) lookup(sw topo.NodeID, pkt *packet.Packet, in topo.LinkID) (Rule, bool) {
	for _, r := range n.tables[sw] {
		if r.Match.Matches(pkt, in) {
			return r, true
		}
	}
	return Rule{}, false
}

// apply executes the rule's actions on the packet, returning the output
// link (or -1) and whether the packet was dropped.
func (n *Network) apply(r Rule, pkt **packet.Packet) (topo.LinkID, bool) {
	out := topo.LinkID(-1)
	for _, a := range r.Actions {
		switch act := a.(type) {
		case Drop:
			return -1, true
		case SetVLAN:
			(*pkt).VLAN = act.VLAN
		case StripVLAN:
			(*pkt).VLAN = packet.VLANNone
		case Output:
			out = act.Port
		case Enqueue:
			out = act.Port
		}
	}
	return out, false
}
