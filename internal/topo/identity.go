package topo

import (
	"fmt"
	"slices"
	"strings"
)

// Identity carries the addresses by which policies refer to a host: Merlin
// predicates classify packets by MAC or IP (§2.1), so every host gets a
// deterministic synthetic MAC and IPv4 address derived from its node ID.
type Identity struct {
	Node NodeID
	Name string
	MAC  string
	IP   string
}

// IdentityTable resolves policy-level host identities (names, MACs, IPs)
// to topology nodes.
type IdentityTable struct {
	byKey map[string]NodeID
	byID  map[NodeID]Identity
	// hosts lists the identities in node-ID order.
	hosts []Identity
}

// MACOf returns the deterministic MAC assigned to node id:
// 00:00:<i3>:<i2>:<i1>:<i0> over the node index + 1.
func MACOf(id NodeID) string {
	v := uint32(id) + 1
	return fmt.Sprintf("00:00:%02x:%02x:%02x:%02x",
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// IPOf returns the deterministic IPv4 address assigned to node id:
// 10.<i2>.<i1>.<i0> over the node index + 1.
func IPOf(id NodeID) string {
	v := uint32(id) + 1
	return fmt.Sprintf("10.%d.%d.%d", byte(v>>16), byte(v>>8), byte(v))
}

// Identities returns the identity table for every host in the topology.
// A host's identity is a function of its ID and name, which AddNode fixes,
// so the table is built on the first call after the last AddNode and
// shared by every later one; callers must not modify it. Concurrent
// callers are safe: each may build the table, and all get an equal one.
func (t *Topology) Identities() *IdentityTable {
	if tab := t.idents.Load(); tab != nil {
		return tab
	}
	hosts := t.Hosts()
	tab := &IdentityTable{
		byKey: make(map[string]NodeID, 3*len(hosts)),
		byID:  make(map[NodeID]Identity, len(hosts)),
		hosts: make([]Identity, 0, len(hosts)),
	}
	for _, h := range hosts {
		node := t.Node(h)
		ident := Identity{Node: h, Name: node.Name, MAC: MACOf(h), IP: IPOf(h)}
		tab.byID[h] = ident
		tab.hosts = append(tab.hosts, ident)
		tab.byKey[strings.ToLower(node.Name)] = h
		tab.byKey[ident.MAC] = h
		tab.byKey[ident.IP] = h
	}
	t.idents.Store(tab)
	return tab
}

// Resolve maps a policy-level identity value (host name, MAC, or IP) to a
// host node.
func (tab *IdentityTable) Resolve(value string) (NodeID, bool) {
	id, ok := tab.byKey[strings.ToLower(value)]
	return id, ok
}

// Of returns the identity record for a host node.
func (tab *IdentityTable) Of(n NodeID) (Identity, bool) {
	ident, ok := tab.byID[n]
	return ident, ok
}

// Hosts returns all host identities, in node-ID order.
func (tab *IdentityTable) Hosts() []Identity { return slices.Clone(tab.hosts) }

// MACs returns every host MAC in node-ID order, the natural set for the
// foreach/cross sugar ("hosts").
func (tab *IdentityTable) MACs() []string {
	out := make([]string, len(tab.hosts))
	for i, h := range tab.hosts {
		out[i] = h.MAC
	}
	return out
}
