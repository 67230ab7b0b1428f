// Package topo models physical network topologies: hosts, switches, and
// middleboxes connected by capacitated links. It also provides the
// generators used throughout the Merlin evaluation (balanced trees, fat
// trees, the Stanford-style campus core, and assorted synthetic shapes).
//
// Node and link identifiers are small dense integers so that downstream
// consumers (the logical-topology product construction and the MIP encoder)
// can use slices instead of maps on hot paths.
package topo

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Kind classifies a topology node.
type Kind uint8

// Node kinds. Middleboxes are nodes that can host packet-processing
// functions; hosts are traffic sources and sinks; switches forward.
const (
	Switch Kind = iota
	Host
	Middlebox
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Switch:
		return "switch"
	case Host:
		return "host"
	case Middlebox:
		return "middlebox"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeID identifies a node within a single Topology.
type NodeID int

// LinkID identifies a directed link within a single Topology.
type LinkID int

// Node is a single network element.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
}

// Link is a directed edge between two nodes with a capacity in bits per
// second. Physical cables are bidirectional; AddLink installs one Link in
// each direction and records them as reverses of each other.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	// Capacity is the link bandwidth in bits per second.
	Capacity float64
	// Reverse is the link carrying traffic in the opposite direction.
	Reverse LinkID
}

// Topology is a mutable graph of nodes and directed links. The zero value
// is an empty topology ready for use. Structure is append-only (AddNode,
// AddLink), but elements can fail and recover: see dynamics.go's
// SetLinkState, SetNodeState, and SetCableCapacity. Out, In, Neighbors,
// FindLink, and the path helpers see only live links; Links, Link,
// LinksFrom, and LinksInto still expose failed elements by their stable
// IDs.
type Topology struct {
	nodes  []Node
	links  []Link
	out    [][]LinkID // live adjacency: outgoing links per node
	in     [][]LinkID // live adjacency: incoming links per node
	byName map[string]NodeID

	// linkDown and nodeDown mark failed elements (dynamics.go); nil until
	// the first failure, so static topologies pay nothing.
	linkDown []bool
	nodeDown []bool
	// from and into are the full-fabric adjacency (LinksFrom, LinksInto):
	// every link by source and by destination node. Nil until the first
	// failure, which is when out and in stop listing every link.
	from [][]LinkID
	into [][]LinkID

	// idents memoizes Identities; AddNode clears it.
	idents atomic.Pointer[IdentityTable]
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byName: make(map[string]NodeID)}
}

// AddNode inserts a node with the given name and kind and returns its ID.
// Names must be unique; AddNode panics on duplicates since topology
// construction is programmatic and a duplicate is a programming error.
func (t *Topology) AddNode(name string, kind Kind) NodeID {
	if t.byName == nil {
		t.byName = make(map[string]NodeID)
	}
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("topo: duplicate node name %q", name))
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Kind: kind})
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	if t.from != nil {
		t.from = append(t.from, nil)
		t.into = append(t.into, nil)
	}
	t.byName[name] = id
	t.idents.Store(nil)
	return id
}

// AddSwitch adds a switch node.
func (t *Topology) AddSwitch(name string) NodeID { return t.AddNode(name, Switch) }

// AddHost adds a host node.
func (t *Topology) AddHost(name string) NodeID { return t.AddNode(name, Host) }

// AddMiddlebox adds a middlebox node.
func (t *Topology) AddMiddlebox(name string) NodeID { return t.AddNode(name, Middlebox) }

// AddLink installs a bidirectional link between a and b with the given
// capacity in each direction and returns the two directed link IDs
// (a→b, b→a).
func (t *Topology) AddLink(a, b NodeID, capacity float64) (LinkID, LinkID) {
	if a == b {
		panic("topo: self links are not allowed")
	}
	ab := LinkID(len(t.links))
	ba := ab + 1
	t.links = append(t.links,
		Link{ID: ab, Src: a, Dst: b, Capacity: capacity, Reverse: ba},
		Link{ID: ba, Src: b, Dst: a, Capacity: capacity, Reverse: ab},
	)
	t.out[a] = append(t.out[a], ab)
	t.in[b] = append(t.in[b], ab)
	t.out[b] = append(t.out[b], ba)
	t.in[a] = append(t.in[a], ba)
	if t.from != nil {
		t.from[a] = append(t.from[a], ab)
		t.into[b] = append(t.into[b], ab)
		t.from[b] = append(t.from[b], ba)
		t.into[a] = append(t.into[a], ba)
	}
	return ab, ba
}

// NumNodes reports the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks reports the number of directed links (twice the cable count).
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Link returns the directed link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Lookup finds a node by name.
func (t *Topology) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// MustLookup finds a node by name and panics if it does not exist.
func (t *Topology) MustLookup(name string) NodeID {
	id, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %q", name))
	}
	return id
}

// Out returns the outgoing link IDs of n. The slice must not be modified.
func (t *Topology) Out(n NodeID) []LinkID { return t.out[n] }

// In returns the incoming link IDs of n. The slice must not be modified.
func (t *Topology) In(n NodeID) []LinkID { return t.in[n] }

// LinksFrom returns every link leaving n, live or down, in link-ID order.
// The slice must not be modified.
func (t *Topology) LinksFrom(n NodeID) []LinkID {
	if t.from == nil {
		return t.out[n] // nothing has failed: every link is live
	}
	return t.from[n]
}

// LinksInto returns every link entering n, live or down, in link-ID order.
// The slice must not be modified.
func (t *Topology) LinksInto(n NodeID) []LinkID {
	if t.into == nil {
		return t.in[n]
	}
	return t.into[n]
}

// Nodes returns all nodes in ID order. The slice must not be modified.
func (t *Topology) Nodes() []Node { return t.nodes }

// Links returns all directed links in ID order. The slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// NodesOfKind returns the IDs of all nodes with the given kind, in ID order.
func (t *Topology) NodesOfKind(kind Kind) []NodeID {
	var ids []NodeID
	for _, n := range t.nodes {
		if n.Kind == kind {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Hosts returns the IDs of all host nodes.
func (t *Topology) Hosts() []NodeID { return t.NodesOfKind(Host) }

// Switches returns the IDs of all switch nodes.
func (t *Topology) Switches() []NodeID { return t.NodesOfKind(Switch) }

// Middleboxes returns the IDs of all middlebox nodes.
func (t *Topology) Middleboxes() []NodeID { return t.NodesOfKind(Middlebox) }

// Neighbors returns the IDs of nodes directly connected to n, sorted.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]bool, len(t.out[n]))
	var ids []NodeID
	for _, l := range t.out[n] {
		d := t.links[l].Dst
		if !seen[d] {
			seen[d] = true
			ids = append(ids, d)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FindLink returns the directed link from a to b, if one exists.
func (t *Topology) FindLink(a, b NodeID) (Link, bool) {
	for _, l := range t.out[a] {
		if t.links[l].Dst == b {
			return t.links[l], true
		}
	}
	return Link{}, false
}

// Attachment returns the switch a host or middlebox is attached to. If the
// node has several switch neighbors the lowest-ID one is returned. The
// second result is false for isolated nodes.
func (t *Topology) Attachment(n NodeID) (NodeID, bool) {
	for _, nb := range t.Neighbors(n) {
		if t.nodes[nb].Kind == Switch {
			return nb, true
		}
	}
	return 0, false
}

// BFS computes hop distances and BFS parents from src over all nodes.
// parent[src] == -1, and parent[v] == -1 for unreachable v (dist[v] < 0).
func (t *Topology) BFS(src NodeID) (dist []int, parent []NodeID) {
	dist = make([]int, len(t.nodes))
	parent = make([]NodeID, len(t.nodes))
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range t.out[u] {
			v := t.links[l].Dst
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// ShortestPath returns a minimum-hop path from src to dst, inclusive of both
// endpoints, or nil if dst is unreachable.
func (t *Topology) ShortestPath(src, dst NodeID) []NodeID {
	dist, parent := t.BFS(src)
	if dist[dst] < 0 {
		return nil
	}
	var rev []NodeID
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	path := make([]NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// Connected reports whether every node is reachable from node 0.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	dist, _ := t.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}
