// Package logical builds Merlin's logical topology (§3.2): for each policy
// statement, the directed product graph of the physical topology with the
// statement's path-constraint NFA. Paths from the statement's source vertex
// to its sink vertex correspond exactly to physical paths satisfying the
// path expression (Lemma 1 of the paper).
package logical

import (
	"fmt"
	"math"
	"slices"

	"merlin/internal/regex"
	"merlin/internal/topo"
)

// Step is one element of a decoded physical path: a location plus the name
// of the packet-processing function applied there ("" for plain
// forwarding). A location appears in consecutive steps when several
// functions run at the same place.
type Step struct {
	Loc topo.NodeID
	Tag string
}

// Edge is a logical-topology edge. From/To are product-vertex indices.
// Entering records the location processed by the NFA transition (the "v"
// of the paper's construction); Link is the physical link the edge rides,
// or -1 for self-edges (u = v), source edges, and sink edges, which carry
// no bandwidth.
type Edge struct {
	ID       int
	From, To int
	Entering topo.NodeID
	Link     topo.LinkID
	Tag      string
}

// Graph is the product graph G_i for one statement.
type Graph struct {
	Topo   *topo.Topology
	NFA    *regex.EpsFree
	States int

	NumVerts     int
	Source, Sink int
	Edges        []Edge
	Out          [][]int32 // outgoing edge indices per vertex
	In           [][]int32 // incoming edge indices per vertex

	// TagSource, when non-nil, is the original tagged NFA of a graph built
	// from a minimized (tag-free) automaton; DecodePath uses it to recover
	// function placements.
	TagSource *regex.EpsFree

	// Full is the full-fabric graph this one was cut from (WithoutLinks,
	// Cut): the same automaton over every link, live or down. Nil when the
	// graph is its own full form.
	Full *Graph
}

// vertex returns the product vertex index of (location, state).
func (g *Graph) vertex(loc topo.NodeID, state int) int {
	return int(loc)*g.States + state
}

// VertexOf is the exported form of vertex, for tests and diagnostics.
func (g *Graph) VertexOf(loc topo.NodeID, state int) int { return g.vertex(loc, state) }

// Decompose splits a product vertex back into (location, state). The
// second return is false for the source/sink vertices.
func (g *Graph) Decompose(v int) (topo.NodeID, int, bool) {
	if v >= g.NumVerts-2 {
		return 0, 0, false
	}
	return topo.NodeID(v / g.States), v % g.States, true
}

// Alphabet builds the location alphabet of a topology: one symbol per node
// name. Share one alphabet across all statements of a policy so NFAs and
// the topology agree on symbol numbering.
func Alphabet(t *topo.Topology) *regex.Alphabet {
	names := make([]string, t.NumNodes())
	for i, n := range t.Nodes() {
		names[i] = n.Name
	}
	return regex.NewAlphabet(names)
}

// Build constructs the full-fabric product graph of the topology with an
// epsilon-free NFA whose alphabet was produced by Alphabet(t) (node IDs
// must equal symbol IDs; extra symbols beyond the topology's nodes —
// unplaced function names — simply never match). Every link is
// enumerated, live or down, in link-ID order per node — the order the
// topology's live adjacency keeps — so on a live topology the graph is
// exactly the live one, and a degraded topology's live graph is this one
// cut by its down links (Cut).
func Build(t *topo.Topology, nfa *regex.EpsFree) *Graph {
	g := &Graph{
		Topo:   t,
		NFA:    nfa,
		States: nfa.States,
	}
	n := t.NumNodes()
	g.NumVerts = n*nfa.States + 2
	g.Source = n * nfa.States
	g.Sink = g.Source + 1
	addEdge := func(from, to int, entering topo.NodeID, link topo.LinkID, tag string) {
		g.Edges = append(g.Edges, Edge{ID: len(g.Edges), From: from, To: to, Entering: entering, Link: link, Tag: tag})
	}
	// Every link by source node, live or down, in link-ID order.
	adj := make([][]topo.LinkID, n)
	for _, l := range t.Links() {
		adj[l.Src] = append(adj[l.Src], l.ID)
	}

	// Source edges: si -> (v, q') for every transition q0 --v--> q'.
	for _, tr := range nfa.Out[nfa.Start] {
		for v := 0; v < n; v++ {
			if tr.Set.Has(v) {
				addEdge(g.Source, g.vertex(topo.NodeID(v), tr.To), topo.NodeID(v), -1, tr.Tag)
			}
		}
	}
	// Interior edges: (u,q) -> (v,q') iff (u=v or (u,v) physical) and
	// q --v--> q'.
	for u := 0; u < n; u++ {
		for q := 0; q < nfa.States; q++ {
			from := g.vertex(topo.NodeID(u), q)
			for _, tr := range nfa.Out[q] {
				// Self-transition: stay at u, apply another NFA step.
				if tr.Set.Has(u) {
					addEdge(from, g.vertex(topo.NodeID(u), tr.To), topo.NodeID(u), -1, tr.Tag)
				}
				// Physical moves to neighbors in the transition's set.
				for _, lid := range adj[u] {
					link := t.Link(lid)
					v := int(link.Dst)
					if tr.Set.Has(v) {
						addEdge(from, g.vertex(link.Dst, tr.To), link.Dst, lid, tr.Tag)
					}
				}
			}
			// Sink edges from accepting states.
			if nfa.Accept[q] {
				addEdge(from, g.Sink, -1, -1, "")
			}
		}
	}
	// Derive the adjacency lists from the edge list in one shot: count
	// degrees, carve both flat backing arrays, and fill in edge order
	// (identical to appending during construction, without the per-vertex
	// slice growth that used to dominate the compiler's allocations).
	total := len(g.Edges)
	g.Out = make([][]int32, g.NumVerts)
	g.In = make([][]int32, g.NumVerts)
	outDeg := make([]int32, g.NumVerts)
	inDeg := make([]int32, g.NumVerts)
	for i := range g.Edges {
		outDeg[g.Edges[i].From]++
		inDeg[g.Edges[i].To]++
	}
	outFlat := make([]int32, total)
	inFlat := make([]int32, total)
	off := int32(0)
	for v := 0; v < g.NumVerts; v++ {
		g.Out[v] = outFlat[off : off : off+outDeg[v]]
		off += outDeg[v]
	}
	off = 0
	for v := 0; v < g.NumVerts; v++ {
		g.In[v] = inFlat[off : off : off+inDeg[v]]
		off += inDeg[v]
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		g.Out[e.From] = append(g.Out[e.From], int32(i))
		g.In[e.To] = append(g.In[e.To], int32(i))
	}
	return g
}

// CheapestPath returns the edge IDs of a minimum-cost Source→Sink path
// under the non-negative per-edge costs cost[e], or nil when the sink is
// unreachable. It is Dijkstra's algorithm over a binary heap ordered by
// (distance, vertex), relaxing in Out order with strict <, so equal inputs
// give equal paths.
func (g *Graph) CheapestPath(cost []float64) []int {
	dist := make([]float64, g.NumVerts)
	via := make([]int32, g.NumVerts) // edge that last improved each vertex
	for v := range dist {
		dist[v] = math.Inf(1)
		via[v] = -1
	}
	dist[g.Source] = 0
	h := distHeap{{0, int32(g.Source)}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > dist[it.v] {
			continue // superseded by a cheaper push
		}
		if int(it.v) == g.Sink {
			break
		}
		for _, eid := range g.Out[it.v] {
			to := g.Edges[eid].To
			if d := it.d + cost[eid]; d < dist[to] {
				dist[to], via[to] = d, eid
				h.push(distItem{d, int32(to)})
			}
		}
	}
	if via[g.Sink] < 0 {
		return nil
	}
	var out []int
	for v := g.Sink; v != g.Source; v = g.Edges[via[v]].From {
		out = append(out, int(via[v]))
	}
	slices.Reverse(out)
	return out
}

// distItem is a tentative distance of vertex v in CheapestPath's heap.
type distItem struct {
	d float64
	v int32
}

func (a distItem) less(b distItem) bool { return a.d < b.d || (a.d == b.d && a.v < b.v) }

// distHeap is a binary min-heap of distItems.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && s[l].less(s[m]) {
			m = l
		}
		if r < last && s[r].less(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// DecodePath converts a Source→Sink edge sequence into physical steps: one
// Step per NFA transition, carrying the entered location and function tag.
// The final sink edge is dropped.
func (g *Graph) DecodePath(edgeIDs []int) ([]Step, error) {
	var steps []Step
	cur := g.Source
	for _, eid := range edgeIDs {
		if eid < 0 || eid >= len(g.Edges) {
			return nil, fmt.Errorf("logical: edge %d out of range", eid)
		}
		e := g.Edges[eid]
		if e.From != cur {
			return nil, fmt.Errorf("logical: edge %d does not continue the path (at %d, edge from %d)", eid, cur, e.From)
		}
		cur = e.To
		if e.To == g.Sink {
			break
		}
		steps = append(steps, Step{Loc: e.Entering, Tag: e.Tag})
	}
	if cur != g.Sink {
		return nil, fmt.Errorf("logical: path does not reach the sink")
	}
	if g.TagSource != nil {
		return RecoverTags(g.TagSource, g.Topo, steps)
	}
	return steps, nil
}

// ExtractPath walks the chosen-edge set (as produced by the MIP: xe = 1)
// from Source to Sink and decodes it. Degenerate cycles not on the
// source-sink walk are ignored, matching the MIP's semantics.
func (g *Graph) ExtractPath(chosen func(edgeID int) bool) ([]Step, error) {
	var ids []int
	cur := g.Source
	visited := make(map[int]bool)
	for cur != g.Sink {
		if visited[cur] {
			return nil, fmt.Errorf("logical: chosen edges form a cycle at vertex %d", cur)
		}
		visited[cur] = true
		found := -1
		for _, eid := range g.Out[cur] {
			if chosen(int(eid)) {
				found = int(eid)
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("logical: chosen edges dead-end at vertex %d", cur)
		}
		ids = append(ids, found)
		cur = g.Edges[found].To
	}
	return g.DecodePath(ids)
}

// Locations projects steps to their locations, collapsing consecutive
// duplicates (several functions at one location visit it once physically).
func Locations(steps []Step) []topo.NodeID {
	return AppendLocations(nil, steps)
}

// AppendLocations is Locations appending into dst, for callers reusing a
// scratch buffer across many paths.
func AppendLocations(dst []topo.NodeID, steps []Step) []topo.NodeID {
	out := dst[:0]
	for _, s := range steps {
		if len(out) == 0 || out[len(out)-1] != s.Loc {
			out = append(out, s.Loc)
		}
	}
	return out
}

// Placements extracts the function placements from a decoded path: which
// location hosts each tagged transition, in path order.
type Placement struct {
	Fn  string
	Loc topo.NodeID
}

// PlacementsOf lists the function placements along a path.
func PlacementsOf(steps []Step) []Placement {
	var out []Placement
	for _, s := range steps {
		if s.Tag != "" {
			out = append(out, Placement{Fn: s.Tag, Loc: s.Loc})
		}
	}
	return out
}
