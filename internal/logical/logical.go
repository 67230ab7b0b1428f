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
// unplaced function names — simply never match), unpruned: every
// vertex's edges, in eachEdge's order, over every link, live or down. It
// is the reference the pruned builder the compiler runs (buildPruned) is
// held to: buildPruned(t, nfa) equals Build(t, nfa).Prune().
func Build(t *topo.Topology, nfa *regex.EpsFree) *Graph {
	return build(t, nfa, nil)
}

// buildPruned constructs Build(t, nfa).Prune() without materializing the
// vertices Prune would drop: it marks the live vertices first
// (liveVertices) and then emits only the edges between them, in Build's
// order, so the result is the same graph byte for byte.
func buildPruned(t *topo.Topology, nfa *regex.EpsFree) *Graph {
	return build(t, nfa, liveVertices(t, nfa))
}

// build is Build (live nil) and buildPruned: the product graph's edges
// between live vertices, counted in one eachEdge walk and stored in a
// second into an Edges array of exactly that size.
func build(t *topo.Topology, nfa *regex.EpsFree, live []bool) *Graph {
	n := t.NumNodes()
	g := &Graph{
		Topo:     t,
		NFA:      nfa,
		States:   nfa.States,
		NumVerts: n*nfa.States + 2,
		Source:   n * nfa.States,
		Sink:     n*nfa.States + 1,
	}
	total := 0
	eachEdge(t, nfa, live, func(Edge) { total++ })
	if total > 0 {
		g.Edges = make([]Edge, 0, total)
		eachEdge(t, nfa, live, func(e Edge) {
			e.ID = len(g.Edges)
			g.Edges = append(g.Edges, e)
		})
	}
	g.index()
	return g
}

// eachEdge calls emit for every edge of the product of t with nfa whose
// endpoints are both live (every edge when live is nil), without its ID.
// It is the one definition of the edge order every graph numbers its
// edges by: the source edges si -> (v, q') per start transition, v
// ascending; then per location u and state q ascending, per transition
// q --v--> q' the self edge (u = v), the moves over every link from u,
// live or down, in link-ID order, and last (u, q)'s sink edge when q
// accepts.
func eachEdge(t *topo.Topology, nfa *regex.EpsFree, live []bool, emit func(Edge)) {
	n, states := t.NumNodes(), nfa.States
	sink := n*states + 1
	keep := func(v int) bool { return live == nil || live[v] }
	// A live vertex makes the source and the sink live too, so only the
	// product vertices need the check.
	for _, tr := range nfa.Out[nfa.Start] {
		for v := 0; v < n; v++ {
			if to := v*states + tr.To; tr.Set.Has(v) && keep(to) {
				emit(Edge{From: n * states, To: to, Entering: topo.NodeID(v), Link: -1, Tag: tr.Tag})
			}
		}
	}
	for u := 0; u < n; u++ {
		links := t.LinksFrom(topo.NodeID(u))
		for q := 0; q < states; q++ {
			from := u*states + q
			if !keep(from) {
				continue
			}
			for _, tr := range nfa.Out[q] {
				if to := u*states + tr.To; tr.Set.Has(u) && keep(to) {
					emit(Edge{From: from, To: to, Entering: topo.NodeID(u), Link: -1, Tag: tr.Tag})
				}
				for _, lid := range links {
					v := t.Link(lid).Dst
					if to := int(v)*states + tr.To; tr.Set.Has(int(v)) && keep(to) {
						emit(Edge{From: from, To: to, Entering: v, Link: lid, Tag: tr.Tag})
					}
				}
			}
			if nfa.Accept[q] {
				emit(Edge{From: from, To: sink, Entering: -1, Link: -1})
			}
		}
	}
}

// liveVertices marks the product vertices (u, q) of t with nfa that lie on
// some Source→Sink path — the ones Prune keeps — without building an edge:
// first the vertices reachable from the source, over every link from each
// location, then, among those, the ones that reach the sink, walking the
// automaton's transitions backwards over every link into each location.
// A vertex reachable from the source reaches the sink only through
// vertices reachable from the source, so confining the second sweep to
// the first's marks finds exactly the live set.
func liveVertices(t *topo.Topology, nfa *regex.EpsFree) []bool {
	n, states := t.NumNodes(), nfa.States
	numVerts := n*states + 2
	sink := numVerts - 1
	marks := make([]bool, 2*numVerts)
	fwd, live := marks[:numVerts], marks[numVerts:]
	stack := make([]int32, 0, numVerts)

	mark := func(seen []bool, v int) {
		if !seen[v] {
			seen[v] = true
			stack = append(stack, int32(v))
		}
	}
	for _, tr := range nfa.Out[nfa.Start] {
		for v := 0; v < n; v++ {
			if tr.Set.Has(v) {
				mark(fwd, v*states+tr.To)
			}
		}
	}
	for len(stack) > 0 {
		from := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		u, q := from/states, from%states
		for _, tr := range nfa.Out[q] {
			if tr.Set.Has(u) {
				mark(fwd, u*states+tr.To)
			}
			for _, lid := range t.LinksFrom(topo.NodeID(u)) {
				if v := int(t.Link(lid).Dst); tr.Set.Has(v) {
					mark(fwd, v*states+tr.To)
				}
			}
		}
		if nfa.Accept[q] {
			fwd[sink] = true
		}
	}
	if !fwd[sink] {
		return live
	}

	// The transitions into each state, grouped by target state: into[q']
	// is rev[revOff[q']:revOff[q'+1]].
	revOff := make([]int32, states+1)
	for q := range nfa.Out {
		for _, tr := range nfa.Out[q] {
			revOff[tr.To+1]++
		}
	}
	for q := 0; q < states; q++ {
		revOff[q+1] += revOff[q]
	}
	rev := make([]regex.Edge, revOff[states])
	fill := append([]int32(nil), revOff[:states]...)
	for q := range nfa.Out {
		for _, tr := range nfa.Out[q] {
			rev[fill[tr.To]] = tr
			fill[tr.To]++
		}
	}

	for v := 0; v < n*states; v++ {
		if fwd[v] && nfa.Accept[v%states] {
			mark(live, v)
		}
	}
	// (u, q) -> (v, q') is an edge iff q --v--> q' and u = v or a link
	// runs from u to v.
	for len(stack) > 0 {
		to := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		v, q2 := to/states, to%states
		for _, tr := range rev[revOff[q2]:revOff[q2+1]] {
			if !tr.Set.Has(v) {
				continue
			}
			if from := v*states + tr.From; fwd[from] {
				mark(live, from)
			}
			for _, lid := range t.LinksInto(topo.NodeID(v)) {
				if from := int(t.Link(lid).Src)*states + tr.From; fwd[from] {
					mark(live, from)
				}
			}
		}
	}
	return live
}

// index derives Out and In from Edges, in edge order. Each direction's
// lists are windows of one flat array, capped so an append cannot run
// into the next vertex's window; a vertex without edges in a direction
// keeps a nil list.
func (g *Graph) index() {
	g.Out = make([][]int32, g.NumVerts)
	g.In = make([][]int32, g.NumVerts)
	if len(g.Edges) == 0 {
		return
	}
	deg := make([]int32, 2*g.NumVerts) // out-degrees, then in-degrees
	for i := range g.Edges {
		deg[g.Edges[i].From]++
		deg[g.NumVerts+g.Edges[i].To]++
	}
	flat := make([]int32, 2*len(g.Edges))
	off := int32(0)
	for v, d := range deg {
		if d == 0 {
			continue
		}
		if v < g.NumVerts {
			g.Out[v] = flat[off : off : off+d]
		} else {
			g.In[v-g.NumVerts] = flat[off : off : off+d]
		}
		off += d
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		g.Out[e.From] = append(g.Out[e.From], int32(i))
		g.In[e.To] = append(g.In[e.To], int32(i))
	}
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
	var out []topo.NodeID
	for _, s := range steps {
		if len(out) == 0 || out[len(out)-1] != s.Loc {
			out = append(out, s.Loc)
		}
	}
	return out
}
