// Package sinktree provisions best-effort traffic (§3.3): instead of
// solving a constraint problem, it computes sink trees — per-destination
// shortest-path trees over the product of the statement's path-constraint
// automaton with the topology — by breadth-first search. Traffic from any
// source reaches the destination along tree edges while respecting the
// statement's path constraints.
package sinktree

import (
	"fmt"

	"merlin/internal/logical"
	"merlin/internal/topo"
)

// Tree is a sink tree: for every product vertex that can reach the
// destination, the next edge toward it along a minimum-hop satisfying
// path.
type Tree struct {
	Dst   topo.NodeID
	g     *logical.Graph
	dist  []int   // hops to destination per product vertex (-1 unreachable)
	next  []int32 // edge id toward destination per product vertex (-1 none)
	entry []int32 // best source edge per location (-1 none)
}

// Graph returns the product graph the tree was computed on.
func (tr *Tree) Graph() *logical.Graph { return tr.g }

// TreeTo computes the sink tree toward dst by a reverse 0/1-weight BFS
// from the accepting vertices at dst. It returns an error if no source can
// reach dst under the path constraint.
func TreeTo(g *logical.Graph, dst topo.NodeID) (*Tree, error) {
	const inf = int(^uint(0) >> 1)
	tr := &Tree{
		Dst:  dst,
		g:    g,
		dist: make([]int, g.NumVerts),
		next: make([]int32, g.NumVerts),
	}
	for i := range tr.dist {
		tr.dist[i] = inf
		tr.next[i] = -1
	}
	// Seed: vertices (dst, q) with an edge to the sink (q accepting).
	deque := make([]int, 0, 64)
	for _, eid := range g.In[g.Sink] {
		e := g.Edges[eid]
		loc, _, ok := g.Decompose(e.From)
		if !ok || loc != dst {
			continue
		}
		if tr.dist[e.From] != 0 {
			tr.dist[e.From] = 0
			tr.next[e.From] = int32(eid)
			deque = append(deque, e.From)
		}
	}
	if len(deque) == 0 {
		return nil, fmt.Errorf("sinktree: destination %s cannot terminate any satisfying path", g.Topo.Node(dst).Name)
	}
	// Reverse 0/1 BFS: relax incoming edges.
	for len(deque) > 0 {
		v := deque[0]
		deque = deque[1:]
		for _, eid := range g.In[v] {
			e := g.Edges[eid]
			if e.From == g.Source {
				continue // handled as entries below
			}
			w := 0
			if e.Link >= 0 {
				w = 1
			}
			if tr.dist[v]+w < tr.dist[e.From] {
				tr.dist[e.From] = tr.dist[v] + w
				tr.next[e.From] = int32(eid)
				if w == 0 {
					deque = append([]int{e.From}, deque...)
				} else {
					deque = append(deque, e.From)
				}
			}
		}
	}
	// Entry edges: best way into the tree per source location.
	tr.entry = make([]int32, g.Topo.NumNodes())
	for i := range tr.entry {
		tr.entry[i] = -1
	}
	for _, eid := range g.Out[g.Source] {
		e := g.Edges[eid]
		if tr.dist[e.To] == inf {
			continue
		}
		loc := e.Entering
		cur := tr.entry[loc]
		if cur < 0 || tr.dist[g.Edges[cur].To] > tr.dist[e.To] {
			tr.entry[loc] = int32(eid)
		}
	}
	return tr, nil
}

// Reaches reports whether traffic entering at src can reach the
// destination along the tree.
func (tr *Tree) Reaches(src topo.NodeID) bool {
	return src != tr.Dst && tr.entry[src] >= 0
}

// Walk is a cursor over one source's tree path, edge by edge: the entry
// edge first, then each vertex's next edge toward the destination, up to
// (not including) the edge into the sink. Every reader of tree paths —
// PathFromBuf, RidesLinks, codegen's lowering — walks through it, so a
// caller that only needs a prefix of the path pays only for that prefix.
type Walk struct {
	tr  *Tree
	eid int32
}

// Walk returns a cursor at the start of the tree path from src; it yields
// nothing when src cannot reach the destination.
func (tr *Tree) Walk(src topo.NodeID) Walk {
	if !tr.Reaches(src) {
		return Walk{tr: tr, eid: -1}
	}
	return Walk{tr: tr, eid: tr.entry[src]}
}

// Next returns the next edge of the path, or false once the path has
// reached the destination. The edge's To is the product vertex the path
// enters; every vertex with a finite distance has a next edge, so a
// walk that starts ends at the sink.
func (w *Walk) Next() (*logical.Edge, bool) {
	if w.eid < 0 {
		return nil, false
	}
	e := &w.tr.g.Edges[w.eid]
	if e.To == w.tr.g.Sink {
		w.eid = -1
		return nil, false
	}
	w.eid = w.tr.next[e.To]
	return e, true
}

// PathFromBuf appends the steps of the tree path from src to the
// destination into buf, for callers reusing a scratch buffer across many
// sources, or returns nil if src cannot reach it. The result aliases buf
// unless tag recovery had to rebuild it.
func (tr *Tree) PathFromBuf(buf []logical.Step, src topo.NodeID) []logical.Step {
	if !tr.Reaches(src) {
		return nil
	}
	steps := buf[:0]
	w := tr.Walk(src)
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		steps = append(steps, logical.Step{Loc: e.Entering, Tag: e.Tag})
	}
	if tr.g.TagSource != nil {
		tagged, err := logical.RecoverTags(tr.g.TagSource, tr.g.Topo, steps)
		if err == nil {
			return tagged
		}
	}
	return steps
}

// RidesLinks reports whether any tree edge on a reaching source's path
// lies on a physical link satisfying ride. When it returns false for the
// links a failure removed, the tree survives the failure verbatim:
// removing edges can only lengthen distances, so the used chains (whose
// lengths are unchanged) stay optimal; the BFS tie-breaks are
// first-minimal in the preserved edge order, and any competitor whose
// distance the removal did not grow routes through a removed-link chain —
// which this test would have caught. Every path codegen lowers from the
// tree is therefore identical to a cold rebuild's on the patched graph.
// Each walk stops after the first vertex an earlier walk entered: the
// rest of its path has been checked.
func (tr *Tree) RidesLinks(ride func(topo.LinkID) bool) bool {
	seen := make([]bool, tr.g.NumVerts)
	for src := range tr.entry {
		w := tr.Walk(topo.NodeID(src))
		for e, ok := w.Next(); ok; e, ok = w.Next() {
			if e.Link >= 0 && ride(e.Link) {
				return true
			}
			if seen[e.To] {
				break
			}
			seen[e.To] = true
		}
	}
	return false
}

// BuildTrees computes sink trees for every destination in dsts, skipping
// unreachable ones when lenient is set (they are reported in the second
// return).
func BuildTrees(g *logical.Graph, dsts []topo.NodeID, lenient bool) (map[topo.NodeID]*Tree, []topo.NodeID, error) {
	trees := make(map[topo.NodeID]*Tree, len(dsts))
	var failed []topo.NodeID
	for _, d := range dsts {
		tr, err := TreeTo(g, d)
		if err != nil {
			if lenient {
				failed = append(failed, d)
				continue
			}
			return nil, nil, err
		}
		trees[d] = tr
	}
	return trees, failed, nil
}
