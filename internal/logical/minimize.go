package logical

import (
	"fmt"
	"sort"

	"merlin/internal/regex"
	"merlin/internal/topo"
)

// BuildMinimized constructs the product graph from the Hopcroft-minimized
// DFA of the path expression instead of the raw Thompson NFA. Minimized
// automata are typically several times smaller, which shrinks the MIP the
// provisioner must solve. Because determinization discards function tags,
// the original tagged NFA is kept on the graph and DecodePath re-derives
// placements by simulating it over decoded paths. The graph is the pruned
// full-fabric form cut by the topology's down links (Cut).
func BuildMinimized(t *topo.Topology, e regex.Expr, alpha *regex.Alphabet) (*Graph, error) {
	return buildCut(t, e, nil, alpha)
}

// BuildAnchored constructs the product graph for the intersection of the
// path expression with "src .* dst" — the anchoring the compiler applies
// when a statement's predicate (rather than its regex) pins the traffic's
// endpoints. Tags are recovered against the unanchored expression's NFA,
// which accepts every anchored path. Like BuildMinimized, the graph is the
// pruned full-fabric form cut by the topology's down links.
func BuildAnchored(t *topo.Topology, e regex.Expr, alpha *regex.Alphabet, src, dst string) (*Graph, error) {
	return buildCut(t, e, regex.ConcatAll(regex.Sym{Name: src}, regex.Star{X: regex.Any{}}, regex.Sym{Name: dst}), alpha)
}

// buildCut is BuildMinimized and BuildAnchored: the minimal DFA of e,
// intersected with anchor's when anchor is not nil, built over the full
// fabric already pruned (buildPruned, equal to Build(...).Prune() without
// materializing the vertices Prune drops), tagged, and cut by the
// topology's down links.
func buildCut(t *topo.Topology, e, anchor regex.Expr, alpha *regex.Alphabet) (*Graph, error) {
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		return nil, err
	}
	var anchorNFA *regex.NFA
	if anchor != nil {
		if anchorNFA, err = regex.Compile(anchor, alpha); err != nil {
			return nil, err
		}
	}
	dfa := nfa.Determinize()
	if anchorNFA != nil {
		dfa = dfa.Intersect(anchorNFA.Determinize())
	}
	g := buildPruned(t, dfa.Minimize().EpsFree())
	if regex.HasTags(e) {
		g.TagSource = nfa.EpsFree()
	}
	return g.Cut(linkDown(t)), nil
}

// linkDown reports the topology's links that are out of service now.
func linkDown(t *topo.Topology) func(topo.LinkID) bool {
	return func(l topo.LinkID) bool { return !t.LinkIsUp(l) }
}

// WithoutLinks returns the graph with every edge whose physical link
// satisfies drop removed and the vertices left off every Source→Sink path
// pruned, recording the full form it was cut from (g.Full, or g itself).
// Because pruning preserves vertex numbering and renumbers surviving
// edges compactly in input order, cutting a pruned full-fabric graph by a
// topology's down links is byte-identical to building the graph's live
// form on that degraded topology: the live form has the same edges minus
// the dropped links, in the same order, and prunes the same dead
// vertices. That identity is what lets the incremental compiler re-cut
// cached graphs on every topology event instead of rebuilding them.
func (g *Graph) WithoutLinks(drop func(topo.LinkID) bool) *Graph {
	full := g.Full
	if full == nil {
		full = g
	}
	return g.filter(drop, full)
}

// filter is WithoutLinks and, with a nil drop, Prune: it keeps the edges
// that ride no link satisfying drop and join two vertices that are
// reachable from the source and reach the sink over such edges, renumbered
// compactly in input order, and records full as the result's full form.
// Vertex numbering is unchanged; a vertex left without edges keeps nil
// Out and In lists.
func (g *Graph) filter(drop func(topo.LinkID) bool, full *Graph) *Graph {
	kept := func(e *Edge) bool { return drop == nil || e.Link < 0 || !drop(e.Link) }
	marks := make([]bool, 2*g.NumVerts)
	fwd, live := marks[:g.NumVerts], marks[g.NumVerts:]
	stack := make([]int32, 0, g.NumVerts)
	fwd[g.Source] = true
	stack = append(stack, int32(g.Source))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.Out[v] {
			if e := &g.Edges[eid]; !fwd[e.To] && kept(e) {
				fwd[e.To] = true
				stack = append(stack, int32(e.To))
			}
		}
	}
	// A vertex reachable from the source reaches the sink only through
	// such vertices, so the backward sweep stays among fwd's marks.
	if fwd[g.Sink] {
		live[g.Sink] = true
		stack = append(stack, int32(g.Sink))
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.In[v] {
			if e := &g.Edges[eid]; fwd[e.From] && !live[e.From] && kept(e) {
				live[e.From] = true
				stack = append(stack, int32(e.From))
			}
		}
	}
	out := &Graph{
		Topo:      g.Topo,
		NFA:       g.NFA,
		States:    g.States,
		NumVerts:  g.NumVerts,
		Source:    g.Source,
		Sink:      g.Sink,
		TagSource: g.TagSource,
		Full:      full,
	}
	keep := func(e *Edge) bool { return live[e.From] && live[e.To] && kept(e) }
	total := 0
	for i := range g.Edges {
		if keep(&g.Edges[i]) {
			total++
		}
	}
	if total > 0 {
		out.Edges = make([]Edge, 0, total)
		for i := range g.Edges {
			if e := g.Edges[i]; keep(&e) {
				e.ID = len(out.Edges)
				out.Edges = append(out.Edges, e)
			}
		}
	}
	out.index()
	return out
}

// Cut returns the graph's full form cut by the links satisfying down: the
// full form itself when none of its edges rides a down link, and
// full.WithoutLinks(down) otherwise. Every graph cut from one full form
// by the same down set is therefore the same graph, whatever it was cut
// from before — a recovery re-cuts rather than rebuilds.
func (g *Graph) Cut(down func(topo.LinkID) bool) *Graph {
	full := g.Full
	if full == nil {
		full = g
	}
	if !full.Rides(down) {
		return full
	}
	return full.WithoutLinks(down)
}

// Rides reports whether any edge of the graph rides a link satisfying
// ride.
func (g *Graph) Rides(ride func(topo.LinkID) bool) bool {
	for i := range g.Edges {
		if l := g.Edges[i].Link; l >= 0 && ride(l) {
			return true
		}
	}
	return false
}

// RecoverTags simulates the tagged epsilon-free NFA over the location
// sequence of a decoded path and assigns function tags to each step. The
// location sequence must be in the NFA's language (guaranteed when the
// path came from a product graph over an equivalent automaton); otherwise
// an error is returned.
func RecoverTags(ef *regex.EpsFree, t *topo.Topology, steps []Step) ([]Step, error) {
	n := len(steps)
	// frontier[i] = set of NFA states reachable after consuming i symbols;
	// parent[(i+1, q')] = (q, tag) used to reach q'.
	type parentKey struct {
		pos   int
		state int
	}
	type parentVal struct {
		state int
		tag   string
	}
	parents := make(map[parentKey]parentVal)
	// Frontiers iterate in ascending state order: map iteration order
	// would otherwise pick different (equally valid) parents run to run,
	// making recovered placements nondeterministic.
	inFrontier := make([]bool, ef.States)
	inFrontier[ef.Start] = true
	frontier := []int{ef.Start}
	for i := 0; i < n; i++ {
		sym := int(steps[i].Loc)
		inNext := make([]bool, ef.States)
		var next []int
		sort.Ints(frontier)
		for _, q := range frontier {
			for _, tr := range ef.Out[q] {
				if !tr.Set.Has(sym) {
					continue
				}
				if !inNext[tr.To] {
					inNext[tr.To] = true
					next = append(next, tr.To)
					parents[parentKey{i + 1, tr.To}] = parentVal{state: q, tag: tr.Tag}
				} else if tr.Tag != "" {
					// Prefer tagged transitions so placements are not
					// silently dropped when both tagged and untagged
					// transitions reach the same state.
					parents[parentKey{i + 1, tr.To}] = parentVal{state: q, tag: tr.Tag}
				}
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("logical: path leaves the tagged NFA's language at step %d (%s)",
				i, t.Node(steps[i].Loc).Name)
		}
		frontier = next
	}
	final := -1
	sort.Ints(frontier)
	for _, q := range frontier {
		if ef.Accept[q] {
			final = q
			break
		}
	}
	if final < 0 {
		return nil, fmt.Errorf("logical: path is not accepted by the tagged NFA")
	}
	out := make([]Step, n)
	copy(out, steps)
	for i := n; i > 0; i-- {
		pv := parents[parentKey{i, final}]
		out[i-1].Tag = pv.tag
		final = pv.state
	}
	return out, nil
}
