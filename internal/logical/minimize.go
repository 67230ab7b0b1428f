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
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		return nil, err
	}
	min := nfa.Determinize().Minimize().EpsFree()
	g := Build(t, min).Prune()
	if regex.HasTags(e) {
		g.TagSource = nfa.EpsFree()
	}
	return g.Cut(linkDown(t)), nil
}

// BuildAnchored constructs the product graph for the intersection of the
// path expression with "src .* dst" — the anchoring the compiler applies
// when a statement's predicate (rather than its regex) pins the traffic's
// endpoints. Tags are recovered against the unanchored expression's NFA,
// which accepts every anchored path. Like BuildMinimized, the graph is the
// pruned full-fabric form cut by the topology's down links.
func BuildAnchored(t *topo.Topology, e regex.Expr, alpha *regex.Alphabet, src, dst string) (*Graph, error) {
	nfa, err := regex.Compile(e, alpha)
	if err != nil {
		return nil, err
	}
	anchor := regex.ConcatAll(regex.Sym{Name: src}, regex.Star{X: regex.Any{}}, regex.Sym{Name: dst})
	anchorNFA, err := regex.Compile(anchor, alpha)
	if err != nil {
		return nil, err
	}
	product := nfa.Determinize().Intersect(anchorNFA.Determinize()).Minimize().EpsFree()
	g := Build(t, product).Prune()
	if regex.HasTags(e) {
		g.TagSource = nfa.EpsFree()
	}
	return g.Cut(linkDown(t)), nil
}

// linkDown reports the topology's links that are out of service now.
func linkDown(t *topo.Topology) func(topo.LinkID) bool {
	return func(l topo.LinkID) bool { return !t.LinkIsUp(l) }
}

// Prune removes vertices that are unreachable from the source or cannot
// reach the sink, along with their edges, returning a compacted graph.
// Paths and their decodings are unaffected (every source-sink path
// survives); only dead weight the MIP would otherwise carry is dropped.
func (g *Graph) Prune() *Graph {
	fwd := make([]bool, g.NumVerts)
	fwd[g.Source] = true
	stack := []int{g.Source}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.Out[v] {
			to := g.Edges[eid].To
			if !fwd[to] {
				fwd[to] = true
				stack = append(stack, to)
			}
		}
	}
	bwd := make([]bool, g.NumVerts)
	bwd[g.Sink] = true
	stack = append(stack[:0], g.Sink)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.In[v] {
			from := g.Edges[eid].From
			if !bwd[from] {
				bwd[from] = true
				stack = append(stack, from)
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
		Full:      g.Full,
	}
	out.Out = make([][]int32, g.NumVerts)
	out.In = make([][]int32, g.NumVerts)
	for _, e := range g.Edges {
		if fwd[e.From] && bwd[e.From] && fwd[e.To] && bwd[e.To] {
			id := len(out.Edges)
			ne := e
			ne.ID = id
			out.Edges = append(out.Edges, ne)
			out.Out[e.From] = append(out.Out[e.From], int32(id))
			out.In[e.To] = append(out.In[e.To], int32(id))
		}
	}
	return out
}

// WithoutLinks returns the graph with every edge whose physical link
// satisfies drop removed, re-pruned, recording the full form it was cut
// from (g.Full, or g itself). Because Prune preserves vertex numbering
// and renumbers surviving edges compactly in input order, cutting a
// pruned full-fabric graph by a topology's down links is byte-identical
// to building the graph's live form on that degraded topology: the live
// form has the same edges minus the dropped links, in the same order, and
// prunes the same dead vertices. That identity is what lets the
// incremental compiler re-cut cached graphs on every topology event
// instead of rebuilding them.
func (g *Graph) WithoutLinks(drop func(topo.LinkID) bool) *Graph {
	full := g.Full
	if full == nil {
		full = g
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
	out.Out = make([][]int32, g.NumVerts)
	out.In = make([][]int32, g.NumVerts)
	for _, e := range g.Edges {
		if e.Link >= 0 && drop(e.Link) {
			continue
		}
		id := len(out.Edges)
		ne := e
		ne.ID = id
		out.Edges = append(out.Edges, ne)
		out.Out[e.From] = append(out.Out[e.From], int32(id))
		out.In[e.To] = append(out.In[e.To], int32(id))
	}
	return out.Prune()
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
