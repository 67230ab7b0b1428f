package codegen

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
	"merlin/internal/zoo"
)

// refLowerer is the per-source lowering Lower replaced, kept as the
// reference the tree cut-off is held to: every plan's full path is
// lowered hop by hop, and ByDestination classification is keyed by the
// destination's MAC. It shares the lowerer's bookkeeping (tags,
// selectors, retagging), which the cut-off leaves as it was. It
// reserves each queue as it lowers the hop that first uses it, the way
// the lowerer did before reservation became a pass (ReserveQueues), so
// the pass is held to that order too.
type refLowerer struct {
	*lowerer
	classBound map[refClassKey]bool
	queueBound map[queueKey]int
	queueNext  map[topo.LinkID]int
}

// queueFor returns the queue of (sw, port, minBps), reserving the port's
// next queue id on first use.
func (g refLowerer) queueFor(sw topo.NodeID, port topo.LinkID, minBps float64) int {
	key := queueKey{sw: sw, port: port, minBps: minBps}
	if q, ok := g.queueBound[key]; ok {
		return q
	}
	q := g.queueNext[port] + 1
	g.queueNext[port] = q
	g.queueBound[key] = q
	g.prog.Queues = append(g.prog.Queues, QueueConfig{Switch: sw, Port: port, Queue: q, MinBps: minBps})
	return q
}

type refClassKey struct {
	sw   topo.NodeID
	vlan int
	sel  string
}

// byPriority sorts plans by descending priority, stably.
type byPriority []Plan

func (p byPriority) Len() int           { return len(p) }
func (p byPriority) Less(i, j int) bool { return p[i].Priority > p[j].Priority }
func (p byPriority) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

func referenceLower(t *topo.Topology, plans []Plan) (*Program, error) {
	g := refLowerer{
		lowerer: &lowerer{
			t:       t,
			ids:     t.Identities(),
			prog:    &Program{Tags: map[string][]int{}, Rules: make([]Rule, 0, 2*len(plans))},
			bound:   map[ruleKey]int{},
			sels:    map[string][]classSel{},
			nextTag: firstTag,
		},
		classBound: map[refClassKey]bool{},
		queueBound: map[queueKey]int{},
		queueNext:  map[topo.LinkID]int{},
	}
	ordered := append([]Plan(nil), plans...)
	sort.Stable(byPriority(ordered))
	treeTags := map[*sinktree.Tree]int{}
	for _, p := range ordered {
		switch {
		case p.Path != nil:
			tag, err := g.allocTag(p.ID)
			if err == nil {
				err = g.lowerPath(p, p.Path, tag, true)
			}
			if err != nil {
				return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
			}
		case p.Tree != nil:
			tag, ok := treeTags[p.Tree]
			if !ok {
				var err error
				if tag, err = g.allocTag(p.ID); err != nil {
					return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
				}
				treeTags[p.Tree] = tag
			} else {
				g.prog.Tags[p.ID] = append(g.prog.Tags[p.ID], tag)
			}
			steps := p.Tree.PathFromBuf(nil, p.SrcHost)
			if steps == nil {
				return nil, fmt.Errorf("codegen: statement %s: %s cannot reach %s under the path constraint",
					p.ID, t.Node(p.SrcHost).Name, t.Node(p.DstHost).Name)
			}
			if err := g.lowerPath(p, steps, tag, false); err != nil {
				return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
			}
		default:
			return nil, fmt.Errorf("codegen: statement %s has neither path nor tree", p.ID)
		}
	}
	return g.prog, nil
}

func (g refLowerer) lowerPath(p Plan, steps []logical.Step, tag int, guaranteed bool) error {
	locs := logical.Locations(steps)
	if len(locs) < 2 {
		return fmt.Errorf("degenerate path")
	}
	if g.t.Node(locs[0]).Kind != topo.Host || g.t.Node(locs[len(locs)-1]).Kind != topo.Host {
		return fmt.Errorf("path endpoints must be hosts")
	}
	for _, s := range steps {
		if s.Tag != "" {
			g.prog.Fns = append(g.prog.Fns, FnSpec{Node: s.Loc, Fn: s.Tag, Stmt: p.ID})
		}
	}
	curTag := tag
	classified := false
	g.ingress = g.ingress[:0]
	for i := 1; i < len(locs)-1; i++ {
		node := locs[i]
		if g.t.Node(node).Kind != topo.Switch {
			continue
		}
		inLink, ok := g.t.FindLink(locs[i-1], node)
		if !ok {
			return fmt.Errorf("no link %s-%s", g.t.Node(locs[i-1]).Name, g.t.Node(node).Name)
		}
		outLink, ok := g.t.FindLink(node, locs[i+1])
		if !ok {
			return fmt.Errorf("no link %s-%s", g.t.Node(node).Name, g.t.Node(locs[i+1]).Name)
		}
		last := i == len(locs)-2
		fwd := Op{Kind: OpForward, Port: outLink.ID}
		if guaranteed {
			q := g.queueFor(node, outLink.ID, p.Alloc.Min)
			fwd = Op{Kind: OpForwardQueue, Port: outLink.ID, Queue: q}
		}
		if !classified {
			g.lowerClassification(p, node, inLink.ID, curTag, fwd, last)
			g.ingressAt = i
			classified = true
			continue
		}
		key := ruleKey{sw: node, vlan: curTag, in: inLink.ID}
		ops := []Op{fwd}
		if last {
			ops = []Op{{Kind: OpClearTag}, fwd}
		}
		if idx, exists := g.bound[key]; exists {
			if !sameOps(g.prog.Rules[idx].Ops, ops) {
				fresh, err := g.allocTag(p.ID)
				if err != nil {
					return err
				}
				if err := g.retagPrevious(p, locs, i, curTag, fresh); err != nil {
					return err
				}
				curTag = fresh
				key.vlan = curTag
				g.prog.Rules = append(g.prog.Rules, Rule{
					Device: node, Priority: 500,
					Match: Match{InPort: inLink.ID, Tag: curTag},
					Ops:   ops, Stmt: p.ID,
				})
				g.bound[key] = len(g.prog.Rules) - 1
			}
			continue
		}
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device: node, Priority: 500,
			Match: Match{InPort: inLink.ID, Tag: curTag},
			Ops:   ops, Stmt: p.ID,
		})
		g.bound[key] = len(g.prog.Rules) - 1
	}
	if !classified {
		return fmt.Errorf("path contains no switch")
	}
	return nil
}

func (g refLowerer) lowerClassification(p Plan, sw topo.NodeID, in topo.LinkID, tag int, fwd Op, last bool) {
	ops := []Op{{Kind: OpSetTag, Tag: tag}, fwd}
	if last {
		ops = []Op{fwd}
	}
	switch p.Classify {
	case ByDestination:
		ident, _ := g.ids.Of(p.DstHost)
		key := refClassKey{sw: sw, vlan: tag, sel: ident.MAC}
		if g.classBound[key] {
			return
		}
		g.classBound[key] = true
		g.ingress = append(g.ingress, len(g.prog.Rules))
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device: sw, Priority: 100 + p.Priority,
			Match: Match{InPort: AnyPort, Tag: TagNone, DstMAC: ident.MAC},
			Ops:   ops, Stmt: p.ID,
		})
	default:
		for _, s := range g.selectors(p) {
			key := refClassKey{sw: sw, vlan: tag, sel: s.sel}
			if g.classBound[key] {
				continue
			}
			g.classBound[key] = true
			g.ingress = append(g.ingress, len(g.prog.Rules))
			g.prog.Rules = append(g.prog.Rules, Rule{
				Device: sw, Priority: 100 + p.Priority,
				Match: Match{InPort: in, Tag: TagNone, Pred: s.pred},
				Ops:   ops, Stmt: p.ID,
			})
		}
	}
}

// planGen draws random plan lists over one topology. Statements sharing
// a path expression share its sink trees, whatever their classification.
type planGen struct {
	t     *testing.T
	rng   *rand.Rand
	tp    *topo.Topology
	place map[string][]string
	trees map[string]map[topo.NodeID]*sinktree.Tree
}

// tree returns the sink tree of expr toward dst, nil when no source can
// reach dst under the expression.
func (pg *planGen) tree(expr string, dst topo.NodeID) *sinktree.Tree {
	byDst := pg.trees[expr]
	if byDst == nil {
		byDst = map[topo.NodeID]*sinktree.Tree{}
		pg.trees[expr] = byDst
	}
	if tr, ok := byDst[dst]; ok {
		return tr
	}
	tr, err := sinktree.TreeTo(graphFor(pg.t, pg.tp, expr, pg.place), dst)
	if err != nil {
		tr = nil
	}
	byDst[dst] = tr
	return tr
}

// exprs lists the path expressions a topology's statements draw from:
// tag-free ones over one and several automaton states (a switch waypoint
// makes paths revisit switches), and function waypoints when the topology
// has middleboxes.
func (pg *planGen) exprs() []string {
	sw := pg.tp.Switches()
	a := pg.tp.Node(sw[pg.rng.Intn(len(sw))]).Name
	b := pg.tp.Node(sw[pg.rng.Intn(len(sw))]).Name
	out := []string{".*", ".* " + a + " .*", ".* " + a + " .* " + b + " .*"}
	if pg.place != nil {
		out = append(out, ".* dpi .*", ".* nat .* dpi .*")
	}
	return out
}

func (pg *planGen) pick(hosts []topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for _, h := range hosts {
		if pg.rng.Intn(3) > 0 {
			out = append(out, h)
		}
	}
	return out
}

func (pg *planGen) predicate() pred.Pred {
	port := func() pred.Pred { return pred.Test{Field: "tcp.dst", Value: fmt.Sprint(20 + pg.rng.Intn(4))} }
	switch pg.rng.Intn(3) {
	case 0:
		return port()
	case 1:
		return pred.Or{L: port(), R: port()}
	default:
		return pred.Conj(pred.Test{Field: "ip.proto", Value: "6"}, pred.Or{L: port(), R: port()})
	}
}

// rate draws a guaranteed rate from a small set with a repeat, so equal-
// rate guarantees share queues and a redraw splits or merges them.
func (pg *planGen) rate() float64 {
	return []float64{5, 10, 10, 20}[pg.rng.Intn(4)] * topo.Mbps
}

// guaranteed returns the cheapest path from src to dst, nil when none.
func (pg *planGen) guaranteed(src, dst topo.NodeID) []logical.Step {
	gg := graphFor(pg.t, pg.tp, pg.tp.Node(src).Name+" .* "+pg.tp.Node(dst).Name, nil)
	hops := make([]float64, len(gg.Edges))
	for i, e := range gg.Edges {
		if e.Link >= 0 {
			hops[i] = 1
		}
	}
	chosen := gg.CheapestPath(hops)
	if chosen == nil {
		return nil
	}
	steps, err := gg.DecodePath(chosen)
	if err != nil {
		return nil
	}
	return steps
}

func (pg *planGen) plans() []Plan {
	hosts := pg.tp.Hosts()
	exprs := pg.exprs()
	n := 2 + pg.rng.Intn(4)
	var plans []Plan
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		alloc := policy.Unconstrained
		if pg.rng.Intn(3) == 0 {
			alloc = policy.Alloc{Max: float64(1+pg.rng.Intn(9)) * topo.Mbps}
		}
		classify := ByPredicate
		if pg.rng.Intn(2) == 0 {
			classify = ByDestination
		}
		base := Plan{ID: id, Predicate: pg.predicate(), Priority: pg.rng.Intn(n + 2), Alloc: alloc, Classify: classify}
		switch k := pg.rng.Intn(7); {
		case k <= 1: // guaranteed paths, interleaved by priority
			for j := 0; j < 3; j++ {
				src, dst := hosts[pg.rng.Intn(len(hosts))], hosts[pg.rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				steps := pg.guaranteed(src, dst)
				if steps == nil {
					continue
				}
				p := base
				p.ID = fmt.Sprintf("%s.%d", id, j)
				p.Alloc = policy.Alloc{Min: pg.rate(), Max: math.Inf(1)}
				p.SrcHost, p.DstHost, p.Path = src, dst, steps
				plans = append(plans, p)
			}
		default: // best effort over shared sink trees
			expr := exprs[pg.rng.Intn(len(exprs))]
			srcs := pg.pick(hosts)
			for _, dst := range pg.pick(hosts) {
				tr := pg.tree(expr, dst)
				if tr == nil {
					continue
				}
				for _, src := range srcs {
					if src == dst || !tr.Reaches(src) {
						continue
					}
					p := base
					p.SrcHost, p.DstHost, p.Tree = src, dst, tr
					plans = append(plans, p)
				}
			}
		}
	}
	return plans
}

// withMiddleboxes attaches two middleboxes to randomly drawn switches
// and returns the placement of dpi and nat on them.
func withMiddleboxes(tp *topo.Topology, rng *rand.Rand) map[string][]string {
	sw := tp.Switches()
	m0, m1 := tp.AddMiddlebox("m0"), tp.AddMiddlebox("m1")
	tp.AddLink(m0, sw[rng.Intn(len(sw))], topo.Gbps)
	tp.AddLink(m1, sw[rng.Intn(len(sw))], topo.Gbps)
	return map[string][]string{"dpi": {"m0", "m1"}, "nat": {"m1"}}
}

func checkLowerMatchesReference(t *testing.T, name string, tp *topo.Topology, plans []Plan) {
	t.Helper()
	want, werr := referenceLower(tp, plans)
	got, gerr := Lower(tp, plans)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: Lower error %v, per-source lowering %v", name, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Lower over %d plans differs from per-source lowering: %d vs %d rules, tags %v vs %v",
			name, len(plans), len(got.Rules), len(want.Rules), got.Tags, want.Tags)
	}
}

// TestLowerMatchesPerSourceLowering holds Lower's tree cut-off to the
// per-source lowering it replaced: random plan lists over fat trees and
// zoo topologies — tag-free expressions over one and several automaton
// states, trees shared by statements classified by predicate and by
// destination, guaranteed paths interleaved by priority, function
// waypoints and caps — lower to deeply equal Programs.
func TestLowerMatchesPerSourceLowering(t *testing.T) {
	for seed := 1; seed <= randomSeeds(); seed++ {
		if pg := randomPlanGen(t, seed); pg != nil {
			checkLowerMatchesReference(t, fmt.Sprintf("seed %d", seed), pg.tp, pg.plans())
		}
	}
}

// randomSeeds is the number of random plan lists a test draws.
func randomSeeds() int {
	if testing.Short() {
		return 12
	}
	return 40
}

// randomPlanGen draws the topology of one seed — a fat tree, a zoo
// topology, a ring or a Waxman graph, half of them with middleboxes — and
// returns its plan generator, nil when the topology has under two hosts.
func randomPlanGen(t *testing.T, seed int) *planGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	var tp *topo.Topology
	switch seed % 4 {
	case 0:
		tp = topo.FatTree(4, topo.Gbps)
	case 1:
		tp = zoo.Generate(rng.Intn(30), 1)
	case 2:
		tp = topo.Ring(5+rng.Intn(4), 1, topo.Gbps)
	default:
		tp = topo.Waxman(8+rng.Intn(6), 0.6, 0.4, int64(seed), topo.Gbps)
		for _, sw := range tp.Switches() {
			tp.AddLink(tp.AddHost("h"+tp.Node(sw).Name), sw, topo.Gbps)
		}
	}
	pg := &planGen{t: t, rng: rng, tp: tp, trees: map[string]map[topo.NodeID]*sinktree.Tree{}}
	if rng.Intn(2) == 0 {
		pg.place = withMiddleboxes(tp, rng)
	}
	if len(tp.Hosts()) < 2 {
		return nil
	}
	return pg
}

// TestReserveQueuesMatchesLowerAtNewRates: a guaranteed rate reaches no
// lowering pass but queue reservation, so re-running ReserveQueues at
// rates B over a Program lowered at rates A must give Lower's Program at
// rates B, and must leave the Program it read as it was (copy-on-write).
// It must report exactly the rules whose ops it changed, and every other
// rule must keep its op slice. Rates come from {5, 10, 10, 20} Mbps, so
// redraws both split and merge shared queues and renumber them.
func TestReserveQueuesMatchesLowerAtNewRates(t *testing.T) {
	moved, kept, shared := 0, 0, 0
	for seed := 1; seed <= randomSeeds(); seed++ {
		pg := randomPlanGen(t, seed)
		if pg == nil {
			continue
		}
		plans := pg.plans()
		progA, err := Lower(pg.tp, plans)
		if err != nil {
			continue // lowering errors do not depend on rates
		}
		before := cloneProgram(progA)
		plansB := slices.Clone(plans)
		rates := map[string]float64{}
		for i := range plansB {
			if plansB[i].Path != nil {
				plansB[i].Alloc.Min = pg.rate()
				rates[plansB[i].ID] = plansB[i].Alloc.Min
			}
		}
		want, err := Lower(pg.tp, plansB)
		if err != nil {
			t.Fatalf("seed %d: Lower at rates A succeeded, at rates B: %v", seed, err)
		}
		got, movedRules := ReserveQueues(progA, rates)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: queues re-reserved at rates B differ from Lower at rates B:\n got %v\nwant %v",
				seed, got.Queues, want.Queues)
		}
		var differ []int
		for i := range got.Rules {
			if !slices.Equal(got.Rules[i].Ops, progA.Rules[i].Ops) {
				differ = append(differ, i)
			} else if len(got.Rules[i].Ops) > 0 && &got.Rules[i].Ops[0] != &progA.Rules[i].Ops[0] {
				t.Fatalf("seed %d: rule %d kept its ops but not their slice", seed, i)
			}
		}
		if !slices.Equal(movedRules, differ) {
			t.Fatalf("seed %d: ReserveQueues reports rules %v moved, the ops of %v differ", seed, movedRules, differ)
		}
		if !reflect.DeepEqual(progA, before) {
			t.Fatalf("seed %d: ReserveQueues wrote the Program it read", seed)
		}
		if got == progA {
			kept++
		} else {
			moved++
		}
		shared += sharedQueues(want)
	}
	if moved == 0 || kept == 0 || shared == 0 {
		t.Fatalf("%d redraws moved queues, %d kept them, %d queues were shared; want each > 0", moved, kept, shared)
	}
}

// sharedQueues counts the queues of p that rules of two or more
// statements forward through.
func sharedQueues(p *Program) int {
	type queue struct {
		port  topo.LinkID
		queue int
	}
	stmts := map[queue]map[string]bool{}
	for _, r := range p.Rules {
		for _, op := range r.Ops {
			if op.Kind == OpForwardQueue {
				q := queue{op.Port, op.Queue}
				if stmts[q] == nil {
					stmts[q] = map[string]bool{}
				}
				stmts[q][r.Stmt] = true
			}
		}
	}
	n := 0
	for _, s := range stmts {
		if len(s) > 1 {
			n++
		}
	}
	return n
}

// cloneProgram deep-copies every section of p a pass could write.
func cloneProgram(p *Program) *Program {
	c := *p
	c.Rules = slices.Clone(p.Rules)
	for i := range c.Rules {
		c.Rules[i].Ops = slices.Clone(c.Rules[i].Ops)
	}
	c.Queues = slices.Clone(p.Queues)
	c.Caps = slices.Clone(p.Caps)
	c.Fns = slices.Clone(p.Fns)
	c.HostFns = slices.Clone(p.HostFns)
	c.Tags = maps.Clone(p.Tags)
	for id, tags := range c.Tags {
		c.Tags[id] = slices.Clone(tags)
	}
	return &c
}

// TestLowerCutOffStopsAfterRetag forces retags on a tag-free tree, as
// TestRetagRevisitingTreeIngress does on a waypoint one: the location
// waypoints of ".* m1 .* m0 .*" make the paths from x's hosts leave y on
// the in-port that ends the paths from y's hosts, toward another next
// hop. Whatever the source order and classification, Lower must match the
// per-source lowering, retags and retag failures included.
func TestLowerCutOffStopsAfterRetag(t *testing.T) {
	tp := topo.New()
	x, y := tp.AddSwitch("x"), tp.AddSwitch("y")
	ha, hb, h2 := tp.AddHost("ha"), tp.AddHost("hb"), tp.AddHost("h2")
	hc, hd := tp.AddHost("hc"), tp.AddHost("hd")
	m1, m0 := tp.AddMiddlebox("m1"), tp.AddMiddlebox("m0")
	tp.AddLink(ha, x, topo.Gbps)
	tp.AddLink(x, y, topo.Gbps)
	tp.AddLink(y, h2, topo.Gbps)
	tp.AddLink(hb, y, topo.Gbps)
	tp.AddLink(y, m1, topo.Gbps)
	tp.AddLink(x, m0, topo.Gbps)
	tp.AddLink(hc, x, topo.Gbps)
	tp.AddLink(hd, y, topo.Gbps)
	tree, err := sinktree.TreeTo(graphFor(t, tp, ".* m1 .* m0 .*", nil), h2)
	if err != nil {
		t.Fatal(err)
	}
	di, _ := tp.Identities().Of(h2)
	toH2 := pred.Test{Field: "eth.dst", Value: di.MAC}
	retagged := 0
	for _, order := range [][]topo.NodeID{
		{hb, ha, hd}, {hd, hb, ha}, {hb, ha, hd, hc}, {hb, hc, ha, hd}, {hd, ha, hb, hc},
	} {
		for _, classify := range []Classify{ByPredicate, ByDestination} {
			var plans []Plan
			for _, src := range order {
				plans = append(plans, Plan{
					ID: "c", Predicate: toH2, Priority: 10, Classify: classify,
					Alloc: policy.Unconstrained, SrcHost: src, DstHost: h2, Tree: tree,
				})
			}
			checkLowerMatchesReference(t, fmt.Sprintf("order %v", order), tp, plans)
			if prog, err := Lower(tp, plans); err == nil && len(prog.Tags["c"]) > len(order) {
				retagged++
			}
		}
	}
	if retagged < 4 {
		t.Fatalf("%d lowerings retagged, want at least 4", retagged)
	}
}

// TestLowerAllocatesPerRule lowers all-pairs ".*" on a k=8 fat tree, one
// statement classified by destination as the compiler plans it: 16,256
// plans over 128 sink trees. Walking each source's full path allocated
// for every hop (93,370 allocations); with the tree cut-off and ops
// allocated only for appended rules, allocations stay under two per rule.
func TestLowerAllocatesPerRule(t *testing.T) {
	tp := topo.FatTree(8, topo.Gbps)
	hosts := tp.Hosts()
	trees, _, err := sinktree.BuildTrees(graphFor(t, tp, ".*", nil), hosts, false)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]Plan, 0, len(hosts)*(len(hosts)-1))
	for _, dst := range hosts {
		for _, src := range hosts {
			if src != dst {
				plans = append(plans, Plan{
					ID: "all", Predicate: pred.TruePred{}, Priority: 1, Alloc: policy.Unconstrained,
					Classify: ByDestination, SrcHost: src, DstHost: dst, Tree: trees[dst],
				})
			}
		}
	}
	var prog *Program
	allocs := testing.AllocsPerRun(2, func() {
		if prog, err = Lower(tp, plans); err != nil {
			t.Fatal(err)
		}
	})
	if len(plans) != 16256 || len(prog.Rules) != 9216 {
		t.Fatalf("%d plans lowered to %d rules, want 16256 and 9216", len(plans), len(prog.Rules))
	}
	if limit := 2 * float64(len(prog.Rules)); allocs > limit {
		t.Fatalf("Lower allocates %.0f times for %d rules, want at most %.0f", allocs, len(prog.Rules), limit)
	}
}
