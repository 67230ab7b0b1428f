package provision

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/lp"
	"merlin/internal/mip"
	"merlin/internal/regex"
	"merlin/internal/topo"
)

// The differential fuzz harness: a seeded, deterministic generator of
// random topologies (fat trees, rings, grid meshes, stars, Waxman random
// graphs — the Topology Zoo families — plus tight-capacity rings) and
// random request sets, asserting
// that the sharded and monolithic provision.Solve agree on feasibility,
// objective, and per-link allocations. Failures log the case's seed, so
// any divergence replays exactly with genCase(seed).
//
// The comparison is per heuristic, matching what decomposition provably
// preserves:
//   - WeightedShortestPath: the objective is a sum over requests, so the
//     sharded total must equal the monolithic total to 1e-6; the
//     tie-break perturbations in buildModel make the optimum generically
//     unique, so per-link allocations must also match to 1e-6 except
//     when two routes' perturbation sums collide below the solver's
//     tolerances (~1% of cases empirically, bounded at 5%).
//   - MinMaxRatio / MinMaxReserved: the objective is a max over links,
//     which link-disjointness reduces to the bottleneck shard; RMax and
//     RMaxBits must agree to 1e-6 (relative). Below the bottleneck the
//     two formulations legitimately differ — a non-bottleneck shard
//     minimizes its own local maximum, which the monolithic objective
//     ignores — so per-link divergence is allowed there, bounded at 10%
//     and always re-checked for validity and objective equality.
// Counting both divergence classes keeps the harness sharp: a sharder
// that merges, drops, or double-books reservations diverges on most
// cases and trips the bounds long before the objective check could miss
// it.

// diffCase is one generated instance.
type diffCase struct {
	name string
	t    *topo.Topology
	reqs []Request
	h    Heuristic
}

// hostsOf lists host node names of a topology.
func hostsOf(t *topo.Topology) []string {
	hs := t.Hosts()
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = t.Node(h).Name
	}
	return out
}

// groupNames returns the node names (switches + their hosts) of a switch
// index range in a topology whose switch i is named sw(i) and host h(i).
func ringGroup(lo, hi int) []string {
	var names []string
	for i := lo; i < hi; i++ {
		names = append(names, switchName(i), hostName(i))
	}
	return names
}

// genCase deterministically builds the instance for a seed.
func genCase(tb testing.TB, seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	h := Heuristic(rng.Intn(3))
	family := rng.Intn(6)
	var (
		tp   *topo.Topology
		reqs []Request
		name string
	)
	switch family {
	case 0:
		name = "fattree"
		tp, reqs = genFatTree(tb, rng)
	case 1:
		name = "ring"
		tp, reqs = genRing(tb, rng)
	case 2:
		name = "grid"
		tp, reqs = genGrid(tb, rng)
	case 3:
		name = "star"
		tp, reqs = genStar(tb, rng)
	case 4:
		// Only a separable objective relaxes to shortest paths, so this
		// family, built to make them overflow, runs WSP alone.
		name = "tight"
		h = WeightedShortestPath
		tp, reqs = genTight(tb, rng)
	default:
		name = "waxman"
		tp, reqs = genWaxman(tb, rng, seed)
	}
	return diffCase{name: name, t: tp, reqs: reqs, h: h}
}

// rate draws a guarantee: zero sometimes (a pure path constraint), else
// 10–40 MB/s against 100 MB/s links so capacity occasionally binds.
func drawRate(rng *rand.Rand) float64 {
	if rng.Intn(5) == 0 {
		return 0
	}
	return float64(10+10*rng.Intn(4)) * topo.MBps
}

// restrictedReq builds a request confined to names; `.*` when names nil.
func restrictedReq(tb testing.TB, tp *topo.Topology, alpha *regex.Alphabet, id string, names []string, src, dst string, rate float64) Request {
	tb.Helper()
	var expr regex.Expr = regex.Star{X: regex.Any{}}
	if names != nil {
		expr = arcExpr(names)
	}
	g, err := logical.BuildAnchored(tp, expr, alpha, src, dst)
	if err != nil {
		tb.Fatalf("%s: %v", id, err)
	}
	return Request{ID: id, Graph: g, MinRate: rate}
}

// genFatTree builds a k=4 fat tree with tenants per pod. Some requests
// are confined to their pod (link-disjoint across pods); occasionally a
// free `.*` request couples everything — the fallback path.
func genFatTree(tb testing.TB, rng *rand.Rand) (*topo.Topology, []Request) {
	tp := topo.FatTree(4, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	pod := func(p int) []string {
		names := []string{}
		for i := 0; i < 2; i++ {
			names = append(names, fmt.Sprintf("agg%d_%d", p, i), fmt.Sprintf("edge%d_%d", p, i))
			for h := 0; h < 2; h++ {
				names = append(names, fmt.Sprintf("h%d_%d_%d", p, i, h))
			}
		}
		return names
	}
	n := 3 + rng.Intn(4)
	var reqs []Request
	for i := 0; i < n; i++ {
		p := rng.Intn(4)
		hostsInPod := []string{}
		for e := 0; e < 2; e++ {
			for h := 0; h < 2; h++ {
				hostsInPod = append(hostsInPod, fmt.Sprintf("h%d_%d_%d", p, e, h))
			}
		}
		src := hostsInPod[rng.Intn(len(hostsInPod))]
		dst := hostsInPod[rng.Intn(len(hostsInPod))]
		for dst == src {
			dst = hostsInPod[rng.Intn(len(hostsInPod))]
		}
		names := pod(p)
		if rng.Intn(6) == 0 {
			names = nil // free-roaming request: couples pods via the core
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i), names, src, dst, drawRate(rng)))
	}
	return tp, reqs
}

// genRing splits a ring into two or three contiguous arcs (tenants).
func genRing(tb testing.TB, rng *rand.Rand) (*topo.Topology, []Request) {
	n := 8 + 2*rng.Intn(4) // 8..14 switches
	tp := topo.Ring(n, 1, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	arcs := [][2]int{{0, n / 2}, {n / 2, n}}
	if rng.Intn(2) == 0 && n >= 9 {
		third := n / 3
		arcs = [][2]int{{0, third}, {third, 2 * third}, {2 * third, n}}
	}
	cnt := 2 + rng.Intn(5)
	var reqs []Request
	for i := 0; i < cnt; i++ {
		a := arcs[rng.Intn(len(arcs))]
		lo, hi := a[0], a[1]
		si := lo + rng.Intn(hi-lo)
		di := lo + rng.Intn(hi-lo)
		for di == si {
			di = lo + rng.Intn(hi-lo)
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i),
			ringGroup(lo, hi), hostName(si), hostName(di), drawRate(rng)))
	}
	return tp, reqs
}

// genGrid builds a rows×cols grid mesh with a host per switch; tenants
// are confined to row bands.
func genGrid(tb testing.TB, rng *rand.Rand) (*topo.Topology, []Request) {
	rows, cols := 4, 3+rng.Intn(3)
	tp := topo.New()
	sw := make([][]topo.NodeID, rows)
	for r := 0; r < rows; r++ {
		sw[r] = make([]topo.NodeID, cols)
		for c := 0; c < cols; c++ {
			sw[r][c] = tp.AddSwitch(fmt.Sprintf("g%d_%d", r, c))
			host := tp.AddHost(fmt.Sprintf("gh%d_%d", r, c))
			tp.AddLink(sw[r][c], host, 100*topo.MBps)
			if c > 0 {
				tp.AddLink(sw[r][c-1], sw[r][c], 100*topo.MBps)
			}
			if r > 0 {
				tp.AddLink(sw[r-1][c], sw[r][c], 100*topo.MBps)
			}
		}
	}
	band := func(lo, hi int) []string {
		var names []string
		for r := lo; r < hi; r++ {
			for c := 0; c < cols; c++ {
				names = append(names, fmt.Sprintf("g%d_%d", r, c), fmt.Sprintf("gh%d_%d", r, c))
			}
		}
		return names
	}
	alpha := logical.Alphabet(tp)
	bands := [][2]int{{0, 2}, {2, 4}}
	cnt := 2 + rng.Intn(4)
	var reqs []Request
	for i := 0; i < cnt; i++ {
		b := bands[rng.Intn(len(bands))]
		pick := func() [2]int { return [2]int{b[0] + rng.Intn(b[1]-b[0]), rng.Intn(cols)} }
		s, d := pick(), pick()
		for d == s {
			d = pick()
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i),
			band(b[0], b[1]), fmt.Sprintf("gh%d_%d", s[0], s[1]), fmt.Sprintf("gh%d_%d", d[0], d[1]), drawRate(rng)))
	}
	return tp, reqs
}

// genStar builds a hub-and-spoke network: every path crosses the hub, so
// rated requests always couple into one shard — the fallback path, plus
// zero-rate singletons.
func genStar(tb testing.TB, rng *rand.Rand) (*topo.Topology, []Request) {
	tp := topo.Star(4+rng.Intn(4), 1, 100*topo.MBps)
	alpha := logical.Alphabet(tp)
	hosts := hostsOf(tp)
	cnt := 2 + rng.Intn(4)
	var reqs []Request
	for i := 0; i < cnt; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i), nil, src, dst, drawRate(rng)))
	}
	return tp, reqs
}

// genTight builds a ring whose switch links carry 40 MB/s against 20 or
// 30 MB/s guarantees between random hosts: two requests whose cheapest
// paths share a ring link often overflow it, so the relaxed routes fail
// verification and the solve must detour one of them the other way round
// (or prove that no detour fits).
func genTight(tb testing.TB, rng *rand.Rand) (*topo.Topology, []Request) {
	n := 4 + rng.Intn(4)
	tp := topo.New()
	sw := make([]topo.NodeID, n)
	for i := range sw {
		sw[i] = tp.AddSwitch(switchName(i))
		tp.AddLink(sw[i], tp.AddHost(hostName(i)), 100*topo.MBps)
	}
	for i := range sw {
		tp.AddLink(sw[i], sw[(i+1)%n], 40*topo.MBps)
	}
	alpha := logical.Alphabet(tp)
	cnt := 2 + rng.Intn(2)
	var reqs []Request
	for i := 0; i < cnt; i++ {
		si, di := rng.Intn(n), rng.Intn(n)
		for di == si {
			di = rng.Intn(n)
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i), nil, hostName(si), hostName(di), float64(20+10*rng.Intn(2))*topo.MBps))
	}
	return tp, reqs
}

// genWaxman builds a random operator-style mesh with hosts on every
// switch and unconstrained paths.
func genWaxman(tb testing.TB, rng *rand.Rand, seed int64) (*topo.Topology, []Request) {
	n := 8 + rng.Intn(8)
	tp := topo.Waxman(n, 0.4, 0.25, seed, 100*topo.MBps)
	for i, sw := range tp.Switches() {
		host := tp.AddHost(fmt.Sprintf("wh%d", i))
		tp.AddLink(sw, host, 100*topo.MBps)
	}
	alpha := logical.Alphabet(tp)
	hosts := hostsOf(tp)
	cnt := 2 + rng.Intn(4)
	var reqs []Request
	for i := 0; i < cnt; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		reqs = append(reqs, restrictedReq(tb, tp, alpha, fmt.Sprintf("r%d", i), nil, src, dst, drawRate(rng)))
	}
	return tp, reqs
}

// wspObjective recomputes the weighted-shortest-path objective from a
// decoded result: Σ_i (rate_i/rateUnit + eps) · hops_i, exactly the MIP's
// cost over the chosen link edges.
func wspObjective(res *Result, reqs []Request, eps float64) float64 {
	obj := 0.0
	for _, r := range reqs {
		hops := len(logical.Locations(res.Paths[r.ID])) - 1
		obj += (r.MinRate/rateUnit + eps) * float64(hops)
	}
	return obj
}

// objectiveOf evaluates the heuristic's decisive scalar on a result.
func objectiveOf(h Heuristic, res *Result, reqs []Request) float64 {
	switch h {
	case MinMaxRatio:
		return res.RMax
	case MinMaxReserved:
		return res.RMaxBits
	default:
		return wspObjective(res, reqs, 1e-4)
	}
}

// closeTo compares with 1e-6 tolerance, relative for large magnitudes
// (RMaxBits is in bits/s).
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameAllocations reports whether two results reserve the same bandwidth
// on every link to 1e-6.
func sameAllocations(a, b *Result) bool {
	links := map[topo.LinkID]bool{}
	for l := range a.Reserved {
		links[l] = true
	}
	for l := range b.Reserved {
		links[l] = true
	}
	for l := range links {
		if !closeTo(a.Reserved[l], b.Reserved[l]) {
			return false
		}
	}
	return true
}

// solveLegacy is the harness's reference engine: each shard of Partition
// solved, with no fast path, as the paper-literal MIP of §3.2 — one
// reservation variable r_uv per cable coupled by three rows materializing
// eqs. 2–4, and eq. 5 as the [0,1] bounds of r_uv and rmax. It shares only
// the objective coefficients with buildModel's compact encoding, which
// folds those rows into implicit variable bounds.
func solveLegacy(t *topo.Topology, reqs []Request, h Heuristic) (*Result, error) {
	res := &Result{Paths: map[string][]logical.Step{}, Reserved: map[topo.LinkID]float64{}}
	for _, comp := range Partition(t, reqs) {
		sub := make([]Request, len(comp))
		for k, i := range comp {
			sub[k] = reqs[i]
		}
		model, xvars := legacyModel(t, sub, h)
		sol := model.Solve(mip.Params{})
		if sol.Status != mip.Optimal {
			return nil, fmt.Errorf("legacy solve: %v", sol.Status)
		}
		for k, r := range sub {
			steps, err := r.Graph.ExtractPath(func(e int) bool { return sol.X[xvars[k][e]] > 0.5 })
			if err != nil {
				return nil, fmt.Errorf("decoding %s: %w", r.ID, err)
			}
			res.Paths[r.ID] = steps
			addReservations(t, res.Reserved, steps, r.MinRate)
		}
	}
	res.RMax, res.RMaxBits = reservedStats(t, res.Reserved)
	return res, nil
}

// legacyModel builds the paper-literal MIP over reqs, returning it with
// the per-request edge-variable indices.
func legacyModel(t *topo.Topology, reqs []Request, h Heuristic) (*mip.Model, [][]int) {
	model := mip.NewModel()
	xvars := make([][]int, len(reqs))
	for i, r := range reqs {
		xvars[i] = make([]int, len(r.Graph.Edges))
		for e := range r.Graph.Edges {
			xvars[i][e] = model.AddBinVar(0, "x")
		}
	}
	// eq. 1: flow conservation per product vertex with incident edges.
	for i, r := range reqs {
		g := r.Graph
		for v := 0; v < g.NumVerts; v++ {
			var terms []lp.Term
			for _, e := range g.Out[v] {
				terms = append(terms, lp.Term{Var: xvars[i][e], Coeff: 1})
			}
			for _, e := range g.In[v] {
				terms = append(terms, lp.Term{Var: xvars[i][e], Coeff: -1})
			}
			if len(terms) == 0 {
				continue
			}
			rhs := 0.0
			switch v {
			case g.Source:
				rhs = 1
			case g.Sink:
				rhs = -1
			}
			model.AddConstraint(terms, lp.EQ, rhs, "flow")
		}
	}
	loads := map[topo.LinkID][]lp.Term{}
	for i, r := range reqs {
		if r.MinRate == 0 {
			continue
		}
		for e, ed := range r.Graph.Edges {
			if ed.Link >= 0 {
				c := t.Cable(ed.Link)
				loads[c] = append(loads[c], lp.Term{Var: xvars[i][e], Coeff: r.MinRate / rateUnit})
			}
		}
	}
	cables := make([]topo.LinkID, 0, len(loads))
	for c := range loads {
		cables = append(cables, c)
	}
	sort.Slice(cables, func(i, j int) bool { return cables[i] < cables[j] })
	rmax := model.Model.AddVar(0, 1, 0, "rmax")
	rmaxBits := model.Model.AddVar(0, math.Inf(1), 0, "Rmax")
	for _, c := range cables {
		capU := t.Link(c).Capacity / rateUnit
		ruv := model.Model.AddVar(0, 1, 0, "r")
		// eq. 2: ruv * cuv = Σ rmin_i x_e.
		model.AddConstraint(append([]lp.Term{{Var: ruv, Coeff: capU}}, negate(loads[c])...), lp.EQ, 0, "reserve")
		// eq. 3: rmax >= ruv.
		model.AddConstraint([]lp.Term{{Var: rmax, Coeff: 1}, {Var: ruv, Coeff: -1}}, lp.GE, 0, "rmax")
		// eq. 4: Rmax >= ruv * cuv.
		model.AddConstraint([]lp.Term{{Var: rmaxBits, Coeff: 1}, {Var: ruv, Coeff: -capU}}, lp.GE, 0, "Rmax")
	}
	for i, r := range reqs {
		jitter := idJitter(r.ID)
		for e, ed := range r.Graph.Edges {
			if ed.Link >= 0 {
				model.SetCost(xvars[i][e], linkCost(h, r.MinRate, jitter, e))
			}
		}
	}
	switch h {
	case MinMaxRatio:
		model.SetCost(rmax, 1000)
	case MinMaxReserved:
		model.SetCost(rmaxBits, 1)
	}
	return model, xvars
}

// worstCaseFits is the test the fast path once required before it ran:
// every rated request on every product edge that can ride a cable at
// once, pooled by cable, within capacity.
func worstCaseFits(t *topo.Topology, s *ShardSolution) bool {
	load := map[topo.LinkID]float64{}
	for _, r := range s.Requests {
		for _, ed := range r.Graph.Edges {
			if ed.Link >= 0 {
				load[t.Cable(ed.Link)] += r.MinRate
			}
		}
	}
	for c, l := range load {
		if l > t.Link(c).Capacity+1e-9 {
			return false
		}
	}
	return true
}

// runDifferential executes n seeded cases starting at seed0 and fails on
// the first divergence, logging the seed. Besides sharded-vs-monolithic,
// every case cross-checks the solver engines against each other: the
// default stack (shortest-path fast path where it fires) against the
// general path with the fast path off, and the compact bounded-variable
// formulation against the paper-literal one (solveLegacy). All four must
// agree on feasibility and objective; allocations match modulo the same
// tie-break collision noise the sharded comparison tolerates. Under WSP
// the harness also counts the shards whose relaxed routes fit although
// the worst case of all their product edges would not (the fast path
// verifies routes, not the worst case), and the shards whose relaxed
// routes overflowed a cable and went on to the general path; it needs
// some of each.
func runDifferential(t *testing.T, seed0 int64, n int) {
	wspDiffs, minmaxDiffs, engineDiffs := 0, 0, 0
	shardedCases, netflowCases := 0, 0
	beyondWorstCase, wspFallbacks := 0, 0
	for i := 0; i < n; i++ {
		seed := seed0 + int64(i)
		c := genCase(t, seed)
		label := fmt.Sprintf("seed %d (%s, %v, %d reqs)", seed, c.name, c.h, len(c.reqs))

		sharded, errS := Solve(c.t, c.reqs, c.h, Params{Workers: 2})
		mono, errM := Solve(c.t, c.reqs, c.h, Params{NoShard: true})
		compact, errC := Solve(c.t, c.reqs, c.h, Params{NoNetflow: true})
		legacy, errL := solveLegacy(c.t, c.reqs, c.h)

		// Feasibility must agree across every configuration.
		if (errS == nil) != (errM == nil) {
			t.Fatalf("%s: feasibility diverges: sharded err=%v, monolithic err=%v", label, errS, errM)
		}
		if (errS == nil) != (errC == nil) || (errS == nil) != (errL == nil) {
			t.Fatalf("%s: feasibility diverges: default err=%v, compact err=%v, legacy err=%v",
				label, errS, errC, errL)
		}
		if errS != nil {
			continue
		}
		if len(sharded.Shards) > 1 {
			shardedCases++
		}
		if sharded.NetflowShards > 0 {
			netflowCases++
		}
		for _, s := range sharded.Shards {
			switch {
			case c.h != WeightedShortestPath:
			case !s.Netflow:
				wspFallbacks++
			case !worstCaseFits(c.t, s):
				beyondWorstCase++
			}
		}
		// Engine cross-checks: same objective to 1e-6, valid allocations,
		// and per-link agreement up to tie-break collisions.
		objD := objectiveOf(c.h, sharded, c.reqs)
		for which, res := range map[string]*Result{"compact": compact, "legacy": legacy} {
			if err := res.Validate(c.t); err != nil {
				t.Fatalf("%s: %s allocation invalid: %v", label, which, err)
			}
			if obj := objectiveOf(c.h, res, c.reqs); !closeTo(objD, obj) {
				t.Fatalf("%s: %s engine objective diverges: default %.9f, %s %.9f",
					label, which, objD, which, obj)
			}
			if !sameAllocations(sharded, res) {
				engineDiffs++
			}
		}
		// Every request decoded a path in both.
		for _, r := range c.reqs {
			if len(sharded.Paths[r.ID]) == 0 || len(mono.Paths[r.ID]) == 0 {
				t.Fatalf("%s: request %s lost its path (sharded %d steps, monolithic %d)",
					label, r.ID, len(sharded.Paths[r.ID]), len(mono.Paths[r.ID]))
			}
		}
		// Both allocations fit capacity.
		if err := sharded.Validate(c.t); err != nil {
			t.Fatalf("%s: sharded allocation invalid: %v", label, err)
		}
		if err := mono.Validate(c.t); err != nil {
			t.Fatalf("%s: monolithic allocation invalid: %v", label, err)
		}
		// Objective must agree to 1e-6.
		objS, objM := objectiveOf(c.h, sharded, c.reqs), objectiveOf(c.h, mono, c.reqs)
		if !closeTo(objS, objM) {
			t.Fatalf("%s: objective diverges: sharded %.9f, monolithic %.9f", label, objS, objM)
		}
		// Per-link allocations: strict (modulo rare perturbation
		// collisions) for the separable WSP objective; the min-max
		// objectives additionally allow below-bottleneck freedom. Both
		// divergence classes are already objective-equal and valid here.
		if !sameAllocations(sharded, mono) {
			if c.h == WeightedShortestPath {
				wspDiffs++
			} else {
				minmaxDiffs++
			}
		}
	}
	if shardedCases == 0 {
		t.Fatal("generator produced no multi-shard case; the harness is not exercising decomposition")
	}
	if netflowCases == 0 {
		t.Fatal("generator produced no netflow-solved case; the harness is not exercising the fast path")
	}
	if beyondWorstCase == 0 {
		t.Fatal("no WSP shard took the fast path beyond the worst-case load; the harness is not exercising verification")
	}
	if wspFallbacks == 0 {
		t.Fatal("no WSP shard overflowed a cable on its relaxed routes; the harness is not exercising the fallback")
	}
	if wspDiffs > n/20 {
		t.Fatalf("WSP per-link allocations diverged on %d/%d cases — beyond tie-break collision noise", wspDiffs, n)
	}
	if minmaxDiffs > n/10 {
		t.Fatalf("min-max per-link allocations diverged on %d/%d cases — beyond below-bottleneck freedom", minmaxDiffs, n)
	}
	if engineDiffs > n/10 {
		t.Fatalf("engine allocations diverged on %d/%d comparisons — beyond tie-break collision noise", engineDiffs, n)
	}
	t.Logf("differential: %d cases, %d multi-shard, %d netflow, %d WSP shards verified beyond the worst case, %d WSP fallbacks, %d wsp / %d min-max / %d engine allocation diffs",
		n, shardedCases, netflowCases, beyondWorstCase, wspFallbacks, wspDiffs, minmaxDiffs, engineDiffs)
}

// TestDifferentialShardedVsMonolithic is the acceptance harness: ≥200
// seeded cases across five topology families and all three heuristics.
// MERLIN_FUZZ_BUDGET multiplies the case budget (the nightly workflow
// runs with MERLIN_FUZZ_BUDGET=10 for a 2200-case soak); the seed range
// extends deterministically, so any divergence still replays by seed.
func TestDifferentialShardedVsMonolithic(t *testing.T) {
	n := 220
	if testing.Short() {
		n = 40
	}
	if s := os.Getenv("MERLIN_FUZZ_BUDGET"); s != "" {
		mult, err := strconv.Atoi(s)
		if err != nil || mult < 1 {
			t.Fatalf("bad MERLIN_FUZZ_BUDGET %q: want a positive integer multiplier", s)
		}
		n *= mult
	}
	runDifferential(t, 424200, n)
}
