// Package provision allocates bandwidth-guaranteed paths: it encodes the
// logical topology and the localized guarantees into the mixed-integer
// program of §3.2 (equations 1–5), solves it with the bundled
// branch-and-bound solver, and decodes the chosen paths and reservations.
// It also implements the greedy sequential allocator used as the ablation
// baseline (the approximation-algorithm family the paper cites as the
// alternative to mixed-integer programming).
package provision

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"merlin/internal/logical"
	"merlin/internal/lp"
	"merlin/internal/mip"
	"merlin/internal/topo"
)

// Heuristic selects among the three path-selection objectives of §3.2.
type Heuristic int

// Path-selection heuristics (Figure 3).
const (
	// WeightedShortestPath minimizes total hops weighted by guarantees —
	// the latency-oriented objective.
	WeightedShortestPath Heuristic = iota
	// MinMaxRatio minimizes the maximum fraction of any link's capacity
	// that is reserved — the load-balancing objective.
	MinMaxRatio
	// MinMaxReserved minimizes the maximum absolute bandwidth reserved on
	// any link — the failure-blast-radius objective.
	MinMaxReserved
)

func (h Heuristic) String() string {
	switch h {
	case WeightedShortestPath:
		return "weighted-shortest-path"
	case MinMaxRatio:
		return "min-max-ratio"
	case MinMaxReserved:
		return "min-max-reserved"
	default:
		return "heuristic"
	}
}

// Request is one statement needing a guaranteed path.
type Request struct {
	ID      string
	Graph   *logical.Graph
	MinRate float64 // guaranteed bits/s (r_min^i); may be 0 for pure path constraints
}

// Result reports the provisioning outcome. It records what it was solved
// from — its requests, and the capacity of every cable their graphs can
// ride — so a caller holding it can ask whether it still answers a later
// pass (Answers).
type Result struct {
	// Requests are the requests this result answers, in input order.
	Requests []Request
	// caps records the capacities the solve read (see ShardSolution).
	caps []cableCap
	// Paths maps request IDs to their decoded paths.
	Paths map[string][]logical.Step
	// Reserved is the guaranteed bits/s riding each directed link.
	Reserved map[topo.LinkID]float64
	// RMax is the maximum reserved fraction of any cable (the paper's
	// r_max), and RMaxBits the maximum absolute reservation (R_max).
	RMax     float64
	RMaxBits float64
	// ConstructTime and SolveTime split the Table 7 cost columns. For a
	// sharded solve they are summed across shards — the work performed,
	// which exceeds wall-clock when shards solve in parallel; time the
	// Solve call itself for wall-clock comparisons.
	ConstructTime time.Duration
	SolveTime     time.Duration
	// Nodes is the number of branch-and-bound nodes this call explored
	// (shard solutions served from Params.Reuse contribute nothing).
	Nodes int
	// Shards holds the per-shard solutions this solve produced (a single
	// entry for a monolithic solve). Feed them back through Params.Reuse
	// so a later Solve re-solves only the shards whose requests changed.
	Shards []*ShardSolution
	// ShardsSolved, ShardsWarm, and ShardsReused split the shards of this
	// call into cold solves, cheap re-solves of a previously solved shape
	// (warm-started from the cached basis, or re-run through the
	// shortest-path fast path), and solutions served from Params.Reuse
	// without a solve.
	ShardsSolved, ShardsWarm, ShardsReused int
	// NetflowShards counts the shards this call solved (cold or re-solved)
	// through the shortest-path fast path instead of the general MIP.
	NetflowShards int
}

// Params tune the solve.
type Params struct {
	// NoShard forces the monolithic solve even when the statement↔link
	// incidence decomposes into independent shards.
	NoShard bool
	// Workers bounds the worker pool independent shards solve over. Zero
	// means runtime.NumCPU(); 1 forces the sequential path. The merged
	// result is identical for every pool size.
	Workers int
	// Reuse offers the shard solutions of a previous Solve over the same
	// topology and heuristic (Result.Shards). A shard whose requests and
	// recorded capacities are equal now is served from it without a
	// solve; one with the same requests and product graphs but other
	// rates or capacities re-solves warm-started from the shard's cached
	// basis.
	Reuse []*ShardSolution
	// NoNetflow disables the shortest-path fast path: a separable shard
	// normally routes each request on its cheapest path first and keeps
	// those routes when they fit every cable (see solveOne). The flag
	// forces the general simplex + branch-and-bound path — the baseline the
	// solver bench and the differential tests compare against.
	NoNetflow bool
	// Budgets caps the weighted number of dataplane entries the chosen
	// paths may install on each listed switch — the ternary table-capacity
	// constraint of the backend API v2. Each request charges
	// EntryCost[id] (default 1) to every budgeted switch its path enters,
	// a conservative over-approximation (transit hops install one
	// forwarding entry, but the ingress hop installs the statement's full
	// classifier expansion, and which hop is ingress is the solver's
	// choice). Budget rows couple otherwise link-disjoint requests through
	// shared switches and change every cached model's shape, so a budgeted
	// Solve forces the monolithic general-MIP path: NoShard and NoNetflow
	// are implied, and Reuse is ignored.
	Budgets map[topo.NodeID]float64
	// EntryCost weighs each request in Budgets rows, by request ID; absent
	// IDs cost 1 per budgeted switch entered.
	EntryCost map[string]float64
}

// rateUnit scales bits/s into MIP-friendly magnitudes (Mbps).
const rateUnit = 1e6

// hopEpsilon is the tie-breaking cost per physical hop added to every
// objective so solutions avoid gratuitous cycles.
const hopEpsilon = 1e-4

// Solve provisions all requests on the topology using the given
// heuristic. Every request's graph must be built against t. The problem
// is first partitioned into link-disjoint shards (see Partition); each
// shard solves as an independent MIP over a worker pool and the per-shard
// optima merge into one Result. A fully-coupled problem — one shard — or
// Params.NoShard takes the monolithic path unchanged.
func Solve(t *topo.Topology, reqs []Request, h Heuristic, p Params) (*Result, error) {
	if len(p.Budgets) > 0 {
		// Budget rows couple requests through shared switches and change
		// the model shape: cached bases and shard solutions were built
		// without them and must not install.
		p.NoShard = true
		p.NoNetflow = true
		p.Reuse = nil
	}
	comps, cables := partition(t, reqs)
	if len(comps) == 0 {
		return &Result{
			Paths:    map[string][]logical.Step{},
			Reserved: map[topo.LinkID]float64{},
		}, nil
	}
	if p.NoShard {
		all := make([]int, len(reqs))
		for i := range all {
			all[i] = i
		}
		comps, cables = [][]int{all}, [][]topo.LinkID{slices.Concat(cables...)}
	}
	return solveComponents(t, reqs, comps, cables, h, p)
}

// Answers reports whether r still answers reqs on t: it was solved for
// exactly these requests (IDs, product graphs and rates, in order) and
// every capacity it read is the cable's capacity now. Connectivity needs
// no check of its own: a topology event that changes what a request can
// ride gives it a new product graph. A nil Result answers nothing.
func (r *Result) Answers(t *topo.Topology, reqs []Request) bool {
	return r != nil && slices.Equal(r.Requests, reqs) && capsHold(t, r.caps)
}

// builtModel is one constructed provisioning MIP plus the per-request
// edge-variable indices needed to decode its solution.
type builtModel struct {
	model *mip.Model
	xvars [][]int
}

// buildModel encodes the requests into the MIP of §3.2 (equations 1–5)
// under the given heuristic, plus, when p.Budgets is set, the v2
// table-budget rows. The encoding is compact: per-cable load couples to
// capacity through the simplex engine's implicit variable bounds instead
// of the paper's materialized reservation variables r_uv and their three
// rows per cable (eqs. 2–4). Both admit the same x assignments with
// identical objectives; the compact one shrinks every shard's basis. The
// paper-literal encoding lives on as the differential harness's reference.
func buildModel(t *topo.Topology, reqs []Request, h Heuristic, p Params) *builtModel {
	model := mip.NewModel()

	// Cable canonicalization is topo.Cable everywhere — Partition, the
	// capacities a shard records, and this model must agree, or two
	// shards could silently share a capacity the model never couples.
	cable := t.Cable
	// x variables per request edge.
	xvars := make([][]int, len(reqs))
	for i, r := range reqs {
		xvars[i] = make([]int, len(r.Graph.Edges))
		for e := range r.Graph.Edges {
			xvars[i][e] = model.AddBinVar(0, fmt.Sprintf("x_%s_%d", r.ID, e))
		}
	}
	// Flow conservation (eq. 1) per product vertex with incident edges.
	for i, r := range reqs {
		g := r.Graph
		for v := 0; v < g.NumVerts; v++ {
			outs, ins := g.Out[v], g.In[v]
			if len(outs) == 0 && len(ins) == 0 {
				continue
			}
			terms := make([]lp.Term, 0, len(outs)+len(ins))
			for _, e := range outs {
				terms = append(terms, lp.Term{Var: xvars[i][e], Coeff: 1})
			}
			for _, e := range ins {
				terms = append(terms, lp.Term{Var: xvars[i][e], Coeff: -1})
			}
			rhs := 0.0
			switch v {
			case g.Source:
				rhs = 1
			case g.Sink:
				rhs = -1
			}
			model.AddConstraint(terms, lp.EQ, rhs, fmt.Sprintf("flow_%s_%d", r.ID, v))
		}
	}
	// Per-cable load terms (eq. 2). Cables no guaranteed edge can ride are
	// skipped.
	cableTerms := map[topo.LinkID][]lp.Term{}
	for i, r := range reqs {
		if r.MinRate == 0 {
			continue
		}
		for e, ed := range r.Graph.Edges {
			if ed.Link < 0 {
				continue
			}
			c := cable(ed.Link)
			cableTerms[c] = append(cableTerms[c], lp.Term{Var: xvars[i][e], Coeff: r.MinRate / rateUnit})
		}
	}
	// Emit cable constraints in sorted order: map iteration order would
	// otherwise vary run to run, steering the simplex to different (if
	// equally optimal) vertices and making compiled output nondeterministic.
	cables := make([]topo.LinkID, 0, len(cableTerms))
	for c := range cableTerms {
		cables = append(cables, c)
	}
	sort.Slice(cables, func(i, j int) bool { return cables[i] < cables[j] })
	// Per-cable load L_c = Σ (rmin_i/unit) x_e substitutes r_uv·c_uv
	// everywhere it appears, so each cable costs one row (two for
	// MinMaxReserved, which needs capacity and the objective coupling
	// separately) and no extra column. Only the variable the active
	// objective minimizes exists; capacity under MinMaxRatio rides on
	// rmax's upper bound of 1 (eq. 5), handled implicitly by the simplex.
	rmax, rmaxBits := -1, -1
	if h == MinMaxRatio {
		rmax = model.Model.AddVar(0, 1, 0, "rmax")
	}
	if h == MinMaxReserved {
		rmaxBits = model.Model.AddVar(0, math.Inf(1), 0, "Rmax")
	}
	for _, c := range cables {
		terms := cableTerms[c]
		capU := t.Link(c).Capacity / rateUnit
		switch h {
		case MinMaxRatio:
			// eqs. 3+5: rmax * cuv >= L_c, rmax <= 1.
			ge := append([]lp.Term{{Var: rmax, Coeff: capU}}, negate(terms)...)
			model.AddConstraint(ge, lp.GE, 0, fmt.Sprintf("rmax_%d", c))
		case MinMaxReserved:
			// eq. 5: L_c <= cuv, and eq. 4: Rmax >= L_c.
			model.AddConstraint(terms, lp.LE, capU, fmt.Sprintf("cap_%d", c))
			ge := append([]lp.Term{{Var: rmaxBits, Coeff: 1}}, negate(terms)...)
			model.AddConstraint(ge, lp.GE, 0, fmt.Sprintf("Rmax_%d", c))
		default: // WeightedShortestPath
			// eq. 5 alone: L_c <= cuv.
			model.AddConstraint(terms, lp.LE, capU, fmt.Sprintf("cap_%d", c))
		}
	}
	// Table-budget rows: for each budgeted switch v, the weighted entry
	// load Σ_i w_i · Σ_{e entering v over a physical link} x_{i,e} must
	// stay within the budget. The consuming switch of an edge is its
	// link's head (the node that installs the forwarding/classifier entry
	// for packets arriving over that link). Rows are emitted in sorted
	// node order for determinism, matching the cable rows above.
	if len(p.Budgets) > 0 {
		budgeted := make([]topo.NodeID, 0, len(p.Budgets))
		for v := range p.Budgets {
			budgeted = append(budgeted, v)
		}
		sort.Slice(budgeted, func(i, j int) bool { return budgeted[i] < budgeted[j] })
		for _, v := range budgeted {
			var terms []lp.Term
			for i, r := range reqs {
				w := 1.0
				if c, ok := p.EntryCost[r.ID]; ok {
					w = c
				}
				for e, ed := range r.Graph.Edges {
					if ed.Link >= 0 && t.Link(ed.Link).Dst == v {
						terms = append(terms, lp.Term{Var: xvars[i][e], Coeff: w})
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			model.AddConstraint(terms, lp.LE, p.Budgets[v], fmt.Sprintf("budget_%d", v))
		}
	}
	// Objective. Each edge's hop cost carries a deterministic tie-breaking
	// perturbation derived only from the request ID and the edge's index
	// in its own product graph, so it is identical whether the request is
	// modeled inside the monolithic MIP or its shard's. Under the
	// separable WeightedShortestPath objective that makes the optimum
	// generically unique, so sharded and monolithic solves choose the
	// same vertex and the differential harness can compare allocations
	// link by link. (The min-max objectives retain a documented freedom:
	// a non-bottleneck shard minimizes its own local maximum, which the
	// monolithic objective ignores, so below-bottleneck routing may
	// legitimately differ.) The perturbation is bounded by hopEpsilon/100 per
	// edge, so it can never outweigh a hop: path choice is unchanged
	// except among paths the unperturbed objective cannot tell apart.
	for i, r := range reqs {
		jitter := idJitter(r.ID)
		for e, ed := range r.Graph.Edges {
			if ed.Link < 0 {
				continue
			}
			model.SetCost(xvars[i][e], linkCost(h, r.MinRate, jitter, e))
		}
	}
	switch h {
	case MinMaxRatio:
		model.SetCost(rmax, 1000) // dominates the epsilon hop costs
	case MinMaxReserved:
		model.SetCost(rmaxBits, 1)
	}
	return &builtModel{model: model, xvars: xvars}
}

// linkCost is the objective coefficient of a request's product edge e
// that rides a physical link: the perturbed hop epsilon, plus the
// guarantee's rate under WeightedShortestPath. Edges off the physical
// links (self, source and sink edges) cost nothing.
func linkCost(h Heuristic, rate, jitter float64, e int) float64 {
	cost := hopEpsilon * (1 + tieBreak(jitter, e))
	if h == WeightedShortestPath {
		cost += rate / rateUnit
	}
	return cost
}

// idJitter hashes a request ID into [0, 1) (FNV-1a), seeding that
// request's tie-breaking perturbations. Distinct requests sharing one
// product graph get distinct perturbations, breaking swap symmetries.
func idJitter(id string) float64 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return float64(h) / float64(1<<32)
}

// tieBreak maps (request jitter, edge index) to [0, 1e-2): a low-
// discrepancy sequence keyed by the golden ratio, cheap and distinct per
// edge. It is linear in the edge index modulo 1, so two paths whose link
// edges' indices sum alike can still tie exactly (one does on a zoo-54
// tenants scenario); the solver's own order then decides. The band is
// sized so per-path sums stay below one hop's cost for paths under a
// hundred edges (keeping hop counts exact). It does not keep path-choice
// differences above the simplex engines' 1e-9 tolerances: distinct paths
// of corpus chains scenarios differ by as little as 1.19e-9 and 4.74e-9,
// where a tolerance-bound solver may stop at either. The shortest-path
// fast path compares exact path sums and always takes the cheaper.
func tieBreak(jitter float64, e int) float64 {
	const phi = 0.6180339887498949
	x := jitter + float64(e+1)*phi
	return 1e-2 * (x - math.Floor(x))
}

func negate(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	for i, t := range ts {
		out[i] = lp.Term{Var: t.Var, Coeff: -t.Coeff}
	}
	return out
}

// addReservations walks a decoded path and accumulates the guarantee onto
// each directed physical link it crosses.
func addReservations(t *topo.Topology, reserved map[topo.LinkID]float64, steps []logical.Step, rate float64) {
	if rate == 0 {
		return
	}
	locs := logical.Locations(steps)
	for i := 1; i < len(locs); i++ {
		l, ok := t.FindLink(locs[i-1], locs[i])
		if !ok {
			continue
		}
		reserved[l.ID] += rate
	}
}

// cableLoads pools per-link reservations by cable: both directions share
// one capacity, as in eq. 2.
func cableLoads(t *topo.Topology, reserved map[topo.LinkID]float64) map[topo.LinkID]float64 {
	loads := map[topo.LinkID]float64{}
	for lid, bits := range reserved {
		loads[t.Cable(lid)] += bits
	}
	return loads
}

// reservedStats computes the paper's r_max (max cable fraction) and R_max
// (max cable bits/s).
func reservedStats(t *topo.Topology, reserved map[topo.LinkID]float64) (rmax, rmaxBits float64) {
	for c, bits := range cableLoads(t, reserved) {
		if bits > rmaxBits {
			rmaxBits = bits
		}
		if f := bits / t.Link(c).Capacity; f > rmax {
			rmax = f
		}
	}
	return rmax, rmaxBits
}

// Validate checks that no cable is reserved beyond capacity (eq. 5 in
// decoded form). It returns the first violation found.
func (r *Result) Validate(t *topo.Topology) error {
	rmax, _ := reservedStats(t, r.Reserved)
	if rmax > 1+1e-6 {
		return fmt.Errorf("provision: reservations exceed capacity (rmax = %.3f)", rmax)
	}
	return nil
}

// Greedy is the sequential baseline allocator: requests are served
// largest-guarantee-first along the shortest satisfying path whose links
// still have headroom. It is fast but can strand capacity and fail on
// instances the MIP solves (the classic integrality-versus-greedy gap).
func Greedy(t *topo.Topology, reqs []Request) (*Result, error) {
	start := time.Now()
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	// Largest guarantee first.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && reqs[order[j]].MinRate > reqs[order[j-1]].MinRate; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	_, cables := partition(t, reqs)
	res := &Result{
		Requests: slices.Clone(reqs),
		caps:     capsOf(t, slices.Concat(cables...)),
		Paths:    make(map[string][]logical.Step, len(reqs)),
		Reserved: map[topo.LinkID]float64{},
	}
	cableUsed := map[topo.LinkID]float64{}
	cable := t.Cable
	for _, i := range order {
		r := reqs[i]
		// Fewest physical hops over cables with headroom for the request.
		cost := make([]float64, len(r.Graph.Edges))
		for eid, e := range r.Graph.Edges {
			if e.Link < 0 {
				continue
			}
			cost[eid] = 1
			if c := cable(e.Link); r.MinRate > 0 && cableUsed[c]+r.MinRate > t.Link(c).Capacity+1e-9 {
				cost[eid] = math.Inf(1)
			}
		}
		ids := r.Graph.CheapestPath(cost)
		if ids == nil {
			return nil, fmt.Errorf("provision: greedy failed to place %s", r.ID)
		}
		steps, err := r.Graph.DecodePath(ids)
		if err != nil {
			return nil, err
		}
		res.Paths[r.ID] = steps
		addReservations(t, res.Reserved, steps, r.MinRate)
		locs := logical.Locations(steps)
		for k := 1; k < len(locs); k++ {
			if l, ok := t.FindLink(locs[k-1], locs[k]); ok {
				cableUsed[cable(l.ID)] += r.MinRate
			}
		}
	}
	res.RMax, res.RMaxBits = reservedStats(t, res.Reserved)
	res.SolveTime = time.Since(start)
	return res, nil
}
