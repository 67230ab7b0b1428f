package merlin

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"merlin/internal/codegen"
	"merlin/internal/logical"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/provision"
	"merlin/internal/regex"
	"merlin/internal/sinktree"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// Options tune compilation.
type Options struct {
	// Heuristic selects the path-selection objective for guaranteed
	// traffic (default WeightedShortestPath).
	Heuristic Heuristic
	// NoDefault suppresses the totality default.
	NoDefault bool
	// Greedy provisions guarantees with the sequential shortest-path
	// allocator instead of the exact MIP — the scalable approximation
	// the ablation benches compare against.
	Greedy bool
	// NoShard solves the provisioning MIP monolithically instead of
	// decomposing it into link-disjoint shards. The sharded solve is
	// provably path-identical (see provision.Params.NoShard), so this is
	// a differential-testing escape hatch: sweeps compile selected cells
	// both ways and require identical outputs.
	NoShard bool
	// Workers bounds the worker pool the compiler fans per-statement
	// product-graph builds and per-destination sink trees out over.
	// Zero means runtime.NumCPU(); 1 forces the sequential path. Output
	// is identical for every pool size.
	Workers int
	// Targets selects the dataplane backends to emit, by registry name
	// (see codegen.Register; "p4" is bundled). Nil means the built-in
	// default set — OpenFlow rules + queues, tc/iptables commands, Click
	// configurations, and end-host interpreter programs — which is
	// byte-identical to the pre-registry compiler. Result.Outputs holds
	// one artifact per target, and an incremental Diff one ArtifactDiff
	// per target.
	Targets []string
	// TableBudgets overrides per-device ternary table budgets by node
	// name, on top of whatever the targeted backends' table models
	// declare (the lowest applicable limit wins; a backend with no model
	// for a device class imposes none). A present entry overrides every
	// model-derived budget for that device — 0 means the device accepts
	// no ternary entries at all — and setting budgets with no ternary
	// target still enforces them against the default expansion. When a
	// compiled placement would overflow some device's budget, the
	// compiler re-places the guaranteed traffic through the provisioning
	// MIP with the budgets as placement constraints, and if that is
	// impossible (or still overflows) rejects with *TableOverflowError.
	TableBudgets map[string]int
}

// buildMissing serves n items from a cache, item i needing the artifact
// keyed keyOf(i). Each missing key is built once, by the first item naming
// it, over the worker pool. Either every build succeeds and is committed,
// or the first failure in item order is returned and nothing is; built
// counts the keys built. Callers list items in statement order, so output
// and errors are identical for every pool size.
func buildMissing[K comparable, V any](cache map[K]V, n, workers int, keyOf func(int) K, build func(int) (V, error)) (vals []V, built int, err error) {
	vals = make([]V, n)
	var missing, dups []int
	seen := map[K]bool{}
	for i := 0; i < n; i++ {
		k := keyOf(i)
		if v, ok := cache[k]; ok {
			vals[i] = v
		} else if seen[k] {
			dups = append(dups, i)
		} else {
			seen[k] = true
			missing = append(missing, i)
		}
	}
	errs := make([]error, len(missing))
	parallelDo(len(missing), workers, func(mi int) {
		i := missing[mi]
		vals[i], errs[mi] = build(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	for _, i := range missing {
		cache[keyOf(i)] = vals[i]
	}
	for _, i := range dups {
		vals[i] = cache[keyOf(i)]
	}
	return vals, len(missing), nil
}

// parallelDo runs f(0..n-1) over a bounded worker pool. Each index is
// processed exactly once; f must only write to per-index state.
func parallelDo(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// Timing breaks down where compilation time went — the Table 7 columns.
// For an incremental run only the work actually performed is counted, so
// a cache-served phase reports (near) zero.
type Timing struct {
	Preprocess time.Duration
	// GraphBuild is the wall-clock of the whole per-statement phase-1
	// region: path-expression resolution, endpoint derivation, and the
	// (parallel) anchored product-graph builds. Earlier versions counted
	// only the summed graph-build time, so it is nonzero even for
	// policies with no guarantees.
	GraphBuild  time.Duration
	LPConstruct time.Duration
	LPSolve     time.Duration
	Rateless    time.Duration
	Codegen     time.Duration
}

// Total sums all phases.
func (t Timing) Total() time.Duration {
	return t.Preprocess + t.GraphBuild + t.LPConstruct + t.LPSolve + t.Rateless + t.Codegen
}

// Result is the compiler's output.
type Result struct {
	// Policy is the preprocessed policy that was compiled.
	Policy *Policy
	// Allocations are the localized per-statement rates.
	Allocations map[string]Alloc
	// Paths lists, per guaranteed statement, the chosen location names.
	Paths map[string][]string
	// Placements lists, per statement, the chosen function placements.
	Placements map[string][]PlacementChoice
	// IR is the lowered target-neutral program every backend emitted
	// from — per-device classifier rules with tags and priorities, queue
	// reservations, rate caps, middlebox hops, and host functions.
	IR *codegen.Program
	// Outputs holds each requested backend's emitted artifact, keyed by
	// target name (Options.Targets) — the only dataplane output. The
	// built-ins' are *codegen.OpenFlowArtifact, *codegen.TCArtifact,
	// *codegen.ClickArtifact and *codegen.HostArtifact (per-host end-host
	// interpreter programs, the §3.4 kernel-module backend).
	Outputs map[string]codegen.Artifact
	// Timing breaks down compile phases.
	Timing Timing
}

// PlacementChoice records where a function was placed.
type PlacementChoice struct {
	Fn       string
	Location string
}

// Counts reports the Fig. 4 instruction totals of the built-in openflow,
// tc and click artifacts; host programs and other targets are uncounted.
func (r *Result) Counts() codegen.Counts {
	var c codegen.Counts
	for _, art := range r.Outputs {
		switch a := art.(type) {
		case *codegen.OpenFlowArtifact:
			c.OpenFlow, c.Queues = len(a.Rules), len(a.Queues)
		case *codegen.TCArtifact:
			c.TC, c.IPTables = len(a.TC), len(a.IPTables)
		case *codegen.ClickArtifact:
			c.Click = len(a.Click)
		}
	}
	return c
}

// Compile runs the full §3 pipeline: preprocess, localize, build logical
// topologies, provision guaranteed traffic via the MIP, provision
// best-effort traffic via sink trees, and generate device configurations.
//
// It is a thin wrapper over a one-shot Compiler; long-running controllers
// that recompile on policy changes should hold a Compiler and call its
// Compile/Update methods instead, which reuse cached artifacts across
// calls.
func Compile(pol *Policy, t *Topology, place Placement, opts Options) (*Result, error) {
	return NewCompiler(t, place, opts).Compile(pol)
}

// runState carries one compilation pass over the Compiler's caches.
type runState struct {
	work   *Policy
	allocs map[string]Alloc
	// arts holds the per-statement artifacts, and anchored the guaranteed
	// statements' product graphs (nil for best-effort), by statement index.
	arts     []*stmtArtifact
	anchored []*logical.Graph
	res      *Result
	// aliased reports that the incoming policy's statement slice is the
	// same backing array as the previous pass's — the formula-only delta
	// every negotiation tick produces — so per-statement fingerprints
	// need not be recomputed. Policies are treated as immutable.
	aliased bool
	// provReused reports that the provisioning solution was served from
	// cache without a solve.
	provReused bool
	// Provisioning products, shared between provisionStage (solve) and
	// guaranteedPlans (assembly — skipped on the codegen patch path).
	requests []provision.Request
	reqArts  []*stmtArtifact
	reqStmt  map[string]int // request ID -> statement priority
	sol      *provision.Result
	// Ternary products of the last codegenFull attempt: the resolved
	// per-device budget set, and the per-device count of expanded entries
	// owned by statements with no provisioning request — the entries a
	// budget-driven re-placement cannot move.
	budgets  map[topo.NodeID]deviceBudget
	ternNonG map[topo.NodeID]int
}

// deviceBudget is one device's resolved ternary table budget and the
// backend whose table model imposed it ("" = Options.TableBudgets).
type deviceBudget struct {
	limit  int
	target string
}

func (run *runState) alloc(id string) Alloc {
	if a, ok := run.allocs[id]; ok {
		return a
	}
	return policy.Unconstrained
}

// preprocessStage runs phase 0: preprocess and localize.
func (c *Compiler) preprocessStage(pol *Policy, run *runState) error {
	// First-match semantics for overlapping predicates is realized through
	// rule priorities rather than a disjointness rewrite: conjoining each
	// statement with the negation of all earlier ones makes classifier
	// expansion exponential on large policies, while priorities encode the
	// same semantics for free.
	start := time.Now()
	work, err := policy.Preprocess(pol, policy.PreprocessOptions{
		AddDefault: !c.opts.NoDefault,
	})
	if err != nil {
		return err
	}
	run.work = work
	run.res.Policy = work
	allocs, err := policy.Localize(work.Formula, nil)
	if err != nil {
		return err
	}
	run.allocs = allocs
	run.res.Allocations = allocs
	run.res.Timing.Preprocess = time.Since(start)
	return nil
}

// statementStage runs phase 1 against the artifact caches: path-expression
// resolution, endpoint derivation, and anchored product-graph builds for
// guaranteed statements. Only statements whose fingerprint misses the
// cache are re-resolved, and only anchored graphs missing from c.anchored
// are built; both fan out over the worker pool and merge in statement
// order, so output and errors are identical for every pool size.
func (c *Compiler) statementStage(run *runState) error {
	gs := time.Now()
	work := run.work
	n := len(work.Statements)
	arts := make([]*stmtArtifact, n)
	var fresh []int // statements whose artifact was (re)built: need endpoints

	// Sequential pass: match artifacts against the cache; resolve dirty
	// path expressions and intern their symbols in statement order
	// (interning mutates the shared alphabet). When the statement slice
	// is the previous pass's (run.aliased), cache hits skip the
	// fingerprint — at 10k+ statements, rendering predicates dominates an
	// otherwise no-op pass.
	alphaSize := c.alpha.Size()
	for idx, s := range work.Statements {
		fp := ""
		if !run.aliased {
			fp = stmtFingerprint(s)
		}
		if art, ok := c.stmts[s.ID]; ok && (run.aliased || art.fp == fp) {
			arts[idx] = art
			continue
		}
		if run.aliased {
			fp = stmtFingerprint(s)
		}
		expr := resolveExpr(s.Path, c.place, c.ids)
		for _, sym := range regex.Symbols(expr) {
			c.alpha.Intern(sym)
		}
		arts[idx] = &stmtArtifact{
			fp:   fp,
			expr: expr,
			key:  regex.Key(expr),
			pure: pureConnectivity(s.Predicate),
		}
		fresh = append(fresh, idx)
		c.tainted = true
	}
	if c.alpha.Size() != alphaSize {
		// The alphabet grew: automata determinized/minimized against the
		// old alphabet can differ from ones built now, so every cached
		// product graph and sink tree is stale.
		c.anchored = map[anchorKey]*logical.Graph{}
		c.graphs = map[string]*logical.Graph{}
		c.trees = map[treeKey]*sinktree.Tree{}
	}

	errs := make([]error, n)
	parallelDo(len(fresh), c.opts.Workers, func(fi int) {
		idx := fresh[fi]
		s := work.Statements[idx]
		srcs, dsts, err := endpoints(s.Predicate, c.t, c.ids, c.hosts)
		if err != nil {
			errs[idx] = fmt.Errorf("merlin: statement %s: %w", s.ID, err)
			return
		}
		arts[idx].srcs, arts[idx].dsts = srcs, dsts
	})
	// Guaranteed statements before the first failing one get their
	// anchored graphs, so a failed build there still wins in statement
	// order over the later statement's error.
	var guar []int
	var stmtErr error
	for idx, s := range work.Statements {
		if stmtErr = errs[idx]; stmtErr != nil {
			break
		}
		if run.alloc(s.ID).Min <= 0 {
			continue
		}
		if art := arts[idx]; len(art.srcs) != 1 || len(art.dsts) != 1 {
			stmtErr = fmt.Errorf("merlin: statement %s: bandwidth guarantees need a unique source and destination", s.ID)
			break
		}
		guar = append(guar, idx)
	}
	graphs, built, err := buildMissing(c.anchored, len(guar), c.opts.Workers,
		func(i int) anchorKey { return anchorOf(arts[guar[i]]) },
		func(i int) (*logical.Graph, error) {
			art := arts[guar[i]]
			return logical.BuildAnchored(c.t, art.expr, c.alpha,
				c.t.Node(art.srcs[0]).Name, c.t.Node(art.dsts[0]).Name)
		})
	if err != nil {
		return err
	}
	c.stats.AnchoredBuilds += built
	if stmtErr != nil {
		return stmtErr
	}

	// Commit: install artifacts, drop ones for vanished statements.
	for idx, s := range work.Statements {
		c.stmts[s.ID] = arts[idx]
	}
	c.stats.StatementBuilds += len(fresh)
	if len(c.stmts) != n {
		current := make(map[string]bool, n)
		for _, s := range work.Statements {
			current[s.ID] = true
		}
		for id := range c.stmts {
			if !current[id] {
				delete(c.stmts, id)
				c.tainted = true
			}
		}
	}
	run.arts = arts
	run.anchored = make([]*logical.Graph, n)
	for i, idx := range guar {
		run.anchored[idx] = graphs[i]
	}
	run.res.Timing.GraphBuild = time.Since(gs)
	return nil
}

// anchorOf keys a guaranteed statement's anchored graph; the statement's
// endpoints must be unique.
func anchorOf(art *stmtArtifact) anchorKey {
	return anchorKey{key: art.key, src: art.srcs[0], dst: art.dsts[0]}
}

// provisionStage runs phase 2: guaranteed traffic through the MIP (§3.2),
// or the greedy baseline when requested. An unchanged request set reuses
// the cached solution outright; a rates-only change re-solves the same
// model shape warm-started from the previous optimal basis. Plan assembly
// is left to guaranteedPlans so the codegen patch path can skip it.
func (c *Compiler) provisionStage(run *runState) error {
	work := run.work
	n := len(work.Statements)
	run.reqStmt = map[string]int{}
	for idx, s := range work.Statements {
		if run.alloc(s.ID).Min <= 0 {
			continue
		}
		run.requests = append(run.requests, provision.Request{
			ID: s.ID, Graph: run.anchored[idx], MinRate: run.alloc(s.ID).Min,
		})
		run.reqArts = append(run.reqArts, run.arts[idx])
		run.reqStmt[s.ID] = n - idx
	}
	if len(run.requests) == 0 {
		// The cached solution (if any) no longer matches; it is dropped
		// in recompile's commit section so a failed pass keeps it.
		return nil
	}

	sol, reused, err := c.solveRequests(run.requests)
	if err != nil {
		return err
	}
	run.sol = sol
	run.provReused = reused
	if !reused {
		run.res.Timing.LPConstruct = sol.ConstructTime
		run.res.Timing.LPSolve = sol.SolveTime
	}
	return nil
}

// guaranteedPlans decodes the provisioning solution into codegen plans,
// paths, and placements.
func (c *Compiler) guaranteedPlans(run *runState) []codegen.Plan {
	res := run.res
	var plans []codegen.Plan
	for ri, r := range run.requests {
		steps := run.sol.Paths[r.ID]
		stmt, _ := run.work.Statement(r.ID)
		art := run.reqArts[ri]
		plans = append(plans, codegen.Plan{
			ID: r.ID, Predicate: stmt.Predicate, Priority: run.reqStmt[r.ID],
			Alloc: run.alloc(r.ID), Classify: codegen.ByPredicate,
			SrcHost: art.srcs[0], DstHost: art.dsts[0], Path: steps,
		})
		res.Paths[r.ID] = stepNames(c.t, steps)
		for _, pl := range logical.PlacementsOf(steps) {
			res.Placements[r.ID] = append(res.Placements[r.ID],
				PlacementChoice{Fn: pl.Fn, Location: c.t.Node(pl.Loc).Name})
		}
	}
	return plans
}

// solveRequests serves the provisioning solution from cache when the
// request set is unchanged, and otherwise re-solves at shard granularity:
// provision.Solve partitions the requests into link-disjoint shards and
// the previous result's per-shard solutions (provision.Result.Shards) let
// it reuse every shard the delta did not touch outright, warm-start
// rates-only-changed shards from their cached bases, and solve cold only
// the shards whose membership changed. It commits the new provisioning
// artifact.
func (c *Compiler) solveRequests(requests []provision.Request) (sol *provision.Result, reused bool, err error) {
	cached := c.prov
	// Topology events since the last pass (len(c.dirtyCables) > 0) bypass
	// the identity fast path: the cached solution was computed against
	// different capacities or connectivity, so shard-level reuse below must
	// re-examine cable incidence even for an unchanged request set.
	sameInputs := cached != nil && len(c.dirtyCables) == 0 &&
		len(cached.ids) == len(requests)
	if sameInputs {
		for i, r := range requests {
			if cached.ids[i] != r.ID || cached.graphs[i] != r.Graph || cached.rates[i] != r.MinRate {
				sameInputs = false
				break
			}
		}
	}
	if sameInputs {
		// Pure cache hit: c.prov already describes these requests.
		c.stats.SolvesReused++
		return cached.res, true, nil
	}
	switch {
	case c.opts.Greedy:
		sol, err = provision.Greedy(c.t, requests)
		c.stats.Solves++
	default:
		params := provision.Params{
			Workers: c.opts.Workers, NoShard: c.opts.NoShard,
		}
		if cached != nil {
			// Shard-level reuse: unchanged shards are served outright and
			// rates-only-changed shards re-solve warm-started from their
			// cached optimal bases (§4.3's fast re-provisioning path, now
			// per shard). Shards incident to a dirty cable (capacity
			// changed, link failed or restored) are excluded from outright
			// reuse and re-solve warm where the basis survives.
			params.Reuse = cached.res.Shards
			params.Dirty = c.dirtyCables
		}
		sol, err = provision.Solve(c.t, requests, c.opts.Heuristic, params)
		if err == nil {
			c.stats.ShardsSolved += sol.ShardsSolved
			c.stats.ShardsWarm += sol.ShardsWarm
			c.stats.ShardsReused += sol.ShardsReused
			c.stats.NetflowShards += sol.NetflowShards
			c.stats.BnBNodes += sol.Nodes
			switch {
			case sol.ShardsSolved > 0:
				c.stats.Solves++
			case sol.ShardsWarm > 0:
				c.stats.WarmSolves++
			default:
				c.stats.SolvesReused++
			}
		}
	}
	if err != nil {
		return nil, false, err
	}
	c.commitProv(requests, sol)
	return sol, reused, nil
}

// commitProv records a provisioning solution and the inputs it answers
// as the cached provisioning artifact.
func (c *Compiler) commitProv(requests []provision.Request, sol *provision.Result) {
	art := &provArtifact{
		ids:    make([]string, len(requests)),
		graphs: make([]*logical.Graph, len(requests)),
		rates:  make([]float64, len(requests)),
		res:    sol,
	}
	for i, r := range requests {
		art.ids[i], art.graphs[i], art.rates[i] = r.ID, r.Graph, r.MinRate
	}
	c.prov = art
}

// bestEffortStage runs phase 3: best-effort sink trees (§3.3). Product
// graphs are cached per distinct path expression and sink trees per
// (expression, destination) pair — across compiles, not just within one.
// Missing entries build in parallel over the worker pool; plan assembly
// stays sequential in statement order, so the generated configuration is
// byte-identical to the sequential compiler's.
func (c *Compiler) bestEffortStage(run *runState, plans []codegen.Plan) ([]codegen.Plan, error) {
	rs := time.Now()
	work := run.work
	res := run.res
	n := len(work.Statements)
	type beWork struct {
		art      *stmtArtifact
		stmt     policy.Statement
		classify codegen.Classify
		priority int
	}
	var bestEff []beWork
	for idx, s := range work.Statements {
		if run.alloc(s.ID).Min > 0 {
			continue
		}
		art := run.arts[idx]
		classify := codegen.ByPredicate
		if art.pure {
			classify = codegen.ByDestination
		}
		bestEff = append(bestEff, beWork{art: art, stmt: s, classify: classify, priority: n - idx})
	}

	// Product graphs per expression key and sink trees per (key,
	// destination), each built once on its first statement's behalf.
	graphs, built, err := buildMissing(c.graphs, len(bestEff), c.opts.Workers,
		func(i int) string { return bestEff[i].art.key },
		func(i int) (*logical.Graph, error) {
			return logical.BuildMinimized(c.t, bestEff[i].art.expr, c.alpha)
		})
	if err != nil {
		return nil, err
	}
	c.stats.GraphBuilds += built
	type treeJob struct {
		g      *logical.Graph
		key    treeKey
		stmtID string
	}
	var jobs []treeJob
	for i, w := range bestEff {
		for _, dst := range w.art.dsts {
			jobs = append(jobs, treeJob{g: graphs[i], key: treeKey{key: w.art.key, dst: dst}, stmtID: w.stmt.ID})
		}
	}
	trees, built, err := buildMissing(c.trees, len(jobs), c.opts.Workers,
		func(j int) treeKey { return jobs[j].key },
		func(j int) (*sinktree.Tree, error) {
			tr, err := sinktree.TreeTo(jobs[j].g, jobs[j].key.dst)
			if err != nil {
				return nil, fmt.Errorf("merlin: statement %s: %w", jobs[j].stmtID, err)
			}
			return tr, nil
		})
	if err != nil {
		return nil, err
	}
	c.stats.TreeBuilds += built

	// Plan assembly, sequential in statement order.
	j := 0
	for i, w := range bestEff {
		// Tag-free expressions cannot yield placements; skip the per-pair
		// path decode entirely.
		hasTags := graphs[i].TagSource != nil
		for _, dst := range w.art.dsts {
			tree := trees[j]
			j++
			for _, src := range w.art.srcs {
				if src == dst {
					continue
				}
				plans = append(plans, codegen.Plan{
					ID: w.stmt.ID, Predicate: w.stmt.Predicate, Priority: w.priority,
					Alloc: run.alloc(w.stmt.ID), Classify: w.classify,
					SrcHost: src, DstHost: dst, Tree: tree,
				})
				if !hasTags {
					continue
				}
				if steps := tree.PathFrom(src); steps != nil {
					for _, pl := range logical.PlacementsOf(steps) {
						res.Placements[w.stmt.ID] = append(res.Placements[w.stmt.ID],
							PlacementChoice{Fn: pl.Fn, Location: c.t.Node(pl.Loc).Name})
					}
				}
			}
		}
	}
	res.Timing.Rateless = time.Since(rs)
	return plans, nil
}

// codegenFull runs phase 4: code generation (§3.4). The plans are lowered
// once into the target-neutral IR; ternary-consuming backends (the v2
// TernaryEmitter surface) get pre-expanded, budget-checked tables, and
// every other requested backend emits straight from the IR. The plan list
// and lowered program are retained so a later caps-only pass can
// regenerate just the cap-reachable sections. A budget violation surfaces
// as *codegen.TableOverflowError before any artifact is emitted, so
// recompile can attempt a budget-constrained re-placement.
func (c *Compiler) codegenFull(run *runState, plans []codegen.Plan) error {
	cs := time.Now()
	prog, err := codegen.Lower(c.t, plans)
	if err != nil {
		return err
	}
	prog.HostFns = c.hostFunctions(run)
	terns, err := c.ternaryStage(run, prog)
	if err != nil {
		return err
	}
	arts := make(map[string]codegen.Artifact, len(c.targets))
	for _, name := range c.targets {
		b, _ := codegen.Lookup(name) // presence checked by checkTargets before the pipeline ran
		var art codegen.Artifact
		if te, ok := b.(codegen.TernaryEmitter); ok {
			art, err = te.EmitTernary(c.t, prog, terns[name])
		} else {
			art, err = b.Emit(c.t, prog)
		}
		if err != nil {
			return fmt.Errorf("merlin: backend %s: %w", name, err)
		}
		arts[name] = art
	}
	c.installArtifacts(run, prog, arts)
	c.lastPlans, c.plansSorted = plans, false
	c.stats.FullCodegens++
	run.res.Timing.Codegen = time.Since(cs)
	return nil
}

// ternaryStage expands the lowered program into ternary tables for the
// v2 targets — once per distinct expansion option set, shared across
// targets with the same table semantics — and checks the resolved
// per-device budgets against every expansion before anything is emitted.
// With budgets set but no ternary target, the default expansion is run
// purely for the check, so Options.TableBudgets constrains symbolic-only
// compiles too.
func (c *Compiler) ternaryStage(run *runState, prog *codegen.Program) (map[string]*codegen.TernaryTables, error) {
	run.budgets = c.tableBudgets()
	var v2 []string
	for _, name := range c.targets {
		b, _ := codegen.Lookup(name)
		if _, ok := b.(codegen.TernaryEmitter); ok {
			v2 = append(v2, name)
		}
	}
	if len(v2) == 0 && len(run.budgets) == 0 {
		return nil, nil
	}
	byOpt := map[ternary.Options]*codegen.TernaryTables{}
	expand := func(opt ternary.Options) (*codegen.TernaryTables, error) {
		if tb, ok := byOpt[opt]; ok {
			return tb, nil
		}
		tb, err := codegen.ExpandProgram(c.t, prog, opt)
		if err != nil {
			return nil, err
		}
		byOpt[opt] = tb
		c.stats.TernaryEntries += tb.Total
		return tb, nil
	}
	out := make(map[string]*codegen.TernaryTables, len(v2))
	for _, name := range v2 {
		opt := ternary.Options{}
		if m, ok := codegen.BackendModel(name, topo.Switch); ok {
			opt.SupportsRange = m.SupportsRange
		}
		tb, err := expand(opt)
		if err != nil {
			return nil, fmt.Errorf("merlin: backend %s: %w", name, err)
		}
		out[name] = tb
	}
	if len(run.budgets) == 0 {
		return out, nil
	}
	if len(byOpt) == 0 {
		if _, err := expand(ternary.Options{}); err != nil {
			return nil, err
		}
	}
	// Record the immovable per-device entry load (entries of statements
	// with no provisioning request, which a re-placement cannot move),
	// conservatively maxed across expansions, then check every expansion
	// against the budget set.
	guaranteed := make(map[string]bool, len(run.requests))
	for _, r := range run.requests {
		guaranteed[r.ID] = true
	}
	run.ternNonG = map[topo.NodeID]int{}
	var overflows []codegen.TableOverflow
	target := ""
	for _, tb := range byOpt {
		nonG := map[topo.NodeID]int{}
		for _, e := range tb.Entries {
			if !guaranteed[e.Stmt] {
				nonG[e.Device]++
			}
		}
		for dev, n := range nonG {
			if n > run.ternNonG[dev] {
				run.ternNonG[dev] = n
			}
		}
		for dev, b := range run.budgets {
			if n := tb.PerDevice[dev]; n > b.limit {
				overflows = append(overflows, codegen.TableOverflow{
					Device: dev, Name: c.t.Node(dev).Name, Entries: n, Budget: b.limit,
				})
				if target == "" {
					target = b.target
				}
			}
		}
	}
	if len(overflows) > 0 {
		// Dedup (multiple expansions can flag one device; keep the worst)
		// and sort for a deterministic error.
		worst := map[topo.NodeID]codegen.TableOverflow{}
		for _, o := range overflows {
			if w, ok := worst[o.Device]; !ok || o.Entries > w.Entries {
				worst[o.Device] = o
			}
		}
		uniq := make([]codegen.TableOverflow, 0, len(worst))
		for _, o := range worst {
			uniq = append(uniq, o)
		}
		sort.Slice(uniq, func(i, j int) bool { return uniq[i].Device < uniq[j].Device })
		return nil, &codegen.TableOverflowError{Target: target, Overflows: uniq}
	}
	return out, nil
}

// tableBudgets resolves the per-device ternary budget set for this
// compiler's target list: each ternary-consuming backend's table model
// (per device class) contributes its MaxEntries, the lowest applicable
// limit winning; then Options.TableBudgets overrides per device name
// unconditionally.
func (c *Compiler) tableBudgets() map[topo.NodeID]deviceBudget {
	out := map[topo.NodeID]deviceBudget{}
	for _, name := range c.targets {
		b, _ := codegen.Lookup(name)
		if _, ok := b.(codegen.TernaryEmitter); !ok {
			continue
		}
		for _, node := range c.t.Nodes() {
			m, ok := codegen.BackendModel(name, node.Kind)
			if !ok || m.MaxEntries <= 0 {
				continue
			}
			if cur, exists := out[node.ID]; !exists || m.MaxEntries < cur.limit {
				out[node.ID] = deviceBudget{limit: m.MaxEntries, target: name}
			}
		}
	}
	for name, limit := range c.opts.TableBudgets {
		if id, ok := c.t.Lookup(name); ok {
			out[id] = deviceBudget{limit: limit}
		}
	}
	return out
}

// replaceForBudgets re-solves the guaranteed placement with the residual
// per-device budgets (limit minus the immovable best-effort load) as
// placement constraints in the provisioning MIP, each request weighted
// by its classifier's expansion estimate. On success the new solution is
// committed as the provisioning artifact, so subsequent incremental
// passes reuse the budget-respecting placement.
func (c *Compiler) replaceForBudgets(run *runState) error {
	budgets := make(map[topo.NodeID]float64, len(run.budgets))
	for v, b := range run.budgets {
		residual := b.limit - run.ternNonG[v]
		if residual < 0 {
			return fmt.Errorf("merlin: device %s overflows on best-effort entries alone", c.t.Node(v).Name)
		}
		budgets[v] = float64(residual)
	}
	cost := make(map[string]float64, len(run.requests))
	for _, r := range run.requests {
		w := 1
		if s, ok := run.work.Statement(r.ID); ok {
			if est, err := ternary.Estimate(codegen.ResolvePred(c.ids, s.Predicate), ternary.Options{}); err == nil && est > w {
				w = est
			}
		}
		cost[r.ID] = float64(w)
	}
	sol, err := provision.Solve(c.t, run.requests, c.opts.Heuristic, provision.Params{
		Workers: c.opts.Workers, Budgets: budgets, EntryCost: cost,
	})
	if err != nil {
		return err
	}
	c.commitProv(run.requests, sol)
	run.sol = sol
	run.provReused = false
	c.stats.Solves++
	return nil
}

// checkTargets validates the resolved target list against the registry.
// It runs before the expensive pipeline stages, so a typo'd target name
// fails in microseconds instead of after a multi-second provisioning
// solve. (The registry only grows, so a name that passes once passes
// forever.)
func (c *Compiler) checkTargets() error {
	for _, name := range c.targets {
		if _, ok := codegen.Lookup(name); !ok {
			return fmt.Errorf("merlin: unknown codegen target %q (registered: %s)",
				name, strings.Join(codegen.Names(), ", "))
		}
	}
	return nil
}

// installArtifacts wires a pass's lowered IR and emitted artifacts into
// the result.
func (c *Compiler) installArtifacts(run *runState, prog *codegen.Program, arts map[string]codegen.Artifact) {
	run.res.IR = prog
	run.res.Outputs = arts
}

// codegenPatch is the caps-only fast path (§4's bandwidth re-allocation
// without recompilation), routed per backend: the previous pass's IR is
// shallow-copied with only its cap-reachable sections (caps, host
// functions) regenerated, the tc and host backends re-emit from it, and
// every other target's artifact — forwarding rules, queues, Click
// configurations, P4 table entries, tags — is shared outright with the
// previous result, so its diff is empty by pointer identity.
func (c *Compiler) codegenPatch(run *runState) {
	cs := time.Now()
	res := run.res
	prog := *c.last.IR // shallow: rules/queues/filters/fns/tags shared
	prog.Caps = c.regenerateCaps(run)
	prog.HostFns = c.hostFunctions(run)
	arts := make(map[string]codegen.Artifact, len(c.targets))
	for _, name := range c.targets {
		switch name {
		case codegen.TargetTC, codegen.TargetHost:
			b, _ := codegen.Lookup(name) // presence checked by checkTargets
			art, err := b.Emit(c.t, &prog)
			if err != nil {
				// Unreachable for the built-ins; if it ever happens, a
				// stale artifact (empty diff) is safe where an absent one
				// would diff as "remove every cap".
				arts[name] = c.last.Outputs[name]
				continue
			}
			arts[name] = art
		default:
			arts[name] = c.last.Outputs[name]
		}
	}
	c.installArtifacts(run, &prog, arts)
	res.Paths = c.last.Paths
	res.Placements = c.last.Placements
	c.stats.PatchedCodegens++
	res.Timing.Codegen = time.Since(cs)
}

// patchableCodegen reports whether this pass may reuse the previous
// output's rules: the statement cache is untouched since the last
// successful pass (c.tainted covers this pass's rebuilds, a previous
// failed pass's, and connectivity changes), the statement set and order are unchanged, no
// guarantee moved (the provisioning solution was served from cache), and
// no Min rate changed — so only caps (tc commands, end-host programs)
// can differ.
func (c *Compiler) patchableCodegen(run *runState) bool {
	if c.last == nil || c.last.Outputs == nil || c.tainted {
		return false
	}
	lastStmts := c.last.Policy.Statements
	if len(lastStmts) != len(run.work.Statements) {
		return false
	}
	// Always compare against the last successful order — run.aliased only
	// certifies identity with the slice the statement cache was written
	// from, which after a failed pass is not the last success.
	for i, s := range run.work.Statements {
		if lastStmts[i].ID != s.ID {
			return false
		}
	}
	// Min deltas: the allocation maps only hold formula-mentioned
	// statements, so comparing them beats walking every statement.
	lastAllocs := c.last.Allocations
	for id, a := range run.allocs {
		old, ok := lastAllocs[id]
		if !ok {
			old = policy.Unconstrained
		}
		if old.Min != a.Min {
			return false
		}
	}
	for id, old := range lastAllocs {
		if _, ok := run.allocs[id]; !ok && old.Min != 0 {
			return false
		}
	}
	hadRequests := c.prov != nil && len(c.prov.ids) > 0
	if hadRequests && !run.provReused {
		return false
	}
	return true
}

// regenerateCaps re-lowers the rate-cap section of the IR exactly as
// Lower would — plans stably sorted by descending priority, one cap per
// plan with a finite nonzero maximum — from the retained plan list, with
// each plan's cap read from the current allocations.
func (c *Compiler) regenerateCaps(run *runState) []codegen.CapSpec {
	if !c.plansSorted {
		sort.SliceStable(c.lastPlans, func(i, j int) bool {
			return c.lastPlans[i].Priority > c.lastPlans[j].Priority
		})
		c.plansSorted = true
	}
	var caps []codegen.CapSpec
	for i := range c.lastPlans {
		p := &c.lastPlans[i]
		if capRate := run.alloc(p.ID).Max; codegen.CapApplies(capRate) {
			caps = append(caps, codegen.CapSpec{Host: p.SrcHost, Stmt: p.ID, MaxBps: capRate})
		}
	}
	return caps
}

// hostFunctions lowers the end-host function section of the IR: rate
// limits for capped statements, one per source host, which the host
// backend renders into interpreter programs. It uses the endpoints
// derived (and validated) in the statement stage, so an endpoint error
// aborts compilation there instead of being silently swallowed here
// (which used to lose end-host programs for statements with caps).
func (c *Compiler) hostFunctions(run *runState) []codegen.HostFnSpec {
	var fns []codegen.HostFnSpec
	for idx, s := range run.work.Statements {
		a, ok := run.allocs[s.ID]
		if !ok || a.Max == 0 || math.IsNaN(a.Max) {
			continue
		}
		if a.Max > 0 && !math.IsInf(a.Max, 1) {
			for _, src := range run.arts[idx].srcs {
				fns = append(fns, codegen.HostFnSpec{
					Host: src, Stmt: s.ID, Pred: s.Predicate, RateBps: a.Max,
				})
			}
		}
	}
	return fns
}

// stmtFingerprint identifies a statement's compilation-relevant inputs:
// the predicate (endpoints, classification) and the raw path expression
// (resolved expression and product graphs). Artifacts whose fingerprint
// matches are reused across compiles.
func stmtFingerprint(s policy.Statement) string {
	return pred.Format(s.Predicate) + "\x00" + s.Path.String()
}

// resolveExpr substitutes function placements into the path expression and
// rewrites host-identity symbols (MACs, IPs) into topology node names.
// It cannot fail: unplaced function symbols survive as-is and surface as
// unsatisfiable path constraints during graph construction.
func resolveExpr(e regex.Expr, place Placement, ids *topo.IdentityTable) regex.Expr {
	if len(place) > 0 {
		e = regex.Substitute(e, place)
	}
	// The rewrite reports whether anything changed so untouched subtrees
	// (the common case: host identities appear in predicates, not paths)
	// are returned as-is instead of reallocated.
	var rewrite func(regex.Expr) (regex.Expr, bool)
	rewrite = func(e regex.Expr) (regex.Expr, bool) {
		switch x := e.(type) {
		case regex.Sym:
			if node, ok := ids.Resolve(x.Name); ok {
				if name := nodeName(ids, node, x.Name); name != x.Name {
					return regex.Sym{Name: name}, true
				}
			}
			return x, false
		case regex.Concat:
			l, cl := rewrite(x.L)
			r, cr := rewrite(x.R)
			if cl || cr {
				return regex.Concat{L: l, R: r}, true
			}
			return x, false
		case regex.Alt:
			l, cl := rewrite(x.L)
			r, cr := rewrite(x.R)
			if cl || cr {
				return regex.Alt{L: l, R: r}, true
			}
			return x, false
		case regex.Star:
			if sub, changed := rewrite(x.X); changed {
				return regex.Star{X: sub}, true
			}
			return x, false
		case regex.Not:
			if sub, changed := rewrite(x.X); changed {
				return regex.Not{X: sub}, true
			}
			return x, false
		default:
			return e, false
		}
	}
	out, _ := rewrite(e)
	return out
}

func nodeName(ids *topo.IdentityTable, node topo.NodeID, fallback string) string {
	if ident, ok := ids.Of(node); ok {
		return ident.Name
	}
	return fallback
}

// endpoints derives the source and destination host sets a predicate pins
// down. Cubes lacking a source (destination) atom widen the set to all
// hosts. hosts is the topology's host list, computed once per compile and
// shared (callers must not mutate returned slices, which may alias it).
func endpoints(p pred.Pred, t *Topology, ids *topo.IdentityTable, hosts []NodeID) (srcs, dsts []NodeID, err error) {
	cubes, err := pred.PositiveCubes(p)
	if err != nil {
		// Expansion can blow up on heavily-negated predicates (the
		// totality default). Such predicates pin no endpoints anyway.
		return hosts, hosts, nil
	}
	var srcPin, dstPin []NodeID // small: typically one node each
	srcAll, dstAll := false, false
	appendPin := func(pins []NodeID, n NodeID) []NodeID {
		for _, p := range pins {
			if p == n {
				return pins
			}
		}
		return append(pins, n)
	}
	for _, cube := range cubes {
		cubeSrc, cubeDst := NodeID(-1), NodeID(-1)
		for _, test := range cube {
			switch test.Field {
			case "eth.src", "ip.src":
				if n, ok := ids.Resolve(test.Value); ok {
					cubeSrc = n
				}
			case "eth.dst", "ip.dst":
				if n, ok := ids.Resolve(test.Value); ok {
					cubeDst = n
				}
			}
		}
		if cubeSrc >= 0 {
			srcPin = appendPin(srcPin, cubeSrc)
		} else {
			srcAll = true
		}
		if cubeDst >= 0 {
			dstPin = appendPin(dstPin, cubeDst)
		} else {
			dstAll = true
		}
	}
	collect := func(pins []NodeID, all bool) []NodeID {
		if all || len(pins) == 0 {
			return hosts
		}
		// Output in host order, matching the pinned set.
		out := make([]NodeID, 0, len(pins))
		for _, h := range hosts {
			for _, p := range pins {
				if p == h {
					out = append(out, h)
					break
				}
			}
		}
		return out
	}
	return collect(srcPin, srcAll), collect(dstPin, dstAll), nil
}

// pureConnectivity reports whether the predicate only constrains the
// source and destination identities, enabling the compact ByDestination
// classifier.
func pureConnectivity(p pred.Pred) bool {
	return pred.OnlyFields(p, func(f pred.Field) bool {
		switch f {
		case "eth.src", "eth.dst", "ip.src", "ip.dst":
			return true
		}
		return false
	})
}

func stepNames(t *Topology, steps []logical.Step) []string {
	locs := logical.Locations(steps)
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = t.Node(l).Name
	}
	return out
}

// DescribePath renders a compiled path for human output.
func DescribePath(names []string) string { return strings.Join(names, " → ") }
