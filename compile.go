package merlin

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
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
// or the first failure in item order is returned and nothing is; used is
// the set of keys the items name, built the count of keys built. Callers
// list items in statement order, so output and errors are identical for
// every pool size.
func buildMissing[K comparable, V any](cache map[K]V, n, workers int, keyOf func(int) K, build func(int) (V, error)) (vals []V, used map[K]bool, built int, err error) {
	vals = make([]V, n)
	var missing, dups []int
	used = make(map[K]bool, n)
	for i := 0; i < n; i++ {
		k := keyOf(i)
		if v, ok := cache[k]; ok {
			vals[i] = v
		} else if used[k] {
			dups = append(dups, i)
		} else {
			missing = append(missing, i)
		}
		used[k] = true
	}
	errs := make([]error, len(missing))
	parallelDo(len(missing), workers, func(mi int) {
		i := missing[mi]
		vals[i], errs[mi] = build(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	for _, i := range missing {
		cache[keyOf(i)] = vals[i]
	}
	for _, i := range dups {
		vals[i] = cache[keyOf(i)]
	}
	return vals, used, len(missing), nil
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
	// (parallel) anchored product-graph builds, so it is nonzero even
	// for policies with no guarantees.
	GraphBuild  time.Duration
	LPConstruct time.Duration
	LPSolve     time.Duration
	// Rateless is the best-effort phase: minimized product graphs and
	// sink trees.
	Rateless time.Duration
	// Codegen is phase 4 from the plans on: building the codegen plans
	// of the statements it lowers, lowering, and emitting every target.
	Codegen time.Duration
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
	c := NewCompiler(t, place, opts)
	c.oneShot = true
	return c.Compile(pol)
}

// runState carries one compilation pass over the Compiler's caches.
type runState struct {
	work   *Policy
	allocs map[string]Alloc
	// arts holds the per-statement artifacts and graphs the product
	// graphs, by statement index: anchored for a guaranteed statement,
	// minimized for a best-effort one. bestEff lists the best-effort
	// statements' indices in order, and trees their sink trees, per
	// statement, per destination.
	arts    []*stmtArtifact
	graphs  []*logical.Graph
	bestEff []int
	trees   []*sinktree.Tree
	res     *Result
	// The cache keys this pass used; the rest are evicted when it commits.
	usedAnchors map[anchorKey]bool
	usedGraphs  map[string]bool
	usedTrees   map[treeKey]bool
	// Provisioning products, shared between provisionStage (solve) and
	// plan assembly (skipped when codegen keeps every statement).
	requests []provision.Request
	sol      *provision.Result
	// lowered is what this pass's codegen generated its output from; it
	// becomes the Compiler's when the pass commits.
	lowered lowering
	// Ternary products of the last ternaryStage run: the resolved
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

// maxStatements bounds a working policy's statement count (the totality
// default included) and is the priority of its first statement:
// classification rules sit at 100 + priority, so the top one,
// 100 + maxStatements, is OpenFlow's largest 16-bit priority.
const maxStatements = 65435

// stmtPriority is the classification priority of the statement at index
// idx of the working policy. Counting from the front rather than from
// the end keeps a statement's priority, and so its rules, unchanged when
// statements are appended; removing one shifts only those after it.
func stmtPriority(idx int) int { return maxStatements - idx }

func (run *runState) alloc(id string) Alloc {
	if a, ok := run.allocs[id]; ok {
		return a
	}
	return policy.Unconstrained
}

// rates maps each guaranteed statement's ID to its rate, which sizes its
// queues.
func (run *runState) rates() map[string]float64 {
	rates := make(map[string]float64, len(run.requests))
	for _, r := range run.requests {
		rates[r.ID] = r.MinRate
	}
	return rates
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
	if n := len(work.Statements); n > maxStatements {
		return fmt.Errorf("merlin: policy has %d statements, more than the %d that fit OpenFlow's 16-bit priorities", n, maxStatements)
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
// guaranteed statements. Only statements no cached artifact answers are
// re-resolved, and only anchored graphs missing from c.anchored are
// built; both fan out over the worker pool and merge in statement order,
// so output and errors are identical for every pool size.
func (c *Compiler) statementStage(run *runState) error {
	gs := time.Now()
	work := run.work
	n := len(work.Statements)
	arts := make([]*stmtArtifact, n)
	var fresh []int // statements whose artifact was (re)built: need endpoints

	// Sequential pass: match artifacts against the cache by value; resolve
	// the other path expressions and intern their symbols in statement
	// order (interning mutates the shared alphabet).
	alphaSize := c.alpha.Size()
	for idx, s := range work.Statements {
		if art, ok := c.stmts[s.ID]; ok && art.answers(s) {
			arts[idx] = art
			continue
		}
		expr := resolveExpr(s.Path, c.place, c.ids)
		for _, sym := range regex.Symbols(expr) {
			c.alpha.Intern(sym)
		}
		arts[idx] = &stmtArtifact{
			pred: s.Predicate,
			path: s.Path,
			expr: expr,
			key:  regex.Key(expr),
			pure: pureConnectivity(s.Predicate),
		}
		fresh = append(fresh, idx)
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
	graphs, used, built, err := buildMissing(c.anchored, len(guar), c.opts.Workers,
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
		maps.DeleteFunc(c.stmts, func(id string, _ *stmtArtifact) bool { return !current[id] })
	}
	run.arts = arts
	run.usedAnchors = used
	run.graphs = make([]*logical.Graph, n)
	for i, idx := range guar {
		run.graphs[idx] = graphs[i]
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
// is left to codegenStage, which skips it for the statements it keeps.
func (c *Compiler) provisionStage(run *runState) error {
	work := run.work
	for idx, s := range work.Statements {
		if run.alloc(s.ID).Min <= 0 {
			continue
		}
		run.requests = append(run.requests, provision.Request{
			ID: s.ID, Graph: run.graphs[idx], MinRate: run.alloc(s.ID).Min,
		})
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
	if !reused {
		run.res.Timing.LPConstruct = sol.ConstructTime
		run.res.Timing.LPSolve = sol.SolveTime
	}
	return nil
}

// solveRequests serves the last provisioning solution while it answers
// these requests (provision.Result.Answers: same requests, and every
// capacity it read unchanged), and otherwise re-solves at shard
// granularity: provision.Solve partitions the requests into link-disjoint
// shards and the last result's per-shard solutions let it reuse every
// shard that still answers outright, warm-start shards with the same
// requests but other rates or capacities from their cached bases, and
// solve cold only the shards whose membership or product graphs changed.
func (c *Compiler) solveRequests(requests []provision.Request) (sol *provision.Result, reused bool, err error) {
	if c.prov.Answers(c.t, requests) {
		c.stats.SolvesReused++
		return c.prov, true, nil
	}
	if c.opts.Greedy {
		sol, err = provision.Greedy(c.t, requests)
		c.stats.Solves++
	} else {
		params := provision.Params{Workers: c.opts.Workers, NoShard: c.opts.NoShard}
		if c.prov != nil {
			params.Reuse = c.prov.Shards
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
	c.prov = sol
	return sol, false, nil
}

// resolveTrees runs phase 3's cache work: best-effort sink trees (§3.3).
// Product graphs are cached per distinct path expression and sink trees
// per (expression, destination) pair — across compiles, not just within
// one. Missing entries build in parallel over the worker pool, so every
// pass resolves its trees whether or not it then lowers them.
func (c *Compiler) resolveTrees(run *runState) error {
	rs := time.Now()
	for idx, s := range run.work.Statements {
		if run.alloc(s.ID).Min <= 0 {
			run.bestEff = append(run.bestEff, idx)
		}
	}
	bestEff := run.bestEff
	graphs, used, built, err := buildMissing(c.graphs, len(bestEff), c.opts.Workers,
		func(i int) string { return run.arts[bestEff[i]].key },
		func(i int) (*logical.Graph, error) {
			return logical.BuildMinimized(c.t, run.arts[bestEff[i]].expr, c.alpha)
		})
	if err != nil {
		return err
	}
	c.stats.GraphBuilds += built
	run.usedGraphs = used
	type treeJob struct {
		g      *logical.Graph
		key    treeKey
		stmtID string
	}
	var jobs []treeJob
	for i, idx := range bestEff {
		run.graphs[idx] = graphs[i]
		art := run.arts[idx]
		for _, dst := range art.dsts {
			jobs = append(jobs, treeJob{g: graphs[i], key: treeKey{key: art.key, dst: dst}, stmtID: run.work.Statements[idx].ID})
		}
	}
	run.trees, run.usedTrees, built, err = buildMissing(c.trees, len(jobs), c.opts.Workers,
		func(j int) treeKey { return jobs[j].key },
		func(j int) (*sinktree.Tree, error) {
			tr, err := sinktree.TreeTo(jobs[j].g, jobs[j].key.dst)
			if err != nil {
				return nil, fmt.Errorf("merlin: statement %s: %w", jobs[j].stmtID, err)
			}
			return tr, nil
		})
	if err != nil {
		return err
	}
	c.stats.TreeBuilds += built
	run.res.Timing.Rateless = time.Since(rs)
	return nil
}

// plans assembles the codegen plans of the statements from index from
// on, sequentially in statement order, which is Lower's order: a
// statement's priority falls with its index. A guaranteed statement
// lowers to one plan along its provisioned path, a best-effort one to a
// plan per (destination, source) pair but a host to itself, on the sink
// tree to the destination. It records every statement's plan count in
// run.lowered, the earlier statements' from the last lowering, and names
// every guaranteed path in the result.
func (c *Compiler) plans(run *runState, from int) []codegen.Plan {
	work := run.work
	n := len(work.Statements)
	counts := make([]int, n)
	copy(counts, c.lowered.plans[:from])
	// Every (destination, source) pair but a host to itself gets a plan,
	// so Σ |dsts|·|srcs| bounds the count.
	total := 0
	for _, art := range run.arts[from:] {
		total += len(art.dsts) * len(art.srcs)
	}
	plans := make([]codegen.Plan, 0, total)
	tree := 0 // index in run.trees of the next best-effort statement's first tree
	for idx, s := range work.Statements {
		art := run.arts[idx]
		if run.alloc(s.ID).Min > 0 {
			path := run.sol.Paths[s.ID]
			run.res.Paths[s.ID] = stepNames(c.t, path)
			if idx >= from {
				plans = append(plans, codegen.Plan{
					ID: s.ID, Predicate: s.Predicate, Priority: stmtPriority(idx),
					Alloc: run.alloc(s.ID), Classify: codegen.ByPredicate,
					SrcHost: art.srcs[0], DstHost: art.dsts[0], Path: path,
				})
				counts[idx] = 1
			}
			continue
		}
		trees := run.trees[tree : tree+len(art.dsts)]
		tree += len(art.dsts)
		if idx < from {
			continue
		}
		classify := codegen.ByPredicate
		if art.pure {
			classify = codegen.ByDestination
		}
		start := len(plans)
		for j, dst := range art.dsts {
			for _, src := range art.srcs {
				if src == dst {
					continue
				}
				plans = append(plans, codegen.Plan{
					ID: s.ID, Predicate: s.Predicate, Priority: stmtPriority(idx),
					Alloc: run.alloc(s.ID), Classify: classify,
					SrcHost: src, DstHost: dst, Tree: trees[j],
				})
			}
		}
		counts[idx] = len(plans) - start
	}
	run.lowered.plans = counts
	return plans
}

// resumePoint returns how many leading statements of this pass lower to
// the plans the last codegen lowered them to, and how many plans those
// are: each has the same statement artifact as then (so the same ID,
// predicate, endpoints and classification) at the same index (so the
// same priority), and either the same guaranteed path or the same sink
// trees. It is the one check of what a pass reuses of the last output.
// Lowering reads the topology only through the plans' paths and trees
// and the link table, which topology events leave as it is, so an event
// needs no check of its own: a statement it re-routes has a new path or
// tree, and one whose graph it re-cuts but whose path it keeps is kept.
func (c *Compiler) resumePoint(run *runState) (stmts, plans int) {
	l := &c.lowered
	tree := 0
	for idx, art := range run.arts {
		if idx >= len(l.arts) || art != l.arts[idx] {
			break
		}
		id := run.work.Statements[idx].ID
		var path []logical.Step // the guaranteed path it was lowered along
		if l.sol != nil {
			path = l.sol.Paths[id]
		}
		if path != nil {
			if run.alloc(id).Min <= 0 || !slices.Equal(run.sol.Paths[id], path) {
				break
			}
		} else {
			n := len(art.dsts)
			if run.alloc(id).Min > 0 || !slices.Equal(run.trees[tree:tree+n], l.trees[tree:tree+n]) {
				break
			}
			tree += n
		}
		stmts++
		plans += l.plans[idx]
	}
	return stmts, plans
}

// undoPerKept is where resuming the lowering state stops paying: rolling
// a plan back costs about an eighth of lowering it, so a resume that
// undoes more than eight plans per plan it keeps is slower than lowering
// every plan into an emptied state. internal/codegen's BenchmarkResume
// measures it on a 16k-plan list: keeping 10 % lowers the rest as fast
// as starting over, keeping 1 % takes 8 % longer, keeping 50 % 43 % less.
// A link or switch event that re-routes a tree of the first statements
// lands on the fresh side.
const undoPerKept = 8

// codegenStage runs phase 4: code generation (§3.4). The plans are
// lowered into the target-neutral IR; ternary-consuming backends (the v2
// TernaryEmitter surface) get pre-expanded, budget-checked tables, and
// every other requested backend emits straight from the IR. A budget
// violation surfaces as *codegen.TableOverflowError before any ternary
// artifact is emitted, so recompile can attempt a budget-constrained
// re-placement.
//
// Only the statements after the ones the pass keeps (resumePoint) are
// lowered:
//   - A pass that keeps every statement routes as the last one did (§4's
//     bandwidth re-allocation without recompilation) and lowers nothing.
//     Its IR is the last one's, with queues re-reserved copy-on-write
//     (codegen.ReserveQueues, the one lowering pass a rate reaches) when
//     the guaranteed rates moved, and the lowering state, paths,
//     placements and plan counts are carried forward untouched.
//   - Any other pass resumes the last codegen's state (codegen.Lowering)
//     past the kept statements: only the later statements' plans are
//     built and lowered, and the IR is the previous one's rules up to
//     there plus theirs. Without a state to resume, or when resuming
//     would undo more than undoPerKept plans per plan it keeps, it lowers
//     every plan into an emptied state. The state is taken from the last
//     lowering record, so any error drops it and the next pass starts
//     from a new one. A one-shot compile keeps no state: it lowers with
//     codegen.Lower, which records none of the undo logs a resume needs.
//
// Each target then costs what the pass changed for it. tc and host
// re-emit from the regenerated caps and host functions. click is shared
// when every statement is kept, since the function instances are the
// last IR's; every other target is shared when the rules and queues are
// the last IR's too, and the ternary stage is skipped. Otherwise
// openflow re-renders only the rules after the kept ones and those at
// moved (codegen.PatchOpenFlow), and the rest re-emit. A shared artifact
// diffs as empty by pointer identity.
//
// The targets that re-emit run in two slots under Options.Workers: the
// ternary chain (ternaryStage, then the TernaryEmitter targets) beside
// every other target. A pass with no ternary chain — no ternary target
// and no budget, as under DefaultTargets — has one slot and emits inline.
// A ternaryStage error, a budget violation included, outranks any
// target's; targets' errors rank in target order.
func (c *Compiler) codegenStage(run *runState) error {
	cs := time.Now()
	from, keep := c.resumePoint(run)
	all := c.last != nil && from == len(run.arts) && from == len(c.lowered.arts)
	var (
		ir         *codegen.Program
		kept       int
		moved      []int
		placements map[string][]PlacementChoice
	)
	if all {
		run.lowered = c.lowered
		ir, placements, run.res.Paths = c.last.IR, c.last.Placements, c.last.Paths
		if run.sol != nil && !slices.Equal(run.sol.Requests, c.lowered.sol.Requests) {
			ir, moved = codegen.ReserveQueues(ir, run.rates())
		}
		kept = len(ir.Rules)
	} else {
		state := c.lowered.state
		c.lowered.state = nil
		if state == nil || undoPerKept*keep < state.Len()-keep {
			from, keep = 0, 0
		}
		plans := c.plans(run, from)
		c.stats.PlansLowered += len(plans)
		var err error
		if c.oneShot {
			ir, err = codegen.Lower(c.t, plans)
		} else {
			var prev *codegen.Program
			switch {
			case keep > 0:
				prev = c.last.IR
			case state == nil:
				state = codegen.NewLowering(c.t)
			}
			ir, kept, moved, err = state.Resume(prev, keep, plans, run.rates())
		}
		if err != nil {
			return err
		}
		run.lowered.state = state
		// Lower recorded every function instance on a plan's path, plans
		// in statement order and each path in order: the placements,
		// read off.
		placements = map[string][]PlacementChoice{}
		for _, fn := range ir.Fns {
			placements[fn.Stmt] = append(placements[fn.Stmt], PlacementChoice{Fn: fn.Fn, Location: c.t.Node(fn.Node).Name})
		}
	}
	prog := *ir // shallow: the host-side sections are this pass's own
	prog.Caps, prog.HostFns = c.hostConfig(run)
	same := all && ir == c.last.IR // no rule, queue id or reservation moved
	arts := make(map[string]codegen.Artifact, len(c.targets))
	var ternTargets, restTargets []int // indices into c.targets of the targets to emit
	for i, name := range c.targets {
		switch {
		case name == codegen.TargetTC || name == codegen.TargetHost:
			// re-emitted: the caps and host functions are this pass's own
		case same || all && name == codegen.TargetClick:
			arts[name] = c.last.Outputs[name]
			continue
		case kept > 0:
			if of, ok := c.last.Outputs[name].(*codegen.OpenFlowArtifact); ok {
				arts[name] = codegen.PatchOpenFlow(of, &prog, kept, moved)
				continue
			}
		}
		b, _ := codegen.Lookup(name) // presence checked by checkTargets before the pipeline ran
		if _, ok := b.(codegen.TernaryEmitter); ok {
			ternTargets = append(ternTargets, i)
		} else {
			restTargets = append(restTargets, i)
		}
	}
	// The emit phase runs in up to two slots: the ternary chain (expand,
	// check budgets, then emit the ternary targets) and every other target.
	// Each slot writes only its own targets' entries.
	emitted := make([]codegen.Artifact, len(c.targets))
	errs := make([]error, len(c.targets))
	emit := func(targets []int, terns map[string]*codegen.TernaryTables) {
		for _, i := range targets {
			emitted[i], errs[i] = c.emitTarget(c.targets[i], &prog, terns)
		}
	}
	var slots []func()
	var ternErr error
	if !same {
		if run.budgets = c.tableBudgets(); len(ternTargets) > 0 || len(run.budgets) > 0 {
			slots = append(slots, func() {
				var terns map[string]*codegen.TernaryTables
				if terns, ternErr = c.ternaryStage(run, &prog, ternTargets); ternErr == nil {
					emit(ternTargets, terns)
				}
			})
		}
	}
	if len(restTargets) > 0 {
		slots = append(slots, func() { emit(restTargets, nil) })
	}
	parallelDo(len(slots), c.opts.Workers, func(i int) { slots[i]() })
	// A budget violation outranks any target's error; targets' errors
	// rank in c.targets order.
	if ternErr != nil {
		return ternErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, i := range slices.Concat(ternTargets, restTargets) {
		arts[c.targets[i]] = emitted[i]
	}
	if all {
		c.stats.PatchedCodegens++
	} else {
		c.stats.FullCodegens++
	}
	run.res.IR, run.res.Outputs, run.res.Placements = &prog, arts, placements
	run.res.Timing.Codegen = time.Since(cs)
	return nil
}

// emitTarget renders prog for one target, from its ternary tables when
// the backend consumes them.
func (c *Compiler) emitTarget(name string, prog *codegen.Program, terns map[string]*codegen.TernaryTables) (codegen.Artifact, error) {
	b, _ := codegen.Lookup(name) // presence checked by checkTargets before the pipeline ran
	var art codegen.Artifact
	var err error
	if te, ok := b.(codegen.TernaryEmitter); ok {
		art, err = te.EmitTernary(c.t, prog, terns[name])
	} else {
		art, err = b.Emit(c.t, prog)
	}
	if err != nil {
		return nil, fmt.Errorf("merlin: backend %s: %w", name, err)
	}
	return art, nil
}

// ternaryStage expands the lowered program into ternary tables for the
// v2 targets (indices into c.targets) — once per distinct expansion
// option set, shared across targets with the same table semantics — and
// checks the per-device budgets run.budgets against every expansion
// before any of them is emitted. With budgets set but no ternary target,
// the default expansion is run purely for the check, so
// Options.TableBudgets constrains symbolic-only compiles too.
func (c *Compiler) ternaryStage(run *runState, prog *codegen.Program, v2 []int) (map[string]*codegen.TernaryTables, error) {
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
	for _, i := range v2 {
		name := c.targets[i]
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
	// worst keeps each overflowing device's largest count across
	// expansions, with the backend its budget came from.
	type overflow struct {
		codegen.TableOverflow
		target string
	}
	worst := map[topo.NodeID]overflow{}
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
			n := tb.PerDevice[dev]
			if w, ok := worst[dev]; n > b.limit && (!ok || n > w.Entries) {
				worst[dev] = overflow{codegen.TableOverflow{
					Device: dev, Name: c.t.Node(dev).Name, Entries: n, Budget: b.limit,
				}, b.target}
			}
		}
	}
	if len(worst) == 0 {
		return out, nil
	}
	// Sort for a deterministic error; the error names the backend of the
	// lowest overflowing device.
	devs := slices.Sorted(maps.Keys(worst))
	err := &codegen.TableOverflowError{Target: worst[devs[0]].target}
	for _, dev := range devs {
		err.Overflows = append(err.Overflows, worst[dev].TableOverflow)
	}
	return nil, err
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
// by its classifier's expansion estimate. On success the new solution
// becomes the last provisioning result, so later passes reuse the
// budget-respecting placement while it answers them.
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
	c.prov, run.sol = sol, sol
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

// hostConfig lowers the cap-reachable sections of the IR from the
// statements in order, on every codegen pass. caps are the host-side
// rate caps in the order Lower visits plans (statement order, which is
// descending priority): one at the source of a guaranteed statement, one
// per (destination, source) pair of a best-effort one. fns are the end-host rate limits for capped
// statements, one per source host, which the host backend renders into
// interpreter programs. Both use the endpoints derived (and validated) in
// the statement stage.
func (c *Compiler) hostConfig(run *runState) (caps []codegen.CapSpec, fns []codegen.HostFnSpec) {
	for idx, s := range run.work.Statements {
		a, ok := run.allocs[s.ID]
		if !ok || !codegen.CapApplies(a.Max) {
			continue
		}
		art := run.arts[idx]
		if a.Min > 0 {
			caps = append(caps, codegen.CapSpec{Host: art.srcs[0], Stmt: s.ID, MaxBps: a.Max})
		} else {
			for _, dst := range art.dsts {
				for _, src := range art.srcs {
					if src != dst {
						caps = append(caps, codegen.CapSpec{Host: src, Stmt: s.ID, MaxBps: a.Max})
					}
				}
			}
		}
		if a.Max > 0 {
			for _, src := range art.srcs {
				fns = append(fns, codegen.HostFnSpec{
					Host: src, Stmt: s.ID, Pred: s.Predicate, RateBps: a.Max,
				})
			}
		}
	}
	return caps, fns
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
