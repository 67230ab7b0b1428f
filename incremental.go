package merlin

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"merlin/internal/codegen"
	"merlin/internal/logical"
	"merlin/internal/negotiate"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/provision"
	"merlin/internal/regex"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// Diff is the device-level delta between two compiled outputs — what a
// controller installs and removes to apply a policy update.
type Diff = codegen.Diff

// Compiler is a stateful, incremental version of Compile for long-running
// controllers: it is bound to one topology and keeps every expensive
// compilation artifact — per-statement endpoints and anchored product
// graphs, minimized best-effort product graphs, per-destination sink
// trees, and the provisioning solution with its optimal simplex basis —
// cached across calls. A recompile after a small policy change (the §4
// negotiation story: a tenant's cap moves, a guarantee's rate is
// renegotiated, a statement is added) rebuilds only the dirtied
// artifacts; everything else is served from cache. A rates-only change
// re-solves the provisioning MIP warm-started from the previous optimal
// basis and, when no path moves, re-reserves only the queues instead of
// lowering again; a caps-only change skips rule generation entirely,
// patching just the tc commands.
//
// One validity rule covers every cached product: it records the values
// it was built from and is reused only while they are equal now. A
// statement artifact records the statement's predicate and raw path; the
// provisioning solution its requests and the capacity of every cable
// they can ride (each of its shards likewise); the last output the
// statement artifacts, sink trees and solution it was generated from. So
// a policy may be edited in place between calls, and a failed pass leaves
// nothing to reset.
//
// The zero Compiler is not usable; construct with NewCompiler. Methods
// are safe for concurrent use. The first Compile (or the Compile wrapper
// function) produces byte-identical output to a cold compile; subsequent
// Compile/Update calls produce output identical to what a fresh Compile
// of the same policy would, up to solver-equivalent provisioning choices.
//
// A delta that interns a new symbol into the shared alphabet (a path
// expression naming a new function or location) drops every cached
// automaton-derived artifact, because DFA minimization is alphabet-
// sensitive; the alphabet cannot shrink, so this holds even if that delta
// is rejected. Topology events drop nothing automaton-derived: every
// cached product graph is its full-fabric form cut by the links down now,
// and an event re-cuts the graphs it can change.
type Compiler struct {
	mu    sync.Mutex
	t     *Topology
	place Placement
	opts  Options
	ids   *topo.IdentityTable
	hosts []NodeID
	// targets is the resolved backend list (Options.Targets, defaulted
	// and deduplicated); every pass emits exactly these artifacts.
	targets []string

	// alpha is the shared symbol alphabet. It only grows, and whenever it
	// does every cached automaton-derived artifact is dropped.
	alpha *regex.Alphabet

	// source is the last policy as handed in (pre-preprocessing); Update
	// deltas apply to it. last is the last successful run's result: its
	// preprocessed policy, allocations and outputs.
	source *Policy
	last   *Result
	// lowered is what the last output was generated from; a pass lowers
	// only the statements after the ones whose plans it keeps
	// (resumePoint), and one that keeps every statement patches that
	// output's caps and queues instead of lowering again.
	lowered lowering
	// oneShot says no pass follows the first (the package-level Compile),
	// so codegen keeps no lowering state to resume (codegenStage).
	oneShot bool

	// The artifact caches. anchored holds guaranteed statements' product
	// graphs, graphs the minimized best-effort ones, and trees the sink
	// trees built on those, each keyed by the resolved expression it was
	// built from; alphabet growth clears all three. Every cached product
	// graph is its full-fabric form cut by the links down now
	// (logical.Graph.Cut); a topology event re-cuts the graphs it can
	// change (applyOutage). Every successful pass evicts the entries no
	// current statement used.
	stmts    map[string]*stmtArtifact
	anchored map[anchorKey]*logical.Graph
	graphs   map[string]*logical.Graph
	trees    map[treeKey]*sinktree.Tree
	// prov is the last provisioning solution. It records its requests
	// and the capacities it read (provision.Result.Answers).
	prov *provision.Result
	// hub is the bound negotiation hub (WatchHub), read by Stats to mirror
	// its counters. The binding is exclusive — rebinding detaches the
	// previous hub's commit callback.
	hub *negotiate.Hub

	stats CompilerStats
}

// stmtArtifact caches one statement's phase-1 products. It answers a
// statement only while the statement's predicate and raw path expression
// equal the ones it was built from; a placement change swaps in a fresh
// statement cache (Update).
type stmtArtifact struct {
	pred pred.Pred
	path regex.Expr
	expr regex.Expr // resolved: placements substituted, identities rewritten
	key  string     // regex.Key(expr)
	pure bool       // predicate only pins endpoints (ByDestination eligible)

	srcs, dsts []NodeID
}

// answers reports whether the artifact was built from s's predicate and
// path. Every pred node type is comparable, so == cannot panic.
func (a *stmtArtifact) answers(s policy.Statement) bool {
	return a.pred == s.Predicate && regex.Equal(a.path, s.Path)
}

// anchorKey identifies a guaranteed statement's anchored product graph:
// resolved expression key × source × destination. Statements sharing all
// three share one graph.
type anchorKey struct {
	key      string
	src, dst NodeID
}

// treeKey identifies a sink tree: resolved expression key × destination.
type treeKey struct {
	key string
	dst NodeID
}

// lowering records what one codegen generated its output from: the
// statement artifacts in statement order, the sink trees in resolution
// order, and the provisioning solution, whose rates the output's queues
// are reserved at and whose paths the guaranteed plans followed. plans
// counts each statement's plans, by statement index. state is the
// lowerer's state after those plans, which the next codegen resumes past
// the statements it shares with them (codegenStage); it is nil once a
// codegen that lowered failed, and on a one-shot compile. A pass that
// keeps every statement carries the record forward as it is.
type lowering struct {
	arts  []*stmtArtifact
	trees []*sinktree.Tree
	sol   *provision.Result
	plans []int
	state *codegen.Lowering
}

// CompilerStats counts what the incremental compiler actually did — the
// observability hook tests and benchmarks use to prove deltas stay
// incremental.
type CompilerStats struct {
	// Compiles counts full-policy passes (Compile calls); Updates counts
	// delta applications.
	Compiles int
	Updates  int
	// StatementBuilds counts per-statement artifact (re)builds.
	// AnchoredBuilds counts the distinct anchored product graphs built
	// (cache misses, one per expression × source × destination) — a
	// topology event re-cuts them in place and adds nothing here.
	StatementBuilds int
	AnchoredBuilds  int
	// GraphBuilds and TreeBuilds count minimized product graphs and sink
	// trees built (cache misses); like AnchoredBuilds, GraphBuilds never
	// grows on a failure or a recovery.
	GraphBuilds int
	TreeBuilds  int
	// Solves, WarmSolves, and SolvesReused split provisioning runs into
	// runs with at least one cold shard solve, runs whose only work was
	// basis-warm-started shard re-solves, and pure cache hits.
	Solves       int
	WarmSolves   int
	SolvesReused int
	// ShardsSolved, ShardsWarm, and ShardsReused count individual shards
	// across all provisioning runs: cold MIP solves, warm-started
	// re-solves, and shard solutions reused from the previous run without
	// a solve. A Delta that touches one tenant of a link-disjoint
	// multi-tenant policy shows up here as one solved (or warm) shard and
	// the rest reused.
	ShardsSolved int
	ShardsWarm   int
	ShardsReused int
	// FullCodegens and PatchedCodegens split phase 4's passes: a patched
	// one kept every statement's plans, so it lowered nothing and only
	// regenerated caps and, when guaranteed rates moved, re-reserved
	// queues; a full one is every other pass, lowering from a fresh state
	// or resuming the last one past the statements it kept.
	FullCodegens    int
	PatchedCodegens int
	// PlansLowered totals the plans that went through the lowerer: every
	// plan on a full codegen that lowers from scratch, only the plans of
	// the statements after the kept prefix on a resumed one, none on a
	// patched one.
	// An appended statement lowers its own plans, a removed statement k
	// the plans of the statements after k.
	PlansLowered int
	// TopoEvents counts applied topology events (Delta.Topo / ApplyTopo).
	// AnchoredInvalidated counts the anchored product graphs those events
	// re-cut against the links down now: on a failure the graphs with an
	// edge on a failed cable, on a recovery the graphs whose full-fabric
	// form has an edge on a restored cable.
	TopoEvents          int
	AnchoredInvalidated int
	// GraphsInvalidated counts the minimized best-effort product graphs
	// recoveries re-cut, and TreesInvalidated the sink trees topology
	// events evicted; on a recovery a sink tree falls with its graph.
	GraphsInvalidated int
	TreesInvalidated  int
	// GraphsPatched counts minimized best-effort product graphs failures
	// re-cut (edges on failed cables dropped, graph re-pruned) — byte-
	// identical to a cold build on the degraded topology. TreesKept counts
	// sink trees that survived such a failure because no used path crossed
	// a failed cable; only trees whose used paths did cross are
	// invalidated and rebuilt. When every statement keeps its artifact,
	// its sink trees or its guaranteed path, the pass patches instead of
	// lowering again (the one validity rule, see Compiler), so a failure
	// off every used path generates no rules, even where it re-cut a
	// guarantee's anchored graph.
	GraphsPatched int
	TreesKept     int
	// TernaryEntries totals the ternary table entries expanded for v2
	// (TernaryEmitter) targets and budget checks — one count per distinct
	// expansion actually run, so patched passes that share artifacts add
	// nothing. OverflowReplacements counts the compiles whose initial
	// placement overflowed a device's table budget and was successfully
	// re-placed through the budget-constrained provisioning MIP.
	TernaryEntries       int
	OverflowReplacements int
	// NetflowShards counts shard solves served by the shortest-path fast
	// path (routes fit every cable with capacity ignored, no branch and
	// bound);
	// BnBNodes totals branch-and-bound nodes explored by the general path.
	// Together they show where provisioning time actually went.
	NetflowShards int
	BnBNodes      int
	// Negotiation-hub counters, mirrored from the bound Hub (WatchHub);
	// zero when no hub is bound. TenantsActive is the live session count;
	// TicksBatched the batched reallocation ticks committed through the
	// compiler; VerifyCacheHits the proposals (and re-validations) served
	// whole from the verification cache; ProposalsRejected the proposals
	// turned away by admission control — each one a recompile that never
	// happened.
	TenantsActive     int
	TicksBatched      int
	VerifyCacheHits   int
	ProposalsRejected int
}

// NewCompiler creates an incremental compiler bound to a topology,
// function placement table, and options. After construction the topology
// must only change through the compiler: placements via Delta.Place,
// link/switch failures, recoveries, and capacity changes via Delta.Topo
// (or ApplyTopo/ApplyTopoBatch), which invalidate exactly the caches each
// event stales. Mutating the topology behind the compiler's back leaves
// the caches describing a network that no longer exists.
func NewCompiler(t *Topology, place Placement, opts Options) *Compiler {
	return &Compiler{
		t:        t,
		place:    clonePlacement(place),
		opts:     opts,
		ids:      t.Identities(),
		hosts:    t.Hosts(),
		targets:  resolveTargets(opts.Targets),
		alpha:    logical.Alphabet(t),
		stmts:    map[string]*stmtArtifact{},
		anchored: map[anchorKey]*logical.Graph{},
		graphs:   map[string]*logical.Graph{},
		trees:    map[treeKey]*sinktree.Tree{},
	}
}

// resolveTargets defaults and deduplicates the requested backend list.
// Unknown names are kept — they fail with a clear error at the next
// compile, where the registry is consulted. A list that filters down to
// nothing (all empty strings) gets the default set too: a compile that
// silently emitted no dataplane output would be worse than either
// behavior a caller could have meant.
func resolveTargets(ts []string) []string {
	seen := make(map[string]bool, len(ts))
	out := make([]string, 0, len(ts))
	for _, name := range ts {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	if len(out) == 0 {
		return codegen.DefaultTargets()
	}
	return out
}

// Compile compiles a full policy through the artifact caches. On a fresh
// Compiler this is exactly the one-shot pipeline; on a warm one it reuses
// every artifact whose inputs are unchanged, so handing it a lightly
// edited policy is as cheap as the corresponding Update.
func (c *Compiler) Compile(pol *Policy) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.recompile(pol)
	if err != nil {
		return nil, err
	}
	c.stats.Compiles++
	return res, nil
}

// Result returns the most recent successful compilation result.
func (c *Compiler) Result() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Topology returns the topology the compiler is bound to — immutable
// after construction except through the compiler itself (Delta.Topo,
// ApplyTopo, ApplyTopoBatch). Callers use it to resolve node names and parse
// policies against the bound network; mutating it directly leaves the
// compiler's caches describing a network that no longer exists.
func (c *Compiler) Topology() *Topology { return c.t }

// Stats returns a snapshot of the incremental-work counters. With a hub
// bound (WatchHub), the negotiation counters are folded in from the hub —
// read after releasing the compiler lock, because a committing tick holds
// the hub lock while it recompiles through c.mu.
func (c *Compiler) Stats() CompilerStats {
	c.mu.Lock()
	st := c.stats
	h := c.hub
	c.mu.Unlock()
	if h != nil {
		hs := h.Stats()
		st.TenantsActive = hs.TenantsActive
		st.TicksBatched = hs.TicksBatched
		st.VerifyCacheHits = hs.VerifyCacheHits
		st.ProposalsRejected = hs.ProposalsRejected
	}
	return st
}

// Delta is one incremental policy change for Update. Zero-valued fields
// mean "unchanged".
type Delta struct {
	// Add appends statements to the policy (before the preprocessor's
	// totality default, which is recomputed). They land after every kept
	// statement, so behind an explicit catch-all such as "zall : true ->
	// .*" an added statement is shadowed and never matches a packet.
	// A delta that removes the catch-all and adds it back under a new ID
	// after the new statements puts them in front of it. Inserting
	// before the catch-all by default would re-prioritize its rules on
	// every add.
	Add []Statement
	// Remove drops statements by ID.
	Remove []string
	// Formula, if non-nil, replaces the bandwidth formula — the
	// allocation-change path negotiators drive every tick.
	Formula policy.Formula
	// Place, if non-nil, replaces the function placement table. Placement
	// substitution happens during path-expression resolution, so this
	// invalidates every per-statement artifact.
	Place Placement
	// Topo lists topology events — link/switch failures and recoveries,
	// capacity changes — to apply before recompiling. Update rejects the
	// delta before anything mutates if CheckTopo finds an invalid event.
	// Valid events are facts, not proposals: they are applied (and the
	// caches they stale invalidated) even if the rest of the delta is
	// rejected, so a failed recompile never leaves the compiler believing
	// in a dead link. The bound topology must only be mutated through
	// this path (or ApplyTopo); mutating it directly leaves the caches
	// stale.
	Topo []TopoEvent
}

// Update applies a delta to the current policy, recompiles only the
// dirtied artifacts, and returns the device-level diff — the rules and
// configurations to install and remove — instead of the full Outputs.
// The full result remains available via Result.
func (c *Compiler) Update(d Delta) (*Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.source == nil {
		return nil, fmt.Errorf("merlin: Compiler.Update called before the first Compile")
	}
	if _, errs := c.CheckTopo(d.Topo); errs != nil {
		return nil, errors.Join(errs...)
	}
	if err := c.applyTopoEvents(d.Topo); err != nil {
		return nil, err
	}
	pol, err := c.applyDelta(d)
	if err != nil {
		return nil, err
	}
	if d.Place != nil {
		// Resolved expressions embed placements; swap in a fresh
		// statement cache so they re-resolve. Product graphs and trees
		// stay keyed by resolved expression and survive where keys
		// agree. The swap is committed only if the recompile succeeds —
		// a rejected placement must not take effect on later passes.
		oldPlace, oldStmts := c.place, c.stmts
		c.place = clonePlacement(d.Place)
		c.stmts = map[string]*stmtArtifact{}
		defer func() {
			if err != nil {
				c.place, c.stmts = oldPlace, oldStmts
			}
		}()
	}
	old := c.last
	var res *Result
	res, err = c.recompile(pol)
	if err != nil {
		return nil, err
	}
	c.stats.Updates++
	return diffResults(old, res), nil
}

// diffResults builds the device-level delta between two compiled
// results: one native-form ArtifactDiff per target, computed by that
// backend's own Diff method.
func diffResults(old, new *Result) *Diff {
	d := &Diff{Backends: make(map[string]codegen.ArtifactDiff, len(new.Outputs))}
	for name, art := range new.Outputs {
		b, ok := codegen.Lookup(name)
		if !ok {
			continue
		}
		var oldArt codegen.Artifact
		if old != nil {
			oldArt = old.Outputs[name]
		}
		d.Backends[name] = b.Diff(oldArt, art)
	}
	return d
}

// applyDelta materializes the policy the delta describes, without
// touching compiler state.
func (c *Compiler) applyDelta(d Delta) (*Policy, error) {
	if len(d.Add) == 0 && len(d.Remove) == 0 {
		// Formula/placement-only delta: share the statement slice.
		pol := &Policy{Statements: c.source.Statements, Formula: c.source.Formula}
		if d.Formula != nil {
			pol.Formula = d.Formula
		}
		return pol, nil
	}
	removed := make(map[string]bool, len(d.Remove))
	for _, id := range d.Remove {
		removed[id] = true
	}
	pol := &Policy{Formula: c.source.Formula}
	have := map[string]bool{}
	for _, s := range c.source.Statements {
		if removed[s.ID] {
			delete(removed, s.ID)
			continue
		}
		pol.Statements = append(pol.Statements, s)
		have[s.ID] = true
	}
	for id := range removed {
		return nil, fmt.Errorf("merlin: Delta removes unknown statement %q", id)
	}
	for _, s := range d.Add {
		if have[s.ID] {
			return nil, fmt.Errorf("merlin: Delta adds duplicate statement %q", s.ID)
		}
		have[s.ID] = true
		pol.Statements = append(pol.Statements, s)
	}
	if d.Formula != nil {
		pol.Formula = d.Formula
	}
	return pol, nil
}

// recompile runs the staged pipeline over the caches and commits the
// result. Callers hold c.mu. On error the last successful result and all
// cache entries (each valid only for the inputs it records) remain valid.
func (c *Compiler) recompile(pol *Policy) (*Result, error) {
	res := &Result{Paths: map[string][]string{}}
	run := &runState{res: res}
	if err := c.checkTargets(); err != nil {
		return nil, err
	}
	if err := c.preprocessStage(pol, run); err != nil {
		return nil, err
	}
	if err := c.statementStage(run); err != nil {
		return nil, err
	}
	if err := c.provisionStage(run); err != nil {
		return nil, err
	}
	if err := c.resolveTrees(run); err != nil {
		return nil, err
	}
	if err := c.codegenStage(run); err != nil {
		var of *codegen.TableOverflowError
		if !errors.As(err, &of) || len(run.requests) == 0 || c.opts.Greedy {
			return nil, err
		}
		// A guaranteed placement overflowed a device's table budget:
		// re-solve it with the residual budgets as MIP constraints and
		// run codegen again. If the constrained solve is infeasible the
		// original typed overflow error is returned — the caller learns
		// which devices cannot fit the policy.
		if rerr := c.replaceForBudgets(run); rerr != nil {
			return nil, err
		}
		res.Paths = map[string][]string{}
		if err := c.codegenStage(run); err != nil {
			return nil, err
		}
		c.stats.OverflowReplacements++
	}
	run.lowered.arts, run.lowered.trees, run.lowered.sol = run.arts, run.trees, run.sol
	c.lowered = run.lowered
	c.source = pol
	c.last = res
	if len(run.requests) == 0 {
		c.prov = nil
	}
	// Evict the entries no current statement used, so policy churn over
	// distinct path expressions cannot grow the caches without bound.
	sweep(c.anchored, run.usedAnchors)
	sweep(c.graphs, run.usedGraphs)
	sweep(c.trees, run.usedTrees)
	return res, nil
}

// sweep deletes the cache entries not in used. Every used key is cached,
// so a cache as large as used holds nothing else and skips the walk.
func sweep[K comparable, V any](cache map[K]V, used map[K]bool) {
	if len(cache) != len(used) {
		maps.DeleteFunc(cache, func(k K, _ V) bool { return !used[k] })
	}
}

// compileDiff is Compile plus a diff against the previous result, under
// one lock so concurrent negotiation ticks serialize.
func (c *Compiler) compileDiff(pol *Policy) (*Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.last
	res, err := c.recompile(pol)
	if err != nil {
		return nil, err
	}
	c.stats.Compiles++
	return diffResults(old, res), nil
}

func clonePlacement(p Placement) Placement {
	out := make(Placement, len(p))
	for fn, locs := range p {
		out[fn] = append([]string(nil), locs...)
	}
	return out
}
