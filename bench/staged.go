package main

import (
	"fmt"
	"math"
	"reflect"

	"merlin"
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

// counts accumulates the work counts of one staged round, by metric name.
type counts map[string]float64

// stagedCompile walks one scenario through the layers in pipeline order,
// calling each internal package's exported functions with a span around
// every call: Parse → Preprocess → Localize → PositiveCubes and a DFA probe
// per statement → BuildAnchored per guarantee → Partition and a Solve per
// shard → BuildMinimized + BuildTrees → Lower → ExpandProgram → each
// backend's Emit → DiffArtifacts. It mirrors compile.go's stages
// sequentially, so a span is a layer's busy time, not its wall-clock share
// of a parallel compile.
//
// ref is the compiler's own result for the same inputs. The staged IR must
// equal ref.IR; if it does not, the mirror has drifted from the compiler,
// the Lower span is dropped and codegen.lower_skipped counts it. The stages
// after Lower always run on ref.IR, the program the compiler really emitted
// from.
func stagedCompile(rec *recorder, cnt counts, text string, t *topo.Topology, place merlin.Placement, noDefault bool, ref *merlin.Result) error {
	var err error
	rec.time("bench", "scenario", func() { err = staged(rec, cnt, text, t, place, noDefault, ref) })
	return err
}

type stagedStmt struct {
	stmt       policy.Statement
	alloc      policy.Alloc
	expr       regex.Expr
	key        string
	pure       bool
	srcs, dsts []topo.NodeID
	anchored   *logical.Graph
}

func staged(rec *recorder, cnt counts, text string, t *topo.Topology, place merlin.Placement, noDefault bool, ref *merlin.Result) error {
	var err error
	var pol, work *merlin.Policy
	rec.time("policy", "policy.parse", func() { pol, err = merlin.ParsePolicy(text, t) })
	if err != nil {
		return err
	}
	cnt["policy.parse_stmts"] += float64(len(pol.Statements))
	rec.time("policy", "policy.preprocess", func() {
		work, err = policy.Preprocess(pol, policy.PreprocessOptions{AddDefault: !noDefault})
	})
	if err != nil {
		return err
	}
	var allocs map[string]policy.Alloc
	rec.time("policy", "policy.localize", func() { allocs, err = policy.Localize(work.Formula, nil) })
	if err != nil {
		return err
	}
	allocOf := func(id string) policy.Alloc {
		if a, ok := allocs[id]; ok {
			return a
		}
		return policy.Unconstrained
	}

	// Per statement: resolve the path expression, intern its symbols (all
	// of them before any automaton is built, as the compiler does), expand
	// the predicate to derive endpoints.
	ids, hosts := t.Identities(), t.Hosts()
	alpha := logical.Alphabet(t)
	n := len(work.Statements)
	stmts := make([]*stagedStmt, n)
	for i, s := range work.Statements {
		expr := s.Path
		if len(place) > 0 {
			expr = regex.Substitute(expr, place)
		}
		for _, sym := range regex.Symbols(expr) {
			alpha.Intern(sym)
		}
		stmts[i] = &stagedStmt{stmt: s, alloc: allocOf(s.ID), expr: expr, key: regex.Key(expr), pure: pureConnectivity(s.Predicate)}
	}
	probed := map[string]bool{}
	for _, st := range stmts {
		var cubes [][]pred.Test
		var cerr error
		rec.time("pred", "pred.cubes", func() { cubes, cerr = pred.PositiveCubes(st.stmt.Predicate) })
		cnt["pred.cubes_out"] += float64(len(cubes))
		st.srcs, st.dsts = endpointsOf(cubes, cerr, ids, hosts)
		if probed[st.key] {
			continue
		}
		// Probe: the expression alone to a minimal DFA. BuildAnchored and
		// BuildMinimized do this inside, where a span cannot reach.
		probed[st.key] = true
		rec.time("regex", "regex.dfa", func() {
			var nfa *regex.NFA
			if nfa, err = regex.Compile(st.expr, alpha); err == nil {
				cnt["regex.dfa_states"] += float64(nfa.Determinize().Minimize().States)
			}
		})
		if err != nil {
			return err
		}
	}

	// Guaranteed traffic: anchored product graphs, then provisioning shard
	// by shard.
	var reqs []provision.Request
	var reqStmt []*stagedStmt
	prio := map[string]int{}
	for i, st := range stmts {
		prio[st.stmt.ID] = n - i
		if st.alloc.Min <= 0 {
			continue
		}
		if len(st.srcs) != 1 || len(st.dsts) != 1 {
			return fmt.Errorf("statement %s: a guarantee needs a unique source and destination", st.stmt.ID)
		}
		rec.time("logical", "logical.anchored", func() {
			st.anchored, err = logical.BuildAnchored(t, st.expr, alpha, t.Node(st.srcs[0]).Name, t.Node(st.dsts[0]).Name)
		})
		if err != nil {
			return err
		}
		cnt["logical.anchored_edges"] += float64(len(st.anchored.Edges))
		reqs = append(reqs, provision.Request{ID: st.stmt.ID, Graph: st.anchored, MinRate: st.alloc.Min})
		reqStmt = append(reqStmt, st)
	}
	paths := map[string][]logical.Step{}
	if len(reqs) > 0 {
		var shards [][]int
		rec.time("provision", "provision.partition", func() { shards = provision.Partition(t, reqs) })
		cnt["provision.shards"] += float64(len(shards))
		for _, shard := range shards {
			sub := make([]provision.Request, len(shard))
			for i, ri := range shard {
				sub[i] = reqs[ri]
			}
			var sol *provision.Result
			rec.time("provision", "provision.solve", func() {
				rec.time("mip", "mip.solve", func() {
					sol, err = provision.Solve(t, sub, provision.WeightedShortestPath, provision.Params{Workers: compileWorkers})
				})
				if err == nil && sol.NetflowShards > 0 {
					rec.renameLast("netflow", "netflow.solve")
				}
			})
			if err != nil {
				return err
			}
			cnt["provision.netflow_shards"] += float64(sol.NetflowShards)
			cnt["mip.nodes"] += float64(sol.Nodes)
			for id, steps := range sol.Paths {
				paths[id] = steps
			}
		}
	}
	var plans []codegen.Plan
	for _, st := range reqStmt {
		plans = append(plans, codegen.Plan{
			ID: st.stmt.ID, Predicate: st.stmt.Predicate, Priority: prio[st.stmt.ID],
			Alloc: st.alloc, Classify: codegen.ByPredicate,
			SrcHost: st.srcs[0], DstHost: st.dsts[0], Path: paths[st.stmt.ID],
		})
	}

	// Best-effort traffic: one minimized product graph per distinct path
	// expression, one sink tree per (expression, destination).
	graphs := map[string]*logical.Graph{}
	trees := map[string]map[topo.NodeID]*sinktree.Tree{}
	for _, st := range stmts {
		if st.alloc.Min > 0 {
			continue
		}
		g, ok := graphs[st.key]
		if !ok {
			rec.time("logical", "logical.minimized", func() { g, err = logical.BuildMinimized(t, st.expr, alpha) })
			if err != nil {
				return err
			}
			cnt["logical.minimized_edges"] += float64(len(g.Edges))
			graphs[st.key], trees[st.key] = g, map[topo.NodeID]*sinktree.Tree{}
		}
		var missing []topo.NodeID
		for _, d := range st.dsts {
			if _, ok := trees[st.key][d]; !ok {
				missing = append(missing, d)
			}
		}
		if len(missing) > 0 {
			var built map[topo.NodeID]*sinktree.Tree
			rec.time("sinktree", "sinktree.build", func() { built, _, err = sinktree.BuildTrees(g, missing, false) })
			if err != nil {
				return fmt.Errorf("statement %s: %w", st.stmt.ID, err)
			}
			cnt["sinktree.trees"] += float64(len(built))
			for d, tr := range built {
				trees[st.key][d] = tr
			}
		}
		classify := codegen.ByPredicate
		if st.pure {
			classify = codegen.ByDestination
		}
		for _, d := range st.dsts {
			for _, s := range st.srcs {
				if s == d {
					continue
				}
				plans = append(plans, codegen.Plan{
					ID: st.stmt.ID, Predicate: st.stmt.Predicate, Priority: prio[st.stmt.ID],
					Alloc: st.alloc, Classify: classify, SrcHost: s, DstHost: d, Tree: trees[st.key][d],
				})
			}
		}
	}

	// Lowering, held to the compiler's own IR.
	var prog *codegen.Program
	rec.time("codegen", "codegen.lower", func() { prog, err = codegen.Lower(t, plans) })
	if err != nil {
		return err
	}
	prog.HostFns = hostFunctions(stmts, allocs)
	if !reflect.DeepEqual(prog, ref.IR) {
		rec.renameLast("codegen", "codegen.lower(skipped)")
		cnt["codegen.lower_skipped"]++
	}
	prog = ref.IR
	cnt["codegen.rules"] += float64(len(prog.Rules))
	cnt["codegen.queues"] += float64(len(prog.Queues))

	// Ternary expansion under the tcam backend's table model, and the
	// per-rule estimator budget checks use instead of expanding.
	var opt ternary.Options
	if m, ok := codegen.BackendModel("tcam", topo.Switch); ok {
		opt.SupportsRange = m.SupportsRange
	}
	var tables *codegen.TernaryTables
	rec.time("ternary", "ternary.expand", func() { tables, err = codegen.ExpandProgram(t, prog, opt) })
	if err != nil {
		return err
	}
	cnt["ternary.rows"] += float64(tables.Total)
	rec.time("ternary", "ternary.estimate", func() {
		for _, r := range prog.Rules {
			if _, err = codegen.EstimateRuleEntries(r, opt, ids); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	// Every backend's emitter, then the install diff against nothing.
	arts := map[string]codegen.Artifact{}
	for _, name := range backendNames {
		b, ok := codegen.Lookup(name)
		if !ok {
			return fmt.Errorf("backend %s is not registered", name)
		}
		var art codegen.Artifact
		rec.time(name, name+".emit", func() {
			if te, ok := b.(codegen.TernaryEmitter); ok {
				art, err = te.EmitTernary(t, prog, tables)
			} else {
				art, err = b.Emit(t, prog)
			}
		})
		if err != nil {
			return fmt.Errorf("backend %s: %w", name, err)
		}
		arts[name] = art
		cnt[name+".entries"] += float64(len(art.Entries()))
	}
	rec.time("codegen", "codegen.diff", func() {
		for _, name := range backendNames {
			d := codegen.DiffArtifacts(name, nil, arts[name])
			cnt["codegen.diff_entries"] += float64(len(d.Install) + len(d.Remove))
		}
	})
	return nil
}

// endpointsOf mirrors the compiler's endpoint derivation: the hosts a
// predicate's cubes pin as source and destination, widening to every host
// where some cube pins none (or the expansion fails).
func endpointsOf(cubes [][]pred.Test, err error, ids *topo.IdentityTable, hosts []topo.NodeID) (srcs, dsts []topo.NodeID) {
	if err != nil {
		return hosts, hosts
	}
	srcPin, dstPin := map[topo.NodeID]bool{}, map[topo.NodeID]bool{}
	srcAll, dstAll := false, false
	for _, cube := range cubes {
		src, dst := topo.NodeID(-1), topo.NodeID(-1)
		for _, test := range cube {
			switch test.Field {
			case "eth.src", "ip.src":
				if n, ok := ids.Resolve(test.Value); ok {
					src = n
				}
			case "eth.dst", "ip.dst":
				if n, ok := ids.Resolve(test.Value); ok {
					dst = n
				}
			}
		}
		if src >= 0 {
			srcPin[src] = true
		} else {
			srcAll = true
		}
		if dst >= 0 {
			dstPin[dst] = true
		} else {
			dstAll = true
		}
	}
	collect := func(pins map[topo.NodeID]bool, all bool) []topo.NodeID {
		if all || len(pins) == 0 {
			return hosts
		}
		var out []topo.NodeID
		for _, h := range hosts {
			if pins[h] {
				out = append(out, h)
			}
		}
		return out
	}
	return collect(srcPin, srcAll), collect(dstPin, dstAll)
}

func pureConnectivity(p pred.Pred) bool {
	return pred.OnlyFields(p, func(f pred.Field) bool {
		switch f {
		case "eth.src", "eth.dst", "ip.src", "ip.dst":
			return true
		}
		return false
	})
}

// hostFunctions mirrors the compiler's end-host section: one rate limiter
// per source host of every capped statement.
func hostFunctions(stmts []*stagedStmt, allocs map[string]policy.Alloc) []codegen.HostFnSpec {
	var fns []codegen.HostFnSpec
	for _, st := range stmts {
		a, ok := allocs[st.stmt.ID]
		if !ok || math.IsNaN(a.Max) || a.Max <= 0 || math.IsInf(a.Max, 1) {
			continue
		}
		for _, src := range st.srcs {
			fns = append(fns, codegen.HostFnSpec{Host: src, Stmt: st.stmt.ID, Pred: st.stmt.Predicate, RateBps: a.Max})
		}
	}
	return fns
}
