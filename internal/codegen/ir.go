package codegen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"merlin/internal/logical"
	"merlin/internal/pred"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// This file defines the target-neutral intermediate representation the
// compiler lowers plans into, and the lowering pass itself. The IR is the
// seam between policy compilation and dataplane emission: everything a
// concrete device config needs — classifier rules with tags and
// priorities, queue reservations, rate caps, middlebox function
// instances, host-side functions — is decided here, once,
// deterministically. Backends (package-level Register) are pure renderers
// from the IR into their native form, so every backend of the same
// Program describes the same forwarding behavior.

// Match sentinels for Program rules.
const (
	// AnyPort wildcards the ingress-port match.
	AnyPort = topo.LinkID(-2)
	// TagAny wildcards the tag match.
	TagAny = -2
	// TagNone matches only untagged traffic.
	TagNone = -1
)

// Match selects packets for one IR rule. Zero-valued string fields and
// the Any sentinels are wildcards.
type Match struct {
	InPort topo.LinkID // arrival link; AnyPort for any
	Tag    int         // path tag; TagAny for any, TagNone for untagged
	SrcMAC string
	DstMAC string
	// Pred, when non-nil, must also hold — the classifier abstraction a
	// backend expands into its native match form (TCAM entries, P4 table
	// keys, Click classifier expressions).
	Pred pred.Pred
}

// OpKind enumerates IR rule operations.
type OpKind int

// IR rule operations.
const (
	// OpForward sends the packet out Port.
	OpForward OpKind = iota
	// OpForwardQueue sends the packet out Port through QoS queue Queue.
	OpForwardQueue
	// OpSetTag writes the path tag.
	OpSetTag
	// OpClearTag removes the path tag.
	OpClearTag
)

// Op is one operation of an IR rule's action sequence.
type Op struct {
	Kind  OpKind
	Port  topo.LinkID // OpForward, OpForwardQueue
	Queue int         // OpForwardQueue
	Tag   int         // OpSetTag
}

// Rule is one device-level classifier/forwarding entry in the IR:
// first-match by descending priority, with an ordered operation list.
type Rule struct {
	Device   topo.NodeID
	Priority int
	Match    Match
	Ops      []Op
	// Stmt is the policy statement the rule was lowered from.
	Stmt string
}

// CapSpec is a host-side bandwidth cap (lowered to a tc command, an
// end-host program clause, or a hardware meter, depending on backend).
type CapSpec struct {
	Host   topo.NodeID
	Stmt   string
	MaxBps float64
}

// FnSpec is one packet-processing function instance placed on a
// middlebox (or a host running the middlebox substrate).
type FnSpec struct {
	Node topo.NodeID
	Fn   string
	Stmt string
}

// HostFnSpec is an end-host dataplane function: a rate limiter (or
// filter) the host's local enforcement substrate must run against the
// statement's traffic.
type HostFnSpec struct {
	Host    topo.NodeID
	Stmt    string
	Pred    pred.Pred
	RateBps float64
}

// Program is the lowered, target-neutral form of a compiled policy: the
// complete dataplane behavior, independent of any concrete device
// family. Section order is deterministic (plans are visited in stable
// priority order), so two lowerings of the same plan list are identical
// and backends inherit that determinism for free.
type Program struct {
	Rules []Rule
	// Queues are the QoS queue reservations the OpForwardQueue ops of
	// Rules use, one per (switch, port, rate): guarantees of equal rate
	// leaving one port share one queue reserved at that rate
	// (ReserveQueues).
	Queues  []QueueConfig
	Caps    []CapSpec
	Fns     []FnSpec
	HostFns []HostFnSpec
	// Tags maps statement IDs to the path tags allocated for them.
	Tags map[string][]int
}

// lowerer carries lowering state (the pre-redesign generator, emitting IR
// instead of OpenFlow rules).
type lowerer struct {
	t    *topo.Topology
	ids  *topo.IdentityTable
	prog *Program
	// bound dedups forwarding rules: (device, tag, inPort) → rule index.
	bound map[ruleKey]int
	// classBound dedups classification rules.
	classBound map[classKey]bool
	// sels memoizes selectors by plan ID: every plan of a statement
	// carries the statement's predicate (Plan.ID), so each predicate is
	// expanded once per Lower and never hashed — hashing a large negated
	// predicate once per plan costs more than expanding it.
	sels map[string][]classSel
	// trees holds the lowering state of each sink tree a plan rode.
	trees   map[*sinktree.Tree]*treeState
	nextTag int
	// ingressAt is the path position of the plan being lowered's ingress
	// switch, and ingress the classification rules that plan appended
	// there (none when every selector reused another plan's rule).
	ingressAt int
	ingress   []int
	// scratch state reused across plans
	hops    hops
	locBuf  []topo.NodeID
	stepBuf []logical.Step

	// undo says the lowerer records what a rollback needs: checkpoints[i]
	// is the state before the i-th plan lowered, and the logs record, in
	// order, what a rollback to a checkpoint reverts besides the appended
	// rules and function instances (rollback). Lower, which never rolls
	// back, records none of it.
	undo        bool
	checkpoints []checkpoint
	// shared says prog.Rules is a handed-out Program's: it is never
	// written again, and the next pass lowers into a fresh slice.
	shared   bool
	classLog []classKey   // classBound insertions
	markLog  []mark       // cut-off marks
	treeLog  []*treeState // trees insertions; a treeState's index is its place here
	selLog   []string     // sels insertions
	// tagLog records Tags appends as runs of appends to one statement ID
	// (a statement's plans are consecutive), tags counting them all.
	tagLog []tagRun
	tags   int32
	edits  []edit // rule-op rewrites and cut-off turn-offs
}

// newLowerer returns the state of a Lower over no plans, with room for
// the rules of n, recording undo logs when undo is set.
func newLowerer(t *topo.Topology, n int, undo bool) *lowerer {
	g := &lowerer{
		t:          t,
		ids:        t.Identities(),
		prog:       &Program{Tags: map[string][]int{}, Rules: make([]Rule, 0, n)},
		bound:      map[ruleKey]int{},
		classBound: map[classKey]bool{},
		sels:       map[string][]classSel{},
		trees:      map[*sinktree.Tree]*treeState{},
		nextTag:    firstTag,
		undo:       undo,
	}
	g.hops.prog = g.prog
	return g
}

// treeState is one sink tree's lowering state within a lowering: the
// tag its plans share and, while the cut-off holds, the product vertices
// whose path suffix has been lowered under that tag.
type treeState struct {
	tree  *sinktree.Tree
	index int32 // in the lowerer's treeLog
	tag   int
	// lowered is nil when the cut-off is off: the tree's graph carries
	// function tags (each source's path emits its own FnSpecs), or a retag
	// rewrote rules under the tree's tag that an earlier walk lowered.
	lowered []bool
}

// hop is one location of a path; consecutive steps at one location fold
// into it. vert is the product vertex the path entered last there, -1 on
// a decoded step list.
type hop struct {
	loc  topo.NodeID
	vert int
}

// hops streams a path's locations, from a decoded step list or straight
// off a sink tree's walk, appending the function placements of the steps
// it consumes to the program. It reads one step ahead, so it knows
// whether another location follows the one it returned last.
type hops struct {
	prog *Program
	stmt string
	// dst is the path's final location.
	dst      topo.NodeID
	steps    []logical.Step
	walk     sinktree.Walk
	fromTree bool
	// pend is the step read ahead, pendVert the vertex it enters; ok
	// reports whether there is one.
	pend     logical.Step
	pendVert int
	ok       bool
}

// fromSteps starts the stream on a decoded path.
func (h *hops) fromSteps(stmt string, steps []logical.Step) {
	h.stmt, h.steps, h.fromTree = stmt, steps, false
	if len(steps) > 0 {
		h.dst = steps[len(steps)-1].Loc
	}
	h.pend, h.pendVert, h.ok = h.step()
}

// fromWalk starts the stream on the tree path from src.
func (h *hops) fromWalk(stmt string, tr *sinktree.Tree, src topo.NodeID) {
	h.stmt, h.walk, h.fromTree, h.dst = stmt, tr.Walk(src), true, tr.Dst
	h.pend, h.pendVert, h.ok = h.step()
}

// step reads the stream's next step and the product vertex it enters.
func (h *hops) step() (logical.Step, int, bool) {
	if h.fromTree {
		e, ok := h.walk.Next()
		if !ok {
			return logical.Step{}, -1, false
		}
		return logical.Step{Loc: e.Entering, Tag: e.Tag}, e.To, true
	}
	if len(h.steps) == 0 {
		return logical.Step{}, -1, false
	}
	s := h.steps[0]
	h.steps = h.steps[1:]
	return s, -1, true
}

// next returns the path's next location, or false past its end.
func (h *hops) next() (hop, bool) {
	if !h.ok {
		return hop{}, false
	}
	cur := hop{loc: h.pend.Loc}
	for {
		if h.pend.Tag != "" {
			h.prog.Fns = append(h.prog.Fns, FnSpec{Node: h.pend.Loc, Fn: h.pend.Tag, Stmt: h.stmt})
		}
		cur.vert = h.pendVert
		h.pend, h.pendVert, h.ok = h.step()
		if !h.ok || h.pend.Loc != cur.loc {
			return cur, true
		}
	}
}

type ruleKey struct {
	sw   topo.NodeID
	vlan int
	in   topo.LinkID
}

// classKey identifies a classification rule: what selects the traffic
// (the destination host, or a rendered cube predicate with dst -1) at a
// (device, tag). A host's MAC is a function of its ID and distinct per
// host, so keying by the host is keying by the MAC the rule matches.
type classKey struct {
	sw   topo.NodeID
	vlan int
	dst  topo.NodeID
	sel  string
}

// classSel is one classification selector of a predicate: the cube its
// rule matches and the cube's rendered classKey selector.
type classSel struct {
	pred pred.Pred
	sel  string
}

// Lower turns plans into the target-neutral Program: path tags are
// allocated, classification and forwarding rules laid out with conflict
// retagging, function instances recorded, and, last, queues
// reserved by ReserveQueues at the guaranteed plans' rates (Alloc.Min).
// The output is deterministic in the plan list. The host-side sections,
// Caps and HostFns, are left to the caller: they read only the
// statements' allocations, so a caps-only change regenerates them
// without lowering again. A guaranteed rate reaches nothing but the
// queues, so a rate change that moves no path re-runs ReserveQueues over
// the lowered rules instead of lowering again. Plans that need more path
// tags than the VLAN space holds fail with a *TagSpaceError.
//
// Plans sharing a sink tree share its tag, and a tree's forwarding state
// is laid out once: every source's walk stops after the first product
// vertex whose path suffix an earlier walk lowered under the tree's tag
// (lowerPath), so lowering a tree costs its size, not sources × path
// length. Trees whose graph carries function tags walk full recovered
// paths, since each source emits its own FnSpecs.
//
// Lower is a Lowering resumed from no plans, without the undo logs a
// later resume would need: a caller that lowers lists sharing a prefix
// keeps a Lowering and resumes it past the prefix.
func Lower(t *topo.Topology, plans []Plan) (*Program, error) {
	g := newLowerer(t, len(plans), false)
	// Stable order: guaranteed paths first (their classification has
	// higher effective priority anyway), then by ID. The plans stay where
	// they are; their indices are sorted.
	order := make([]int32, len(plans))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(plans[b].Priority, plans[a].Priority) })
	var rates map[string]float64 // guaranteed plans' rates, by statement ID
	for _, i := range order {
		p := &plans[i]
		if p.Path != nil {
			if rates == nil {
				rates = map[string]float64{}
			}
			rates[p.ID] = p.Alloc.Min
		}
		if err := g.lowerPlan(p); err != nil {
			return nil, err
		}
	}
	if rates != nil { // else no guaranteed plan, so no queue op to reserve
		reserveQueues(g.prog, rates, true, true)
	}
	return g.prog, nil
}

// lowerPlan lowers one plan, after a checkpoint of the state before it
// when the lowerer records undo logs.
func (g *lowerer) lowerPlan(p *Plan) error {
	if g.undo {
		g.checkpoints = append(g.checkpoints, g.checkpoint())
	}
	switch {
	case p.Path != nil:
		tag, err := g.allocTag(p.ID)
		if err != nil {
			return fmt.Errorf("codegen: statement %s: %w", p.ID, err)
		}
		g.hops.fromSteps(p.ID, p.Path)
		if err := g.lowerPath(p, tag, true, nil); err != nil {
			return fmt.Errorf("codegen: statement %s: %w", p.ID, err)
		}
	case p.Tree != nil:
		ts := g.trees[p.Tree]
		if ts == nil {
			tag, err := g.allocTag(p.ID)
			if err != nil {
				return fmt.Errorf("codegen: statement %s: %w", p.ID, err)
			}
			ts = &treeState{tree: p.Tree, index: int32(len(g.treeLog)), tag: tag}
			if tg := p.Tree.Graph(); tg.TagSource == nil {
				ts.lowered = make([]bool, tg.NumVerts)
			}
			g.trees[p.Tree] = ts
			if g.undo {
				g.treeLog = append(g.treeLog, ts)
			}
		} else {
			g.appendTag(p.ID, ts.tag)
		}
		if !p.Tree.Reaches(p.SrcHost) {
			return fmt.Errorf("codegen: statement %s: %s cannot reach %s under the path constraint",
				p.ID, g.t.Node(p.SrcHost).Name, g.t.Node(p.DstHost).Name)
		}
		if ts.lowered != nil {
			g.hops.fromWalk(p.ID, p.Tree, p.SrcHost)
		} else {
			steps := p.Tree.PathFromBuf(g.stepBuf, p.SrcHost)
			if cap(steps) > cap(g.stepBuf) {
				g.stepBuf = steps[:0]
			}
			g.hops.fromSteps(p.ID, steps)
		}
		if err := g.lowerPath(p, ts.tag, false, ts); err != nil {
			return fmt.Errorf("codegen: statement %s: %w", p.ID, err)
		}
	default:
		return fmt.Errorf("codegen: statement %s has neither path nor tree", p.ID)
	}
	return nil
}

// Path tags are VLAN ids from firstTag to maxTag: ids 0 and 1 are
// reserved on real switches, and the top of the 12-bit space is left
// unused.
const (
	firstTag = 2
	maxTag   = 4093
)

// TagSpaceError reports a Lower call whose plans need more path tags
// than the VLAN tag space holds: one per guaranteed statement, per sink
// tree and per retag. Lower wraps it in the statement whose tag did not
// fit, and stops there.
type TagSpaceError struct {
	// Count is the number of tags asked for when the space ran out, the
	// one that did not fit included; Limit is the number the space holds.
	Count, Limit int
}

func (e *TagSpaceError) Error() string {
	return fmt.Sprintf("tag space exhausted: %d path tags needed, only %d fit", e.Count, e.Limit)
}

// allocTag hands plan id the next path tag, or a *TagSpaceError past
// maxTag.
func (g *lowerer) allocTag(id string) (int, error) {
	tag := g.nextTag
	if tag > maxTag {
		return 0, &TagSpaceError{Count: tag - firstTag + 1, Limit: maxTag - firstTag + 1}
	}
	g.nextTag++
	g.appendTag(id, tag)
	return tag, nil
}

// appendTag records tag as one of plan id's path tags.
func (g *lowerer) appendTag(id string, tag int) {
	g.prog.Tags[id] = append(g.prog.Tags[id], tag)
	if !g.undo {
		return
	}
	g.tags++
	if n := len(g.tagLog); n > 0 && g.tagLog[n-1].id == id {
		g.tagLog[n-1].n++
		return
	}
	g.tagLog = append(g.tagLog, tagRun{id: id, n: 1})
}

// lowerPath walks the path g.hops streams and lays out tag-switched
// forwarding rules, classification at the ingress device, and function
// instances for middlebox placements. A guaranteed path forwards through
// queue ops whose ids ReserveQueues fills in after lowering. Ops are only
// compared under one tag, and a guaranteed plan's tags are its own; within
// one plan every op on a port gets the same queue, so comparing ops before
// reservation shares and retags exactly as comparing them after would.
//
// On a sink tree's walk (ts.lowered set) it stops after the first
// location, from the ingress on, whose product vertex an earlier walk
// marked: the path from a vertex is a function of the vertex, so every
// later hop would find its (switch, tag, in-port) key bound with equal
// ops and change nothing. It marks the vertices it lowers as it goes. A
// retag rewrites rules under the tree's tag, so it turns the cut-off off
// for the rest of the lowering.
func (g *lowerer) lowerPath(p *Plan, tag int, guaranteed bool, ts *treeState) error {
	h := &g.hops
	prev, _ := h.next()
	cur, ok := h.next()
	if !ok {
		return fmt.Errorf("degenerate path")
	}
	if g.t.Node(prev.loc).Kind != topo.Host || g.t.Node(h.dst).Kind != topo.Host {
		return fmt.Errorf("path endpoints must be hosts")
	}
	locs := append(g.locBuf[:0], prev.loc, cur.loc)
	curTag := tag
	classified := false
	g.ingress = g.ingress[:0]
	for i := 1; ; i++ {
		nxt, ok := h.next()
		if !ok {
			break // cur is the destination
		}
		locs = append(locs, nxt.loc)
		g.locBuf = locs
		if g.t.Node(cur.loc).Kind == topo.Switch { // middlebox hops bounce; host interiors impossible
			retagged, err := g.lowerHop(p, locs, i, &curTag, !classified, guaranteed, !h.ok)
			if err != nil {
				return err
			}
			if retagged && ts != nil && ts.lowered != nil {
				if g.undo {
					g.edits = append(g.edits, edit{rule: -1, ts: ts, lowered: ts.lowered})
				}
				ts.lowered = nil
			}
			classified = true
		}
		if classified && ts != nil && ts.lowered != nil {
			if ts.lowered[cur.vert] {
				return nil
			}
			ts.lowered[cur.vert] = true
			if g.undo {
				g.markLog = append(g.markLog, mark{tree: ts.index, vert: int32(cur.vert)})
			}
		}
		cur = nxt
	}
	if !classified {
		return fmt.Errorf("path contains no switch")
	}
	return nil
}

// lowerHop lays out the rule of the switch at path position i, entered
// from locs[i-1] and left toward locs[i+1] (the last hop when that is the
// destination): the plan's classification at its ingress, a forwarding
// rule on *tag after it. A forwarding rule whose (switch, tag, in-port)
// is bound with equal ops is shared; one bound with other ops moves the
// path onto a fresh tag, which *tag then holds and retagged reports.
func (g *lowerer) lowerHop(p *Plan, locs []topo.NodeID, i int, tag *int, ingress, guaranteed, last bool) (retagged bool, err error) {
	node := locs[i]
	inLink, ok := g.t.FindLink(locs[i-1], node)
	if !ok {
		return false, fmt.Errorf("no link %s-%s", g.t.Node(locs[i-1]).Name, g.t.Node(node).Name)
	}
	outLink, ok := g.t.FindLink(node, locs[i+1])
	if !ok {
		return false, fmt.Errorf("no link %s-%s", g.t.Node(node).Name, g.t.Node(locs[i+1]).Name)
	}
	fwd := Op{Kind: OpForward, Port: outLink.ID}
	if guaranteed {
		fwd.Kind = OpForwardQueue // its queue is reserved after lowering
	}
	if ingress {
		// Ingress classification: untagged packets matching the
		// statement's predicate get the path tag.
		g.lowerClassification(p, node, inLink.ID, *tag, fwd, last)
		g.ingressAt = i
		return false, nil
	}
	var buf [2]Op // ops are allocated only for a rule that is appended
	ops := append(buf[:0], fwd)
	if last {
		ops = append(buf[:0], Op{Kind: OpClearTag}, fwd)
	}
	key := ruleKey{sw: node, vlan: *tag, in: inLink.ID}
	if idx, exists := g.bound[key]; exists {
		if sameOpsButQueue(g.prog.Rules[idx].Ops, ops) {
			return false, nil
		}
		// Conflict: this (device, tag, port) already forwards elsewhere.
		// Retag the previous hop onto a fresh tag.
		fresh, err := g.allocTag(p.ID)
		if err != nil {
			return false, err
		}
		if err := g.retagPrevious(p, locs, i, *tag, fresh); err != nil {
			return false, err
		}
		*tag, key.vlan, retagged = fresh, fresh, true
	}
	g.prog.Rules = append(g.prog.Rules, Rule{
		Device:   node,
		Priority: 500,
		Match:    Match{InPort: inLink.ID, Tag: *tag},
		Ops:      slices.Clone(ops),
		Stmt:     p.ID,
	})
	g.bound[key] = len(g.prog.Rules) - 1
	return retagged, nil
}

// retagPrevious rewrites the rule lowered for the hop before position i so
// the packet arrives with the fresh tag. When that hop is the ingress, the
// plan's own classification rules move onto the fresh tag; a rule another
// plan's selector reused is never edited.
func (g *lowerer) retagPrevious(p *Plan, locs []topo.NodeID, i, oldTag, fresh int) error {
	// Find the previous switch hop.
	for j := i - 1; j >= 1; j-- {
		if g.t.Node(locs[j]).Kind != topo.Switch {
			continue
		}
		if j == g.ingressAt && len(g.ingress) > 0 {
			for _, idx := range g.ingress {
				ops := slices.Clone(g.prog.Rules[idx].Ops)
				ops[0].Tag = fresh
				g.rewriteOps(idx, ops)
			}
			return nil
		}
		inLink, _ := g.t.FindLink(locs[j-1], locs[j])
		key := ruleKey{sw: locs[j], vlan: oldTag, in: inLink.ID}
		idx, ok := g.bound[key]
		if !ok {
			return fmt.Errorf("retag: no prior rule at %s", g.t.Node(locs[j]).Name)
		}
		g.rewriteOps(idx, append([]Op{{Kind: OpSetTag, Tag: fresh}}, g.prog.Rules[idx].Ops...))
		return nil
	}
	return fmt.Errorf("retag: no prior switch hop")
}

// rewriteOps replaces the ops of an earlier rule, logging the ones it
// had. Op slices are never written in place, so a Program that shares a
// rule's old slice keeps it.
func (g *lowerer) rewriteOps(idx int, ops []Op) {
	if g.undo {
		g.edits = append(g.edits, edit{rule: int32(idx), ops: g.prog.Rules[idx].Ops})
	}
	g.prog.Rules[idx].Ops = ops
}

// lowerClassification installs the ingress rules mapping untagged packets
// of the statement onto the path tag.
func (g *lowerer) lowerClassification(p *Plan, sw topo.NodeID, in topo.LinkID, tag int, fwd Op, last bool) {
	var buf [2]Op
	ops := append(buf[:0], Op{Kind: OpSetTag, Tag: tag}, fwd)
	if last {
		// Single-switch path: tag would be stripped immediately; skip
		// tagging altogether.
		ops = append(buf[:0], fwd)
	}
	switch p.Classify {
	case ByDestination:
		key := classKey{sw: sw, vlan: tag, dst: p.DstHost}
		if g.classBound[key] {
			return
		}
		g.bindClass(key)
		ident, _ := g.ids.Of(p.DstHost)
		g.ingress = append(g.ingress, len(g.prog.Rules))
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device:   sw,
			Priority: 100 + p.Priority,
			Match:    Match{InPort: AnyPort, Tag: TagNone, DstMAC: ident.MAC},
			Ops:      slices.Clone(ops),
			Stmt:     p.ID,
		})
	default:
		for _, s := range g.selectors(p) {
			key := classKey{sw: sw, vlan: tag, dst: -1, sel: s.sel}
			if g.classBound[key] {
				continue
			}
			g.bindClass(key)
			g.ingress = append(g.ingress, len(g.prog.Rules))
			g.prog.Rules = append(g.prog.Rules, Rule{
				Device:   sw,
				Priority: 100 + p.Priority,
				Match:    Match{InPort: in, Tag: TagNone, Pred: s.pred},
				Ops:      slices.Clone(ops),
				Stmt:     p.ID,
			})
		}
	}
}

func (g *lowerer) bindClass(key classKey) {
	g.classBound[key] = true
	if g.undo {
		g.classLog = append(g.classLog, key)
	}
}

// selectors returns the distinct classification selectors of the plan's
// predicate in first-occurrence cube order, expanding it at most once per
// statement and Lower. When the expansion is too large, the full
// predicate is the one selector.
func (g *lowerer) selectors(plan *Plan) []classSel {
	if sels, ok := g.sels[plan.ID]; ok {
		return sels
	}
	p := plan.Predicate
	cubes, err := pred.PositiveCubes(p)
	exact := err != nil
	if len(cubes) == 0 {
		cubes = [][]pred.Test{nil}
	}
	var sels []classSel
	seen := make(map[string]bool, len(cubes))
	for _, cube := range cubes {
		cubePred := p
		if !exact {
			cubePred = cubeToPred(cube)
		}
		sel := "p/" + pred.Format(cubePred)
		if seen[sel] {
			continue
		}
		seen[sel] = true
		sels = append(sels, classSel{pred: cubePred, sel: sel})
	}
	g.sels[plan.ID] = sels
	if g.undo {
		g.selLog = append(g.selLog, plan.ID)
	}
	return sels
}

func cubeToPred(cube []pred.Test) pred.Pred {
	ps := make([]pred.Pred, len(cube))
	for i, t := range cube {
		ps[i] = t
	}
	return pred.Conj(ps...)
}

// sameOpsButQueue reports whether two op lists are equal but for queue
// ids: the comparison lowerHop makes between a bound rule and a hop's
// fresh ops, which carry no queue yet. A resumed lowering's bound rules
// may hold the queues a handed-out Program reserved (Lowering.Resume), and
// ignoring them compares such a rule as it was before reservation. Nothing
// else can differ in queue alone: the lowerer compares ops under one tag,
// a guaranteed plan's tags are its own, and within one plan every op on a
// port gets the same queue.
func sameOpsButQueue(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Queue, y.Queue = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// FormatOps renders an op sequence compactly ("set_tag:2,forward:5") —
// shared by diagnostics and backends that want a canonical action name.
func FormatOps(ops []Op) string {
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpForward:
			parts = append(parts, fmt.Sprintf("forward:%d", op.Port))
		case OpForwardQueue:
			parts = append(parts, fmt.Sprintf("forward_queue:%d:%d", op.Port, op.Queue))
		case OpSetTag:
			parts = append(parts, fmt.Sprintf("set_tag:%d", op.Tag))
		case OpClearTag:
			parts = append(parts, "clear_tag")
		}
	}
	return strings.Join(parts, ",")
}
