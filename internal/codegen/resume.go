package codegen

import (
	"fmt"
	"maps"
	"slices"

	"merlin/internal/topo"
)

// checkpoint is the lowerer's state before one plan: the lengths of what
// only grows, and the next free path tag.
type checkpoint struct {
	rules, fns, nextTag                      int32
	classes, marks, trees, sels, tags, edits int32
}

// mark is one product vertex a tree's cut-off marked lowered, the tree
// named by its index in the treeLog.
type mark struct {
	tree, vert int32
}

// tagRun is n consecutive Tags appends to statement id.
type tagRun struct {
	id string
	n  int32
}

// edit is one write to state that existed before it: the ops a retag
// replaced on rule (rule ≥ 0), or the marks a retag turned a tree's
// cut-off off with (rule -1).
type edit struct {
	rule    int32
	ops     []Op
	ts      *treeState
	lowered []bool
}

func (g *lowerer) checkpoint() checkpoint {
	return checkpoint{
		rules: int32(len(g.prog.Rules)), fns: int32(len(g.prog.Fns)), nextTag: int32(g.nextTag),
		classes: int32(len(g.classLog)), marks: int32(len(g.markLog)), trees: int32(len(g.treeLog)),
		sels: int32(len(g.selLog)), tags: g.tags, edits: int32(len(g.edits)),
	}
}

// rollback returns the state to the one before plan keep, as if no later
// plan had been lowered, but for the rules: it returns the ops a later
// retag rewrote on an earlier rule, most recent first, so that applying
// them in order restores each rule's, and leaves the rules to the caller
// to cut at cp.rules. Edits revert first, so each tree's marks are back
// in place when they are cleared. The function-instance and tag slices
// are cut to their capacity, so appending to them again never writes an
// element a Program handed out earlier still holds.
func (g *lowerer) rollback(keep int) (cp checkpoint, restore []edit) {
	cp = g.checkpoints[keep]
	for i := len(g.edits) - 1; i >= int(cp.edits); i-- {
		e := g.edits[i]
		switch {
		case e.rule < 0:
			e.ts.lowered = e.lowered
		case e.rule < cp.rules:
			restore = append(restore, e)
		}
	}
	for _, m := range g.markLog[cp.marks:] {
		g.treeLog[m.tree].lowered[m.vert] = false
	}
	for _, k := range g.classLog[cp.classes:] {
		delete(g.classBound, k)
	}
	for _, ts := range g.treeLog[cp.trees:] {
		delete(g.trees, ts.tree)
	}
	for _, id := range g.selLog[cp.sels:] {
		delete(g.sels, id)
	}
	for undo := g.tags - cp.tags; undo > 0; {
		run := &g.tagLog[len(g.tagLog)-1]
		k := min(run.n, undo)
		if tags := g.prog.Tags[run.id]; len(tags) > int(k) {
			n := len(tags) - int(k)
			g.prog.Tags[run.id] = tags[:n:n]
		} else {
			delete(g.prog.Tags, run.id)
		}
		if run.n -= k; run.n == 0 {
			g.tagLog = g.tagLog[:len(g.tagLog)-1]
		}
		undo -= k
	}
	g.tags = cp.tags
	// A forwarding rule's bound key is its own (device, tag, in-port)
	// match, and only forwarding rules match a tag.
	for _, r := range g.prog.Rules[cp.rules:] {
		if r.Match.Tag >= 0 {
			delete(g.bound, ruleKey{sw: r.Device, vlan: r.Match.Tag, in: r.Match.InPort})
		}
	}
	g.prog.Fns = g.prog.Fns[:cp.fns:cp.fns]
	g.nextTag = int(cp.nextTag)
	g.classLog = g.classLog[:cp.classes]
	g.markLog = g.markLog[:cp.marks]
	clear(g.treeLog[cp.trees:])
	g.treeLog = g.treeLog[:cp.trees]
	g.selLog = g.selLog[:cp.sels]
	clear(g.edits[cp.edits:])
	g.edits = g.edits[:cp.edits]
	g.checkpoints = g.checkpoints[:keep]
	return cp, restore
}

// reset empties the state, as a rollback to no plans does, keeping the
// room its maps and logs have grown to. Handed-out Programs hold the
// function instances, and may hold the rules, so those start over in
// fresh slices.
func (g *lowerer) reset() {
	clear(g.bound)
	clear(g.classBound)
	clear(g.sels)
	clear(g.trees)
	clear(g.prog.Tags)
	if g.shared {
		g.prog.Rules, g.shared = nil, false
	} else {
		clear(g.prog.Rules)
		g.prog.Rules = g.prog.Rules[:0]
	}
	g.prog.Fns = nil
	g.nextTag = firstTag
	g.checkpoints = g.checkpoints[:0]
	g.classLog = g.classLog[:0]
	g.markLog = g.markLog[:0]
	clear(g.treeLog)
	g.treeLog = g.treeLog[:0]
	g.selLog = g.selLog[:0]
	g.tagLog, g.tags = g.tagLog[:0], 0
	clear(g.edits)
	g.edits = g.edits[:0]
}

// Lowering is a resumable Lower: the lowerer's state after a plan list,
// with a checkpoint before each plan and an undo log of everything a
// later plan wrote to earlier state (dedup-map insertions, tree cut-off
// marks and turn-offs, tag and selector entries, and the ops a retag
// rewrote on an earlier rule). A caller that lowers successive plan lists
// sharing a prefix keeps one Lowering and resumes it past the prefix: the
// state rolls back to the prefix by popping the log, and only the plans
// after it are lowered. Plan priority is the caller's to keep equal: the
// resumed list must be in the order Lower would sort it, and so must the
// prefix be.
//
// After a Resume that returned an error the state is undefined; the
// caller drops it and starts from NewLowering.
type Lowering struct {
	g *lowerer
}

// NewLowering returns the state of a Lower over no plans on t.
func NewLowering(t *topo.Topology) *Lowering {
	return &Lowering{g: newLowerer(t, 0, true)}
}

// Len returns the number of plans the state has lowered.
func (l *Lowering) Len() int { return len(l.g.checkpoints) }

// Size reports what the state retains: the entries of its dedup, memo
// and tag maps, and the length of its undo logs (checkpoints included).
// A state rolled back to a plan list retains what one that lowered the
// list from scratch does.
func (l *Lowering) Size() (entries, log int) {
	g := l.g
	entries = len(g.bound) + len(g.classBound) + len(g.sels) + len(g.trees) + len(g.prog.Tags)
	log = len(g.checkpoints) + len(g.classLog) + len(g.markLog) + len(g.treeLog) + len(g.selLog) + len(g.tagLog) + len(g.edits)
	return entries, log
}

// Resume rolls the state back to its first keep plans and lowers plans
// after them, so it holds the list of those keep plans followed by
// plans, which must already be in Lower's order. It returns that list's
// Program with queues reserved at rates (the guaranteed rate of every
// statement with a path plan, by ID): the Program Lower gives for the
// whole list, the host-side sections left to the caller. The Program
// shares its rules with the state, which never writes them again.
//
// prev is the Program this state's last list was handed out as, or one
// ReserveQueues made from it; nil when there is none. The result never
// writes prev: its first kept rules are prev's, but at the indices in
// moved (ascending), whose ops a rollback restored, a retag of the new
// plans rewrote, or whose queue moved; the others share prev's op
// slices. A backend renders only the rules at moved and from kept on
// (PatchOpenFlow). With no prev, kept is 0.
func (l *Lowering) Resume(prev *Program, keep int, plans []Plan, rates map[string]float64) (prog *Program, kept int, moved []int, err error) {
	g := l.g
	if keep > l.Len() {
		return nil, 0, nil, fmt.Errorf("codegen: resume past the %d plans lowered, at %d", l.Len(), keep)
	}
	if keep == 0 {
		g.reset()
		g.prog.Rules = slices.Grow(g.prog.Rules, len(plans))
	} else {
		// The kept rules are prev's, whose queues are reserved at the
		// last rates, with the ops the rollback restores; the state's
		// own hold the same rules but may be a handed-out Program's.
		cp := g.checkpoint()
		var restore []edit
		if keep < l.Len() {
			cp, restore = g.rollback(keep)
		}
		from := g.prog
		if prev != nil && len(prev.Rules) >= int(cp.rules) {
			from, kept = prev, int(cp.rules)
		}
		rules := make([]Rule, cp.rules, int(cp.rules)+len(plans))
		copy(rules, from.Rules)
		for _, e := range restore {
			rules[e.rule].Ops = e.ops
			moved = append(moved, int(e.rule))
		}
		g.prog.Rules, g.shared = rules, false
	}
	g.checkpoints = slices.Grow(g.checkpoints, len(plans))
	edits := len(g.edits)
	for i := range plans {
		if err := g.lowerPlan(&plans[i]); err != nil {
			return nil, 0, nil, err
		}
	}
	for _, e := range g.edits[edits:] {
		if e.rule >= 0 && int(e.rule) < kept { // a retag rewrote a kept rule
			moved = append(moved, int(e.rule))
		}
	}
	g.prog.Queues = nil
	if len(rates) > 0 {
		_, fresh := reserveQueues(g.prog, rates, true, false)
		for _, i := range fresh {
			if i >= kept {
				break
			}
			moved = append(moved, i)
		}
	}
	if kept == 0 {
		moved = nil
	}
	slices.Sort(moved)
	moved = slices.Compact(moved)
	prog = &Program{Rules: g.prog.Rules, Queues: g.prog.Queues, Tags: maps.Clone(g.prog.Tags)}
	if len(g.prog.Fns) > 0 {
		prog.Fns = g.prog.Fns[:len(g.prog.Fns):len(g.prog.Fns)]
	}
	g.shared = true
	return prog, kept, moved, nil
}
