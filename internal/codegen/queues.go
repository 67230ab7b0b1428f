package codegen

import (
	"slices"

	"merlin/internal/topo"
)

// queueKey identifies a queue reservation: one queue per (switch, port,
// rate).
type queueKey struct {
	sw     topo.NodeID
	port   topo.LinkID
	minBps float64
}

// ReserveQueues is queue reservation, the last pass of lowering. It walks
// prog's rules in order and gives each OpForwardQueue op a queue on its
// port sized by the guaranteed rate of the rule's statement (rates, by
// statement ID), then rebuilds prog.Queues from what it reserved.
//
// The sharing rule: one queue per (switch, port, rate), so guarantees of
// equal rate leaving one port share one queue reserved at that single
// rate, not at their sum. Queue ids are numbered per port from 1 in
// first-use order.
//
// A rate sizes queues and nothing else in the IR, so re-running this pass
// at new rates over a Program lowered at old ones yields the Program
// Lower would at the new rates. The pass is copy-on-write: prog, its
// rules and their op slices are never written. A rule whose queue id
// moves gets a fresh op slice in a fresh rule slice, and prog itself is
// returned when no queue id and no reservation moved.
//
// moved lists, in ascending order, the indices of the rules given a
// fresh op slice; every other rule of the result equals prog's and
// shares its op slice. It is what a backend re-renders (PatchOpenFlow):
// the result may be a new Program with no rule moved, when only a
// reservation did.
func ReserveQueues(prog *Program, rates map[string]float64) (out *Program, moved []int) {
	p := *prog
	changed, moved := reserveQueues(&p, rates, false)
	if !changed {
		return prog, nil
	}
	return &p, moved
}

// reserveQueues runs the pass on p's own sections: it sets p.Queues and
// each queue op's id, and reports whether any id or reservation moved.
// owned says p's rules and op slices are the caller's to write, as
// Lower's fresh ones are; otherwise p.Rules becomes a fresh slice, and a
// rule's op slice a fresh one, before the first write to either, and
// fresh lists the rules given one.
func reserveQueues(p *Program, rates map[string]float64, owned bool) (moved bool, fresh []int) {
	var queues []QueueConfig
	bound := map[queueKey]int{}
	next := map[topo.LinkID]int{}
	idMoved := false
	for i := range p.Rules {
		r := &p.Rules[i]
		opsFresh := owned
		for j, op := range r.Ops {
			if op.Kind != OpForwardQueue {
				continue
			}
			key := queueKey{sw: r.Device, port: op.Port, minBps: rates[r.Stmt]}
			q, ok := bound[key]
			if !ok {
				q = next[op.Port] + 1
				next[op.Port] = q
				bound[key] = q
				queues = append(queues, QueueConfig{Switch: r.Device, Port: op.Port, Queue: q, MinBps: key.minBps})
			}
			if q == op.Queue {
				continue
			}
			if !owned && !idMoved {
				p.Rules = slices.Clone(p.Rules)
				r = &p.Rules[i]
			}
			idMoved = true
			if !opsFresh {
				r.Ops, opsFresh = slices.Clone(r.Ops), true
				fresh = append(fresh, i)
			}
			r.Ops[j].Queue = q
		}
	}
	moved = idMoved || !slices.Equal(queues, p.Queues)
	p.Queues = queues
	return moved, fresh
}
