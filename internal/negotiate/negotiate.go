// Package negotiate implements Merlin's run-time negotiation (§4): a Hub
// holds the administrator's global policy, delegates statements to tenant
// sessions, verifies tenant refinements against their delegations, and
// re-allocates bandwidth in batched ticks. Bandwidth re-allocation needs
// no recompilation of paths and is fast; path-constraint changes require
// global recompilation (§4.3) and are surfaced to the caller.
//
// Two allocation schemes from the paper's evaluation drive the ticks:
// additive-increase/multiplicative-decrease and max-min fair sharing
// (Fig. 10).
package negotiate

import (
	"sort"

	"merlin/internal/policy"
)

// CommitFunc observes accepted policy changes. It runs after verification
// succeeds but before the hub's policy is replaced; returning an error
// vetoes the change, leaving the old policy in place — this is how a
// driving compiler makes negotiation ticks atomic with recompilation.
// pathsChanged reports whether any path expression changed (the §4.3
// global-recompilation trigger); pure bandwidth re-allocations pass false.
type CommitFunc func(pol *policy.Policy, pathsChanged bool) error

// pathsChanged reports whether any refined statement narrows a path
// expression (syntactic comparison; equal strings cannot change routing).
func pathsChanged(orig, refined *policy.Policy) bool {
	exprs := map[string]bool{}
	for _, s := range orig.Statements {
		exprs[s.Path.String()] = true
	}
	for _, s := range refined.Statements {
		if !exprs[s.Path.String()] {
			return true
		}
	}
	return false
}

// MaxMinFairShare allocates capacity among declared demands max-min
// fairly: demands are satisfied smallest-first, and remaining bandwidth is
// split among the unsatisfied (§6.3's MMFS negotiator). The result has one
// entry per demand, in input order.
func MaxMinFairShare(capacity float64, demands []float64) []float64 {
	alloc := make([]float64, len(demands))
	if len(demands) == 0 || capacity <= 0 {
		return alloc
	}
	type entry struct {
		idx    int
		demand float64
	}
	order := make([]entry, len(demands))
	for i, d := range demands {
		order[i] = entry{i, d}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].demand < order[j].demand })
	remaining := capacity
	for k, e := range order {
		share := remaining / float64(len(order)-k)
		give := e.demand
		if give > share {
			give = share
		}
		if give < 0 {
			give = 0
		}
		alloc[e.idx] = give
		remaining -= give
	}
	// Distribute leftover to unsatisfied demands (all demands met and
	// capacity remains: leave it unallocated, matching declared-demand
	// semantics).
	return alloc
}

// AIMDState is one tenant's additive-increase/multiplicative-decrease
// controller over its bandwidth cap.
type AIMDState struct {
	// Alloc is the tenant's current allocation (its cap).
	Alloc float64
	// Increase is the additive probe step per round.
	Increase float64
	// Decrease is the multiplicative back-off factor on congestion.
	Decrease float64
}

// Update advances the controller one round: used is the bandwidth the
// tenant actually achieved, congested reports whether the shared resource
// was oversubscribed this round.
func (s *AIMDState) Update(used float64, congested bool) {
	if congested {
		s.Alloc *= s.Decrease
		if s.Alloc < s.Increase {
			s.Alloc = s.Increase
		}
		return
	}
	// Probe for more only when the current allocation is actually used.
	if used >= 0.9*s.Alloc {
		s.Alloc += s.Increase
	}
}
