package merlin

import (
	"merlin/internal/negotiate"
	"merlin/internal/policy"
)

// Run-time negotiation (§4), re-exported from the negotiate substrate. A
// Hub is the one negotiator: it holds the global policy, delegates
// statements to tenant sessions, and scales to 10⁴–10⁵ of them — sessions
// shard by the same link-disjoint partition provisioning uses
// (NegotiationShards), demand updates coalesce into one batched AIMD or
// max-min fair-share tick per window, and proposals verify incrementally
// against a fingerprint cache with admission control on failure.
type (
	// Hub is the sharded, batching negotiator.
	Hub = negotiate.Hub
	// HubOptions tunes a Hub.
	HubOptions = negotiate.HubOptions
	// HubStats is a snapshot of a Hub's negotiation counters.
	HubStats = negotiate.HubStats
	// Session is one tenant's live negotiation session on a Hub.
	Session = negotiate.Session
	// AIMDState is a tenant's additive-increase/multiplicative-decrease
	// rate controller, the per-session tick policy.
	AIMDState = negotiate.AIMDState
	// TickReport summarizes one batched hub tick.
	TickReport = negotiate.TickReport
)

// NewHub creates a negotiation hub over the administrator's global
// policy. Compile hub.Policy() — the canonicalized form — when
// binding a compiler, or just call Compiler.WatchHub which checks in on
// every commit.
func NewHub(pol *Policy, opts HubOptions) (*Hub, error) {
	return negotiate.NewHub(pol, opts)
}

// WatchHub binds the compiler to a negotiation hub: every committed
// batched tick or accepted proposal recompiles the new global policy
// through the artifact caches and hands the device-level diff to onDiff
// (which may be nil). A compilation error vetoes the commit — the hub
// rolls its controllers back, so negotiation and compiled state never
// diverge.
//
// The binding is exclusive on both sides: a compiler follows at most
// one hub, and a hub commits into at most one compiler (its single
// commit callback). Rebinding to a different hub detaches the old one —
// its commits stop reaching this compiler — and WatchHub-ing one hub
// onto a second compiler moves the hub's callback there. UnwatchHub
// drops the binding entirely.
//
// Ticks are cheap by construction: a batched tick only moves caps and
// guarantees on an unchanged statement set, so cap movements take the
// patched-codegen fast path and guarantee movements re-solve only the
// provisioning shards they touch, warm-started from the previous basis.
// After binding, Stats mirrors the hub's counters (TenantsActive,
// TicksBatched, VerifyCacheHits, ProposalsRejected).
func (c *Compiler) WatchHub(h *Hub, onDiff func(*Diff)) {
	c.mu.Lock()
	old := c.hub
	c.hub = h
	c.mu.Unlock()
	// Callback swaps happen outside c.mu: OnCommit takes the hub lock,
	// which a committing tick holds while it recompiles through c.mu —
	// the compiler lock must never wait on a hub lock.
	if old != nil && old != h {
		old.OnCommit(nil)
	}
	h.OnCommit(func(pol *policy.Policy, pathsChanged bool) error {
		diff, err := c.compileDiff(pol)
		if err != nil {
			return err
		}
		if onDiff != nil {
			onDiff(diff)
		}
		return nil
	})
}

// UnwatchHub detaches the bound hub, if any: its commits no longer
// reach this compiler, and Stats stops mirroring its counters.
func (c *Compiler) UnwatchHub() {
	c.mu.Lock()
	old := c.hub
	c.hub = nil
	c.mu.Unlock()
	if old != nil {
		old.OnCommit(nil)
	}
}

// NegotiationShards returns the link-disjoint shard grouping the last
// provisioning pass computed: each element lists the statement IDs of one
// shard, in input order. This is the partition to key hub shards by
// (Hub.AddShard + Register) — a batched tick over one group re-solves
// only that provisioning shard. Statements without bandwidth guarantees
// occupy no capacity, couple with nothing, and each form their own
// single-statement shard; nil before the first provisioning pass.
func (c *Compiler) NegotiationShards() [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prov == nil {
		return nil
	}
	out := make([][]string, 0, len(c.prov.Shards))
	for _, sh := range c.prov.Shards {
		ids := make([]string, len(sh.Requests))
		for i, r := range sh.Requests {
			ids[i] = r.ID
		}
		out = append(out, ids)
	}
	return out
}
