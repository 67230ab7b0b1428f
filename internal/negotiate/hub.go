package negotiate

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"merlin/internal/policy"
	"merlin/internal/verify"
)

// Hub is the negotiator (§4): one coordinator holding the global policy
// and every tenant's delegation, from two sessions on one link (Fig. 10)
// to 10⁴–10⁵ live sessions. Three ideas let it scale where a negotiator
// object per tenant cannot:
//
//   - Sharding. Sessions are grouped into shards keyed by the same
//     link-disjoint partition provisioning uses (Compiler.
//     NegotiationShards, or any caller-chosen disjoint grouping): a
//     demand update or reallocation only touches its shard's sessions
//     and capacity pool, never the global session set.
//   - Batched ticks. Demand updates coalesce into per-shard pending maps
//     (OfferDemand is O(1) and lock-local to the shard); one Tick drains
//     every shard, advances the controllers shard-parallel over a worker
//     pool, and commits a single recompiled formula — one compiler pass
//     per window instead of one per tenant.
//   - Incremental verification with admission control. A Propose is
//     verified against the session's delegated baseline through a
//     verify.Cache — an unchanged child is a fingerprint hit — and a
//     failed containment check rejects the proposal outright instead of
//     recompiling.
//     Reallocation ticks skip verification entirely: every emitted
//     allocation is clamped to the session's delegated budget, so the
//     refinement holds by construction.
//
// Ticks are deterministic: the same demand sequence produces identical
// allocations for any Workers value and any OfferDemand interleaving
// within a window, because pending demands are keyed by tenant (last
// write wins), sessions advance independently against a shard-order
// congestion test, and results merge in shard order.
//
// All methods are safe for concurrent use. OfferDemand never blocks on a
// running Tick's compile; Propose and Tick serialize on the hub lock.
type Hub struct {
	mu sync.Mutex
	// pol is the current committed global policy. Its formula is always
	// the canonical per-statement form (one Max/Min term per constrained
	// statement, in statement order) so ticks rebuild it in one pass.
	pol *policy.Policy
	// allocs is the current per-statement localized allocation — the
	// formula is rendered from it, in statement order.
	allocs   map[string]policy.Alloc
	stmtIdx  map[string]int
	owner    map[string]*Session // statement ID → owning session
	shards   []*hubShard
	shardIdx map[string]int
	sessions map[string]*Session
	opts     HubOptions
	cache    *verify.Cache
	onCommit CommitFunc

	ticksBatched      int
	demandsBatched    int
	allocsChanged     int
	proposalsAccepted int
	proposalsRejected int
}

// HubOptions tune a Hub.
type HubOptions struct {
	// Workers bounds the shard-tick worker pool (0 = one per shard, the
	// pool the compiler's provisioning stage also uses).
	Workers int
	// MMFS ticks divide each shard's capacity max-min fairly across the
	// declared demands instead of running per-session AIMD controllers.
	MMFS bool
}

// HubStats is a snapshot of the hub counters.
type HubStats struct {
	// TenantsActive is the number of registered sessions.
	TenantsActive int
	// TicksBatched counts Tick calls that drained at least one demand.
	TicksBatched int
	// DemandsBatched counts demand updates drained by ticks (several
	// updates from one tenant within a window coalesce into one).
	DemandsBatched int
	// AllocsChanged counts session allocations moved by ticks.
	AllocsChanged int
	// ProposalsAccepted and ProposalsRejected count Propose outcomes;
	// rejections are admission control — no recompile happens.
	ProposalsAccepted int
	ProposalsRejected int
	// VerifyCacheHits/Misses mirror the verification cache's policy-level
	// counters.
	VerifyCacheHits   int
	VerifyCacheMisses int
}

type hubShard struct {
	name     string
	capacity float64
	members  []*Session // sorted by tenant name once sealed
	sorted   bool

	mu      sync.Mutex
	pending map[string]float64
}

// Session is one tenant's live negotiation session on a Hub.
type Session struct {
	// Tenant is the session's unique name.
	Tenant string

	hub   *Hub
	shard *hubShard
	// stmtIDs are the global-policy statements the session owns, in
	// global statement order.
	stmtIDs []string
	// baseline is the delegated sub-policy Propose verifies against: the
	// owned statements plus their allocation budget at registration.
	baseline *policy.Policy
	// budgetMax/budgetMin bound the aggregate allocation a tick may emit:
	// n×(smallest per-statement budget), so the equal split across the
	// session's statements respects every per-statement budget.
	budgetMax, budgetMin float64
	// guarantee sessions renegotiate their statements' guarantees (Min
	// terms); default sessions renegotiate caps (Max terms).
	guarantee bool

	aimd   AIMDState
	demand float64
	alloc  float64
}

// NewHub creates a hub over the administrator's global policy. The
// formula must be a conjunction of max/min terms (the negotiator fragment
// of §4); it is canonicalized into per-statement terms, so compile
// hub.Policy() — not the original — when binding a compiler.
func NewHub(pol *policy.Policy, opts HubOptions) (*Hub, error) {
	allocs, err := policy.Localize(pol.Formula, nil)
	if err != nil {
		return nil, err
	}
	h := &Hub{
		allocs:   allocs,
		stmtIdx:  make(map[string]int, len(pol.Statements)),
		owner:    map[string]*Session{},
		shardIdx: map[string]int{},
		sessions: map[string]*Session{},
		opts:     opts,
		cache:    verify.NewCache(),
	}
	for i, s := range pol.Statements {
		if _, dup := h.stmtIdx[s.ID]; dup {
			return nil, fmt.Errorf("negotiate: duplicate statement %q", s.ID)
		}
		h.stmtIdx[s.ID] = i
	}
	h.pol = &policy.Policy{Statements: pol.Statements}
	h.pol.Formula = h.renderFormula(h.pol.Statements)
	return h, nil
}

// Policy returns the hub's current global policy (canonical formula).
func (h *Hub) Policy() *policy.Policy {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pol
}

// Allocations returns a copy of the current per-statement allocations.
func (h *Hub) Allocations() map[string]policy.Alloc {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]policy.Alloc, len(h.allocs))
	for id, a := range h.allocs {
		out[id] = a
	}
	return out
}

// OnCommit registers fn to observe (and possibly veto) every committed
// tick or accepted proposal — this is how Compiler.WatchHub makes
// negotiation atomic with recompilation. fn is called with the hub lock
// held and must not call back into the hub.
func (h *Hub) OnCommit(fn CommitFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onCommit = fn
}

// Stats returns a snapshot of the hub counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	st := HubStats{
		TenantsActive:     len(h.sessions),
		TicksBatched:      h.ticksBatched,
		DemandsBatched:    h.demandsBatched,
		AllocsChanged:     h.allocsChanged,
		ProposalsAccepted: h.proposalsAccepted,
		ProposalsRejected: h.proposalsRejected,
	}
	h.mu.Unlock()
	cs := h.cache.Stats()
	st.VerifyCacheHits = cs.Hits
	st.VerifyCacheMisses = cs.Misses
	return st
}

// AddShard declares a negotiation shard: a named, link-disjoint capacity
// pool sessions contend within. Use Compiler.NegotiationShards to derive
// the grouping provisioning already computed, or any caller-known
// disjoint partition (per pod, per tenant cluster).
func (h *Hub) AddShard(name string, capacity float64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.shardIdx[name]; dup {
		return fmt.Errorf("negotiate: shard %q already exists", name)
	}
	if capacity <= 0 {
		return fmt.Errorf("negotiate: shard %q needs positive capacity", name)
	}
	h.shardIdx[name] = len(h.shards)
	h.shards = append(h.shards, &hubShard{
		name:     name,
		capacity: capacity,
		pending:  map[string]float64{},
	})
	return nil
}

// Register adds a tenant session owning the given global-policy
// statements to a shard. The session's verification baseline — the §5
// delegation — is the owned statements with their current allocations;
// registration itself never changes the committed policy. ctrl seeds the
// session's AIMD controller. A statement belongs to at most one session.
func (h *Hub) Register(tenant, shard string, stmtIDs []string, ctrl AIMDState) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.sessions[tenant]; dup {
		return nil, fmt.Errorf("negotiate: session %q already registered", tenant)
	}
	si, ok := h.shardIdx[shard]
	if !ok {
		return nil, fmt.Errorf("negotiate: unknown shard %q", shard)
	}
	if len(stmtIDs) == 0 {
		return nil, fmt.Errorf("negotiate: session %q owns no statements", tenant)
	}
	idxs := make([]int, len(stmtIDs))
	for i, id := range stmtIDs {
		idx, ok := h.stmtIdx[id]
		if !ok {
			return nil, fmt.Errorf("negotiate: unknown statement %q", id)
		}
		if prev := h.owner[id]; prev != nil {
			return nil, fmt.Errorf("negotiate: statement %q already owned by session %q", id, prev.Tenant)
		}
		idxs[i] = idx
	}
	sort.Ints(idxs)
	sh := h.shards[si]
	s := &Session{Tenant: tenant, hub: h, shard: sh, aimd: ctrl}
	s.stmtIDs = make([]string, len(idxs))
	s.budgetMax, s.budgetMin = math.Inf(1), math.Inf(1)
	sub := &policy.Policy{}
	agg := 0.0
	for i, idx := range idxs {
		st := h.pol.Statements[idx]
		s.stmtIDs[i] = st.ID
		sub.Statements = append(sub.Statements, st)
		a := h.alloc(st.ID)
		if a.Max < s.budgetMax {
			s.budgetMax = a.Max
		}
		if a.Min < s.budgetMin {
			s.budgetMin = a.Min
		}
		agg += a.Max
	}
	n := float64(len(idxs))
	s.budgetMax *= n
	s.budgetMin *= n
	sub.Formula = h.renderFormula(sub.Statements)
	s.baseline = sub
	// The session starts at its current committed allocation, so nothing
	// changes until its first tick.
	s.alloc = agg
	for _, id := range s.stmtIDs {
		h.owner[id] = s
	}
	h.sessions[tenant] = s
	sh.members = append(sh.members, s)
	sh.sorted = false
	return s, nil
}

// Guarantee switches the session's ticks to renegotiate bandwidth
// guarantees (Min terms) instead of caps: every committed allocation
// re-provisions the session's shard through the bound compiler,
// warm-started from the previous basis. Call before the first tick.
func (s *Session) Guarantee() *Session {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	s.guarantee = true
	agg := 0.0
	for _, id := range s.stmtIDs {
		agg += h.alloc(id).Min
	}
	s.alloc = agg
	return s
}

// OfferDemand records the tenant's current offered load for the next
// tick. It is lock-local to the session's shard and never blocks on a
// running tick's compile; several offers within one window coalesce
// (last write wins).
func (s *Session) OfferDemand(bps float64) {
	sh := s.shard
	sh.mu.Lock()
	sh.pending[s.Tenant] = bps
	sh.mu.Unlock()
}

// Alloc returns the session's current aggregate allocation.
func (s *Session) Alloc() float64 {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.alloc
}

func (h *Hub) alloc(id string) policy.Alloc {
	if a, ok := h.allocs[id]; ok {
		return a
	}
	return policy.Unconstrained
}

// renderFormula rebuilds the canonical global formula from the current
// per-statement allocations, in statement order — one pass, so a batched
// tick is O(statements) regardless of how many demands it coalesced.
func (h *Hub) renderFormula(stmts []policy.Statement) policy.Formula {
	terms := make([]policy.Formula, 0, len(stmts))
	for _, s := range stmts {
		a, ok := h.allocs[s.ID]
		if !ok {
			continue
		}
		if !math.IsInf(a.Max, 1) {
			terms = append(terms, policy.Max{Expr: policy.BandExpr{IDs: []string{s.ID}}, Rate: a.Max})
		}
		if a.Min > 0 {
			terms = append(terms, policy.Min{Expr: policy.BandExpr{IDs: []string{s.ID}}, Rate: a.Min})
		}
	}
	return policy.ConjFormula(terms...)
}

// TickReport summarizes one Tick.
type TickReport struct {
	// Demands is the number of coalesced demand updates drained.
	Demands int
	// Changed is the number of sessions whose allocation moved.
	Changed int
	// Committed reports whether a new formula was committed.
	Committed bool
}

// sessionUndo captures one session's controller state for rollback when
// a commit is vetoed.
type sessionUndo struct {
	s     *Session
	aimd  AIMDState
	alloc float64
}

// Tick drains every shard's pending demands, advances the allocation
// controllers shard-parallel, and commits the coalesced result as one
// new bandwidth formula (one recompile per window, via OnCommit). Shards
// with no pending demand are skipped entirely. A vetoed commit rolls the
// controllers back and returns the veto error.
func (h *Hub) Tick() (TickReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rep TickReport
	// Drain: snapshot and replace each shard's pending map.
	type work struct {
		sh      *hubShard
		pending map[string]float64
	}
	var works []work
	for _, sh := range h.shards {
		sh.mu.Lock()
		if len(sh.pending) > 0 {
			works = append(works, work{sh: sh, pending: sh.pending})
			sh.pending = make(map[string]float64, len(sh.pending))
		}
		sh.mu.Unlock()
	}
	if len(works) == 0 {
		return rep, nil
	}
	// Advance shard-parallel. Shards partition the sessions, so workers
	// never share mutable state; each returns its changed sessions in
	// member (tenant) order and results merge in shard order, making the
	// outcome identical for every pool size.
	changed := make([][]sessionUndo, len(works))
	workers := h.opts.Workers
	if workers <= 0 || workers > len(works) {
		workers = len(works)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				changed[i] = h.tickShard(works[i].sh, works[i].pending)
			}
		}()
	}
	for i := range works {
		next <- i
	}
	close(next)
	wg.Wait()
	// Merge in shard order: fold changed allocations into the
	// per-statement table, remembering old values for rollback.
	type allocUndo struct {
		id     string
		a      policy.Alloc
		absent bool
	}
	var undoAllocs []allocUndo
	var undoSessions []sessionUndo
	for i, w := range works {
		rep.Demands += len(w.pending)
		for _, u := range changed[i] {
			s := u.s
			undoSessions = append(undoSessions, u)
			if s.alloc == u.alloc {
				continue // controller moved but the emitted alloc did not
			}
			rep.Changed++
			share := s.alloc / float64(len(s.stmtIDs))
			for _, id := range s.stmtIDs {
				a, ok := h.allocs[id]
				undoAllocs = append(undoAllocs, allocUndo{id: id, a: a, absent: !ok})
				if !ok {
					a = policy.Unconstrained
				}
				if s.guarantee {
					a.Min = share
				} else {
					a.Max = share
				}
				h.allocs[id] = a
			}
		}
	}
	h.ticksBatched++
	h.demandsBatched += rep.Demands
	if rep.Changed == 0 {
		return rep, nil
	}
	candidate := &policy.Policy{
		Statements: h.pol.Statements,
		Formula:    h.renderFormula(h.pol.Statements),
	}
	if h.onCommit != nil {
		if err := h.onCommit(candidate, false); err != nil {
			// Vetoed: restore the controllers and the allocation table.
			// Drained demands stay consumed — they are facts about tenant
			// load, not part of the rejected allocation.
			for _, u := range undoSessions {
				u.s.aimd = u.aimd
				u.s.alloc = u.alloc
			}
			for i := len(undoAllocs) - 1; i >= 0; i-- {
				if undoAllocs[i].absent {
					delete(h.allocs, undoAllocs[i].id)
				} else {
					h.allocs[undoAllocs[i].id] = undoAllocs[i].a
				}
			}
			return TickReport{Demands: rep.Demands}, err
		}
	}
	h.pol = candidate
	h.allocsChanged += rep.Changed
	rep.Committed = true
	return rep, nil
}

// tickShard advances one shard's controllers against its capacity pool.
// It returns every member whose controller advanced (with pre-tick state
// for rollback); callers detect emitted-allocation changes by comparing
// s.alloc with the undo value. Runs without the hub lock's protection on
// h.allocs — it touches only this shard's sessions.
func (h *Hub) tickShard(sh *hubShard, pending map[string]float64) []sessionUndo {
	if !sh.sorted {
		sort.Slice(sh.members, func(i, j int) bool { return sh.members[i].Tenant < sh.members[j].Tenant })
		sh.sorted = true
	}
	// Fold the drained demands in member order.
	for _, s := range sh.members {
		if d, ok := pending[s.Tenant]; ok {
			s.demand = d
		}
	}
	undos := make([]sessionUndo, 0, len(sh.members))
	if h.opts.MMFS {
		demands := make([]float64, len(sh.members))
		for i, s := range sh.members {
			demands[i] = s.demand
		}
		fair := MaxMinFairShare(sh.capacity, demands)
		for i, s := range sh.members {
			alloc := fair[i]
			if bound := s.budget(); alloc > bound {
				alloc = bound
			}
			if alloc != s.alloc {
				undos = append(undos, sessionUndo{s: s, aimd: s.aimd, alloc: s.alloc})
				s.alloc = alloc
			}
		}
		return undos
	}
	// AIMD round: congestion is judged against the shard's pool from the
	// current allocations, summed in member order (deterministic), then
	// every controller advances independently.
	total := 0.0
	for _, s := range sh.members {
		total += s.alloc
	}
	congested := total > sh.capacity*(1+1e-9)
	for _, s := range sh.members {
		undo := sessionUndo{s: s, aimd: s.aimd, alloc: s.alloc}
		used := s.demand
		if s.alloc < used {
			used = s.alloc
		}
		s.aimd.Update(used, congested)
		alloc := s.aimd.Alloc
		if bound := s.budget(); alloc > bound {
			alloc = bound
		}
		if s.aimd != undo.aimd || alloc != s.alloc {
			undos = append(undos, undo)
			s.alloc = alloc
		}
	}
	return undos
}

// budget is the session's aggregate allocation bound: the delegated
// per-statement budget times the statement count, for the term kind the
// session renegotiates.
func (s *Session) budget() float64 {
	if s.guarantee {
		return s.budgetMin
	}
	return s.budgetMax
}

// Propose submits a refined sub-policy for the tenant's delegation: the
// session's statements are replaced on acceptance. Verification runs
// against the session's registration-time delegation — a fixed module
// interface, not the tenant's last accepted policy — so a tenant that
// narrowed its paths or shrank its caps may later widen back, as long as
// it stays inside what it was delegated. The check goes through the hub's
// verification cache: an unchanged proposal is a fingerprint hit. A failed
// containment check is admission control: the proposal is rejected, no
// recompile happens, and the committed policy is untouched. The first
// return reports whether the accepted change needs global recompilation
// (a path-expression change, §4.3).
func (h *Hub) Propose(tenant string, refined *policy.Policy) (recompile bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[tenant]
	if !ok {
		return false, fmt.Errorf("negotiate: unknown session %q", tenant)
	}
	rep, err := h.cache.CheckRefinement(s.baseline, refined, verify.Options{})
	if err != nil {
		return false, err
	}
	if !rep.OK() {
		h.proposalsRejected++
		return false, rep.Err()
	}
	refAllocs, err := policy.Localize(refined.Formula, nil)
	if err != nil {
		return false, err
	}
	// The refined statement set replaces the session's in place: new IDs
	// must not collide with statements the session does not own.
	owned := make(map[string]bool, len(s.stmtIDs))
	for _, id := range s.stmtIDs {
		owned[id] = true
	}
	for _, st := range refined.Statements {
		if _, exists := h.stmtIdx[st.ID]; exists && !owned[st.ID] {
			return false, fmt.Errorf("negotiate: proposal reuses statement %q outside the session", st.ID)
		}
	}
	recompile = pathsChanged(s.baseline, refined)

	// Splice: the refined statements land at the session's first owned
	// position, preserving global order for everyone else.
	first := h.stmtIdx[s.stmtIDs[0]]
	newStmts := make([]policy.Statement, 0, len(h.pol.Statements)-len(s.stmtIDs)+len(refined.Statements))
	for idx, st := range h.pol.Statements {
		if owned[st.ID] {
			if idx == first {
				newStmts = append(newStmts, refined.Statements...)
			}
			continue
		}
		newStmts = append(newStmts, st)
	}

	// Stage the new allocation table and indexes; commit or discard
	// atomically below.
	oldAllocs, oldIdx, oldOwner := h.allocs, h.stmtIdx, h.owner
	oldPol, oldIDs, oldAlloc, oldAIMD := h.pol, s.stmtIDs, s.alloc, s.aimd
	h.allocs = make(map[string]policy.Alloc, len(oldAllocs))
	for id, a := range oldAllocs {
		if !owned[id] {
			h.allocs[id] = a
		}
	}
	agg := 0.0
	newIDs := make([]string, len(refined.Statements))
	for i, st := range refined.Statements {
		newIDs[i] = st.ID
		if a, ok := refAllocs[st.ID]; ok {
			h.allocs[st.ID] = a
			if s.guarantee {
				agg += a.Min
			} else if !math.IsInf(a.Max, 1) {
				agg += a.Max
			}
		}
	}
	h.stmtIdx = make(map[string]int, len(newStmts))
	for i, st := range newStmts {
		h.stmtIdx[st.ID] = i
	}
	h.owner = make(map[string]*Session, len(oldOwner))
	for id, sess := range oldOwner {
		if sess != s {
			h.owner[id] = sess
		}
	}
	for _, id := range newIDs {
		h.owner[id] = s
	}
	s.stmtIDs = newIDs
	s.alloc = agg
	s.aimd.Alloc = agg
	h.pol = &policy.Policy{Statements: newStmts, Formula: h.renderFormula(newStmts)}

	if h.onCommit != nil {
		if err := h.onCommit(h.pol, recompile); err != nil {
			h.allocs, h.stmtIdx, h.owner = oldAllocs, oldIdx, oldOwner
			h.pol = oldPol
			s.stmtIDs, s.alloc, s.aimd = oldIDs, oldAlloc, oldAIMD
			return false, err
		}
	}
	h.proposalsAccepted++
	return recompile, nil
}
