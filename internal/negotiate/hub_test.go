package negotiate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/verify"
)

// hubPolicy builds an n-statement policy with one 100 MB/s cap each.
func hubPolicy(t testing.TB, n int) *policy.Policy {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("[ ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" ; ")
		}
		fmt.Fprintf(&sb, "s%03d : tcp.dst = %d -> .*", i, 1000+i)
	}
	sb.WriteString(" ], ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" and ")
		}
		fmt.Fprintf(&sb, "max(s%03d, 100MB/s)", i)
	}
	return mustPolicy(t, sb.String())
}

// runHubSequence drives a fixed demand sequence with concurrently-offered
// demands and returns the final allocation table.
func runHubSequence(t *testing.T, workers int) map[string]policy.Alloc {
	t.Helper()
	const nSessions, nShards = 24, 4
	h, err := NewHub(hubPolicy(t, nSessions), HubOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nShards; s++ {
		if err := h.AddShard(fmt.Sprintf("pod%d", s), 120*8e6); err != nil {
			t.Fatal(err)
		}
	}
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		sess, err := h.Register(fmt.Sprintf("t%02d", i), fmt.Sprintf("pod%d", i%nShards),
			[]string{fmt.Sprintf("s%03d", i)},
			AIMDState{Alloc: 10 * 8e6, Increase: 8e6, Decrease: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	for round := 0; round < 30; round++ {
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *Session) {
				defer wg.Done()
				// The per-round demand is a pure function of (tenant, round),
				// so any interleaving coalesces to the same drained map.
				s.OfferDemand(float64((i%7)+1) * 15 * 8e6)
			}(i, s)
		}
		wg.Wait()
		if _, err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return h.Allocations()
}

func TestHubTickDeterministicAcrossWorkers(t *testing.T) {
	want := runHubSequence(t, 1)
	for _, w := range []int{2, 4, 8} {
		if got := runHubSequence(t, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("allocations with %d workers diverge from serial", w)
		}
	}
}

func TestHubTickBatchesAndClampsToBudget(t *testing.T) {
	h, err := NewHub(hubPolicy(t, 2), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	s0, err := h.Register("a", "core", []string{"s000"}, AIMDState{Alloc: 10 * 8e6, Increase: 50 * 8e6, Decrease: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Several offers inside one window coalesce: one tick, one demand.
	s0.OfferDemand(1e12)
	s0.OfferDemand(2e12)
	rep, err := h.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Demands != 1 || !rep.Committed {
		t.Fatalf("report = %+v, want 1 coalesced demand committed", rep)
	}
	// Uncapacitated shard: AIMD probes up every tick but the emitted
	// allocation never exceeds the session's delegated 100 MB/s budget —
	// that clamp is what lets ticks skip re-verification.
	for i := 0; i < 10; i++ {
		s0.OfferDemand(1e12)
		if _, err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s0.Alloc(); got != 100*8e6 {
		t.Fatalf("alloc = %v, want clamped to 100MB/s budget", got)
	}
	if a := h.Allocations()["s000"]; a.Max != 100*8e6 {
		t.Fatalf("committed cap = %v", a.Max)
	}
	// The untouched statement keeps its original cap.
	if a := h.Allocations()["s001"]; a.Max != 100*8e6 {
		t.Fatalf("unowned statement cap = %v", a.Max)
	}
	st := h.Stats()
	if st.TicksBatched != 11 || st.DemandsBatched != 11 {
		t.Fatalf("stats = %+v", st)
	}
	// An idle tick (nothing pending) is free: no commit, no counter.
	rep, err = h.Tick()
	if err != nil || rep.Committed || rep.Demands != 0 {
		t.Fatalf("idle tick = %+v, %v", rep, err)
	}
	if h.Stats().TicksBatched != 11 {
		t.Fatal("idle tick counted as batched")
	}
}

func TestHubMMFSTick(t *testing.T) {
	h, err := NewHub(hubPolicy(t, 3), HubOptions{MMFS: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 90); err != nil {
		t.Fatal(err)
	}
	var ss []*Session
	for i := 0; i < 3; i++ {
		s, err := h.Register(fmt.Sprintf("t%d", i), "core",
			[]string{fmt.Sprintf("s%03d", i)}, AIMDState{})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	for i, d := range []float64{10, 200, 200} {
		ss[i].OfferDemand(d)
	}
	if _, err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 40, 40}
	for i, s := range ss {
		if got := s.Alloc(); math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("session %d alloc = %v, want %v", i, got, want[i])
		}
	}
}

func TestHubCommitVetoRollsBack(t *testing.T) {
	h, err := NewHub(hubPolicy(t, 1), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	s, err := h.Register("a", "core", []string{"s000"}, AIMDState{Alloc: 10 * 8e6, Increase: 8e6, Decrease: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before := h.Allocations()
	beforeAlloc := s.Alloc()
	veto := errors.New("compile failed")
	h.OnCommit(func(pol *policy.Policy, recompile bool) error { return veto })
	s.OfferDemand(1e12)
	if _, err := h.Tick(); !errors.Is(err, veto) {
		t.Fatalf("tick err = %v, want veto", err)
	}
	if !reflect.DeepEqual(h.Allocations(), before) {
		t.Fatal("vetoed tick leaked into the allocation table")
	}
	if s.Alloc() != beforeAlloc {
		t.Fatal("vetoed tick leaked into the session controller")
	}
	// With the veto lifted the same demand commits (demands drained by the
	// vetoed tick stay consumed, so re-offer).
	h.OnCommit(nil)
	s.OfferDemand(1e12)
	rep, err := h.Tick()
	if err != nil || !rep.Committed {
		t.Fatalf("post-veto tick = %+v, %v", rep, err)
	}
}

func TestHubProposeAdmissionControl(t *testing.T) {
	h, err := NewHub(mustPolicy(t, `[ x : tcp.dst = 80 -> .* ], max(x, 100MB/s)`), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("a", "core", []string{"x"}, AIMDState{}); err != nil {
		t.Fatal(err)
	}
	// Over-allocation: rejected outright (admission control), the policy
	// and stats show no commit happened.
	over := mustPolicy(t, `[ x : tcp.dst = 80 -> .* ], max(x, 200MB/s)`)
	if _, err := h.Propose("a", over); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if st := h.Stats(); st.ProposalsRejected != 1 || st.ProposalsAccepted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(h.Policy().Statements) != 1 {
		t.Fatal("rejected proposal mutated the policy")
	}

	// A valid refinement splits the delegation; same paths → no recompile.
	refined := mustPolicy(t, `
[ p : (tcp.dst = 80 and ip.src = 10.0.0.1) -> .* ;
  q : (tcp.dst = 80 and !(ip.src = 10.0.0.1)) -> .* ],
max(p, 50MB/s) and max(q, 50MB/s)
`)
	recompile, err := h.Propose("a", refined)
	if err != nil {
		t.Fatalf("valid refinement rejected: %v", err)
	}
	if recompile {
		t.Fatal("cap-only refinement should not force recompilation")
	}
	pol := h.Policy()
	if len(pol.Statements) != 2 || pol.Statements[0].ID != "p" || pol.Statements[1].ID != "q" {
		t.Fatalf("statements not spliced: %v", pol.Statements)
	}
	if a := h.Allocations()["p"]; a.Max != 50*8e6 {
		t.Fatalf("refined alloc = %v", a)
	}
	// Re-proposing the identical refinement is a pure verify-cache hit.
	miss := h.Stats().VerifyCacheMisses
	if _, err := h.Propose("a", refined); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.VerifyCacheHits == 0 || st.VerifyCacheMisses != miss {
		t.Fatalf("repeat proposal not served from cache: %+v", st)
	}

	// Proposals verify against the registration-time delegation, not the
	// last accepted policy: the tenant may widen back to its full budget,
	// and a narrowed path expression reports the §4.3 recompilation.
	back := mustPolicy(t, `[ x : tcp.dst = 80 -> .* dpi .* ], max(x, 100MB/s)`)
	recompile, err = h.Propose("a", back)
	if err != nil {
		t.Fatalf("widening back inside the delegation rejected: %v", err)
	}
	if !recompile {
		t.Fatal("path change should require recompilation")
	}
	if _, err := h.Propose("a", over); err == nil {
		t.Fatal("over-allocation accepted after widening back")
	}
}

// A delegation must hand the tenant something: a scope that matches no
// traffic of the global policy projects to zero statements, and
// registering a session over them is an error, as is a duplicate tenant.
func TestHubRegisterRejectsEmptyDelegation(t *testing.T) {
	pol := hubPolicy(t, 2)
	h, err := NewHub(pol, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	sub, err := verify.Delegate(pol, pred.Test{Field: "tcp.dst", Value: "22"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range sub.Statements {
		ids = append(ids, st.ID)
	}
	if _, err := h.Register("t", "core", ids, AIMDState{}); err == nil {
		t.Fatal("empty-scope delegation accepted")
	}
	if _, err := h.Register("t", "core", []string{"s000"}, AIMDState{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("t", "core", []string{"s001"}, AIMDState{}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}

func TestHubProposeStatementCollision(t *testing.T) {
	h, err := NewHub(hubPolicy(t, 2), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("a", "core", []string{"s000"}, AIMDState{}); err != nil {
		t.Fatal(err)
	}
	// A proposal whose statement ID collides with another session's
	// statement must be refused.
	clash := mustPolicy(t, `[ s001 : tcp.dst = 1000 -> .* ], max(s001, 50MB/s)`)
	if _, err := h.Propose("a", clash); err == nil {
		t.Fatal("statement collision accepted")
	}
}

func TestHubGuaranteeSessionsRenegotiateMins(t *testing.T) {
	h, err := NewHub(mustPolicy(t, `
[ g : tcp.dst = 7000 -> .* ], min(g, 5MB/s) and max(g, 100MB/s)
`), HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddShard("core", 1e12); err != nil {
		t.Fatal(err)
	}
	s, err := h.Register("a", "core", []string{"g"}, AIMDState{Alloc: 1 * 8e6, Increase: 8e6, Decrease: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s.Guarantee()
	if got := s.Alloc(); got != 5*8e6 {
		t.Fatalf("guarantee session starts at %v, want current min", got)
	}
	// First tick: the controller (seeded below the budget) probes up and
	// the committed guarantee follows.
	s.OfferDemand(1e12)
	if _, err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	a := h.Allocations()["g"]
	if a.Min >= 5*8e6 || a.Min <= 0 {
		t.Fatalf("min did not follow the controller: %v", a.Min)
	}
	if a.Max != 100*8e6 {
		t.Fatalf("cap should be untouched: %v", a.Max)
	}
	// Probing up converges to — and never exceeds — the delegated 5 MB/s
	// reservation: that clamp is why guarantee ticks skip re-verification.
	for i := 0; i < 20; i++ {
		s.OfferDemand(1e12)
		if _, err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if a := h.Allocations()["g"]; a.Min != 5*8e6 {
		t.Fatalf("guarantee should converge to the delegated budget: %v", a.Min)
	}
}

// TestHubConcurrentProposeTick is the -race interleaving test: demands,
// ticks, and proposals race freely and the hub must stay consistent.
func TestHubConcurrentProposeTick(t *testing.T) {
	h, err := NewHub(hubPolicy(t, 8), HubOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := h.AddShard(fmt.Sprintf("pod%d", s), 500*8e6); err != nil {
			t.Fatal(err)
		}
	}
	sessions := make([]*Session, 8)
	for i := range sessions {
		sessions[i], err = h.Register(fmt.Sprintf("t%d", i), fmt.Sprintf("pod%d", i%2),
			[]string{fmt.Sprintf("s%03d", i)},
			AIMDState{Alloc: 10 * 8e6, Increase: 8e6, Decrease: 0.5})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				s.OfferDemand(float64(i+r) * 8e6)
			}
		}(i, s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 25; r++ {
			if _, err := h.Tick(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		good := mustPolicy(t, `
[ t7a : (tcp.dst = 1007 and ip.src = 10.0.0.1) -> .* ;
  t7b : (tcp.dst = 1007 and !(ip.src = 10.0.0.1)) -> .* ],
max(t7a, 50MB/s) and max(t7b, 50MB/s)
`)
		bad := mustPolicy(t, `[ t7x : tcp.dst = 1007 -> .* ], max(t7x, 400MB/s)`)
		for r := 0; r < 10; r++ {
			h.Propose("t7", good) // first wins, repeats are cache hits
			if _, err := h.Propose("t7", bad); err == nil {
				t.Error("over-allocation accepted under race")
				return
			}
		}
	}()
	wg.Wait()
	st := h.Stats()
	if st.ProposalsRejected != 10 {
		t.Fatalf("rejections = %d, want 10", st.ProposalsRejected)
	}
	if st.TenantsActive != 8 {
		t.Fatalf("tenants = %d", st.TenantsActive)
	}
	// The committed formula must localize back to the allocation table.
	allocs, err := policy.Localize(h.Policy().Formula, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range h.Allocations() {
		if !math.IsInf(a.Max, 1) && allocs[id].Max != a.Max {
			t.Fatalf("formula/table divergence on %s: %v vs %v", id, allocs[id], a)
		}
	}
}

// Satellite: MaxMinFairShare property tests — permutation equivariance
// and conservation (allocations sum to min(capacity, total demand)).
func TestMaxMinFairShareProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		demands := make([]float64, n)
		total := 0.0
		for i := range demands {
			demands[i] = float64(rng.Intn(1000))
			total += demands[i]
		}
		capacity := float64(1 + rng.Intn(10000))
		got := MaxMinFairShare(capacity, demands)

		// Conservation: everything is allocated up to capacity, and never
		// more than the declared demand.
		sum := 0.0
		for i, a := range got {
			if a < 0 || a > demands[i]+1e-9 {
				t.Fatalf("alloc %v out of [0, demand=%v]", a, demands[i])
			}
			sum += a
		}
		want := math.Min(capacity, total)
		if math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("sum = %v, want %v (cap %v, demands %v)", sum, want, capacity, demands)
		}

		// Permutation equivariance: shuffling demands shuffles allocations
		// the same way.
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, p := range perm {
			shuffled[i] = demands[p]
		}
		gotShuffled := MaxMinFairShare(capacity, shuffled)
		for i, p := range perm {
			if math.Abs(gotShuffled[i]-got[p]) > 1e-9 {
				t.Fatalf("not permutation-equivariant: %v vs %v", gotShuffled[i], got[p])
			}
		}
	}
}
