package verify

import (
	"hash/fnv"
	"io"
	"sync"

	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/regex"
)

// Cache memoizes refinement verification (§4.2) for tenant-scale
// negotiation: at 10⁴–10⁵ live sessions the negotiator re-verifies the
// same (parent, child) pairs constantly — an unchanged child against an
// unchanged delegation, or a proposal differing from the last accepted
// policy in one statement. The cache works at two levels:
//
//   - Policy level: a full CheckRefinement verdict is memoized per
//     (parent-policy fingerprint, child-policy fingerprint, options).
//     An unchanged child is never re-verified; a parent re-delegation
//     changes the parent fingerprint, so stale verdicts are simply
//     unreachable — no explicit invalidation protocol is needed.
//   - Pair level: the decision-procedure calls inside a miss — predicate
//     overlap per statement pair and path-language inclusion per
//     overlapping pair — are memoized by the operands' own fingerprints.
//     A proposal that changes one statement out of k re-runs only the
//     pairs involving the changed statement; everything else is a pair
//     hit. This is what makes a delta-Propose cost O(changed), not
//     O(k²).
//
// Reports returned from the cache are shared: callers must treat them
// (and the alloc maps inside Localize results) as immutable. Entries
// are dropped wholesale when a level exceeds its bound — correctness
// never depends on an entry being present.
type Cache struct {
	mu sync.Mutex
	// policies: (parentFP, childFP, minimize) → verdict.
	policies map[string]*Report
	// overlaps: (orig predicate FP, refined predicate FP) → pred.Overlaps.
	overlaps map[string]bool
	// includes: (refined path FP, orig path FP, minimize) → inclusion.
	includes map[string]incEntry
	// localized: formula fingerprint → localization.
	localized map[string]map[string]policy.Alloc

	maxPolicies, maxPairs int

	stats CacheStats
}

type incEntry struct {
	ok      bool
	witness []string
}

// CacheStats counts cache traffic. Hits/Misses are policy-level (whole
// CheckRefinement verdicts served without any decision procedure);
// PairHits/PairMisses count the memoized decision-procedure calls under
// policy-level misses.
type CacheStats struct {
	Hits, Misses         int
	PairHits, PairMisses int
}

// Default size bounds: policy verdicts are small (a Report), pair entries
// smaller still; the bounds only exist so adversarial churn cannot grow
// the maps without limit.
const (
	defaultMaxPolicies = 1 << 14
	defaultMaxPairs    = 1 << 17
)

// NewCache creates an empty verification cache with default bounds.
func NewCache() *Cache {
	return &Cache{
		policies:    map[string]*Report{},
		overlaps:    map[string]bool{},
		includes:    map[string]incEntry{},
		localized:   map[string]map[string]policy.Alloc{},
		maxPolicies: defaultMaxPolicies,
		maxPairs:    defaultMaxPairs,
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every memoized entry (counters are kept). Fingerprint keying
// already makes entries from a re-delegated parent unreachable; Reset is
// for reclaiming their memory eagerly.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policies = map[string]*Report{}
	c.overlaps = map[string]bool{}
	c.includes = map[string]incEntry{}
	c.localized = map[string]map[string]policy.Alloc{}
}

// CheckRefinement is verify.CheckRefinement through the cache: a repeat
// verification of the same (original, refined) pair is served from the
// policy-level memo, and a miss runs the check with every pairwise
// decision procedure memoized. Errors are never cached.
func (c *Cache) CheckRefinement(original, refined *policy.Policy, opts Options) (*Report, error) {
	key := policyPairKey(original, refined, opts.Minimize)
	c.mu.Lock()
	if rep, ok := c.policies[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return rep, nil
	}
	c.mu.Unlock()
	m := &cacheMemo{cache: c}
	rep, err := checkRefinement(original, refined, opts, m)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Misses++
	if len(c.policies) >= c.maxPolicies {
		c.policies = map[string]*Report{}
	}
	c.policies[key] = rep
	c.mu.Unlock()
	return rep, nil
}

func policyPairKey(original, refined *policy.Policy, minimize bool) string {
	k := PolicyFingerprint(original) + "\x00" + PolicyFingerprint(refined)
	if minimize {
		k += "\x01"
	}
	return k
}

// PolicyFingerprint returns a fixed-size fingerprint of a policy's full
// semantic content: every statement's identifier, predicate, and path
// expression, plus the bandwidth formula. Structurally equal policies
// fingerprint identically regardless of sharing.
func PolicyFingerprint(p *policy.Policy) string {
	h := fnv.New128a()
	for _, s := range p.Statements {
		io.WriteString(h, s.ID)
		h.Write([]byte{0})
		io.WriteString(h, pred.Format(s.Predicate))
		h.Write([]byte{0})
		io.WriteString(h, s.Path.String())
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	io.WriteString(h, formulaFingerprint(p.Formula))
	return string(h.Sum(nil))
}

func formulaFingerprint(f policy.Formula) string {
	if f == nil {
		return ""
	}
	return f.String()
}

// cacheMemo threads the pair-level memos through one checkRefinement
// pass. Statement fingerprints are computed once per policy up front, so
// a k×k overlap sweep hashes 2k strings, not k² of them.
type cacheMemo struct {
	cache *Cache
	// Per-statement operand fingerprints, aligned with the statement
	// slices of the original and refined policies.
	origPred, refPred []string
	origPath, refPath []string
}

// begin precomputes the operand fingerprints. Called once by
// checkRefinement before any memoized query; a nil memo skips it.
func (m *cacheMemo) begin(original, refined *policy.Policy) {
	if m == nil {
		return
	}
	m.origPred = make([]string, len(original.Statements))
	m.origPath = make([]string, len(original.Statements))
	for i, s := range original.Statements {
		m.origPred[i] = pred.Format(s.Predicate)
		m.origPath[i] = s.Path.String()
	}
	m.refPred = make([]string, len(refined.Statements))
	m.refPath = make([]string, len(refined.Statements))
	for j, s := range refined.Statements {
		m.refPred[j] = pred.Format(s.Predicate)
		m.refPath[j] = s.Path.String()
	}
}

// overlaps is pred.Overlaps memoized by predicate fingerprints. The
// second return reports a memo hit (the decision procedure did not run).
func (m *cacheMemo) overlaps(i, j int, a, b pred.Pred) (bool, bool, error) {
	if m == nil {
		ov, err := pred.Overlaps(a, b)
		return ov, false, err
	}
	key := m.origPred[i] + "\x00" + m.refPred[j]
	c := m.cache
	c.mu.Lock()
	if ov, ok := c.overlaps[key]; ok {
		c.stats.PairHits++
		c.mu.Unlock()
		return ov, true, nil
	}
	c.mu.Unlock()
	ov, err := pred.Overlaps(a, b)
	if err != nil {
		return false, false, err
	}
	c.mu.Lock()
	c.stats.PairMisses++
	if len(c.overlaps) >= c.maxPairs {
		c.overlaps = map[string]bool{}
	}
	c.overlaps[key] = ov
	c.mu.Unlock()
	return ov, false, nil
}

// includes is regex.Includes memoized by path-expression fingerprints.
func (m *cacheMemo) includes(i, j int, refined, original regex.Expr, minimize bool) (bool, []string, bool, error) {
	if m == nil {
		ok, witness, err := regex.Includes(refined, original, regex.Options{Minimize: minimize})
		return ok, witness, false, err
	}
	key := m.refPath[j] + "\x00" + m.origPath[i]
	if minimize {
		key += "\x01"
	}
	c := m.cache
	c.mu.Lock()
	if e, ok := c.includes[key]; ok {
		c.stats.PairHits++
		c.mu.Unlock()
		return e.ok, e.witness, true, nil
	}
	c.mu.Unlock()
	ok, witness, err := regex.Includes(refined, original, regex.Options{Minimize: minimize})
	if err != nil {
		return false, nil, false, err
	}
	c.mu.Lock()
	c.stats.PairMisses++
	if len(c.includes) >= c.maxPairs {
		c.includes = map[string]incEntry{}
	}
	c.includes[key] = incEntry{ok: ok, witness: witness}
	c.mu.Unlock()
	return ok, witness, false, nil
}

// localize is policy.Localize memoized by formula fingerprint.
func (m *cacheMemo) localize(f policy.Formula) (map[string]policy.Alloc, error) {
	if m == nil {
		return policy.Localize(f, nil)
	}
	key := formulaFingerprint(f)
	c := m.cache
	c.mu.Lock()
	if a, ok := c.localized[key]; ok {
		c.mu.Unlock()
		return a, nil
	}
	c.mu.Unlock()
	a, err := policy.Localize(f, nil)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.localized) >= c.maxPairs {
		c.localized = map[string]map[string]policy.Alloc{}
	}
	c.localized[key] = a
	c.mu.Unlock()
	return a, nil
}
