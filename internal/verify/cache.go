package verify

import (
	"hash/fnv"
	"io"
	"sync"

	"merlin/internal/policy"
	"merlin/internal/pred"
)

// Cache memoizes refinement verification (§4.2) for tenant-scale
// negotiation: at 10⁴–10⁵ live sessions the negotiator re-verifies the
// same (parent, child) pairs constantly — an unchanged child against an
// unchanged delegation. A full CheckRefinement verdict is memoized per
// (parent-policy fingerprint, child-policy fingerprint, options): an
// unchanged child is never re-verified, and a parent re-delegation
// changes the parent fingerprint, so stale verdicts are simply
// unreachable — no explicit invalidation protocol is needed.
//
// Reports returned from the cache are shared: callers must treat them as
// immutable. Entries are dropped wholesale when the memo exceeds its
// bound — correctness never depends on an entry being present.
type Cache struct {
	mu sync.Mutex
	// policies: (parentFP, childFP, minimize) → verdict.
	policies map[string]*Report
	stats    CacheStats
}

// CacheStats counts cache traffic: whole CheckRefinement verdicts served
// without any decision procedure (Hits) and checks run (Misses).
type CacheStats struct {
	Hits, Misses int
}

// maxPolicies bounds the verdict memo so adversarial churn cannot grow it
// without limit.
const maxPolicies = 1 << 14

// NewCache creates an empty verification cache.
func NewCache() *Cache {
	return &Cache{policies: map[string]*Report{}}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CheckRefinement is verify.CheckRefinement through the cache: a repeat
// verification of the same (original, refined) pair is served from the
// memo, and a miss runs the full check. Errors are never cached.
func (c *Cache) CheckRefinement(original, refined *policy.Policy, opts Options) (*Report, error) {
	key := policyPairKey(original, refined, opts.Minimize)
	c.mu.Lock()
	if rep, ok := c.policies[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return rep, nil
	}
	c.mu.Unlock()
	rep, err := CheckRefinement(original, refined, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Misses++
	if len(c.policies) >= maxPolicies {
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
	if p.Formula != nil {
		io.WriteString(h, p.Formula.String())
	}
	return string(h.Sum(nil))
}
