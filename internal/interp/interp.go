// Package interp implements the end-host packet-processing interpreter of
// §3.4: a small program of classify/act clauses — filtering and token-
// bucket rate limiting against arbitrary Merlin predicates — standing in
// for the paper's netfilter kernel module. The interpreter depends on the
// host OS only through the Clock interface, mirroring the module's
// "about a dozen system calls" portability contract.
package interp

import (
	"fmt"
	"sync"
	"time"

	"merlin/internal/packet"
	"merlin/internal/pred"
)

// Verdict is the outcome of processing one packet.
type Verdict int

// Verdicts.
const (
	Accept Verdict = iota
	Drop
)

func (v Verdict) String() string {
	if v == Drop {
		return "drop"
	}
	return "accept"
}

// Clock abstracts time for the interpreter (the only OS service the rate
// limiter needs).
type Clock interface {
	Now() time.Time
}

// SystemClock uses the real time.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Op is a clause operation.
type Op int

// Clause operations.
const (
	// OpAllow accepts matching packets.
	OpAllow Op = iota
	// OpDeny drops matching packets.
	OpDeny
	// OpRateLimit subjects matching packets to a token bucket.
	OpRateLimit
)

// Clause is one program step: packets matching Pred are handled by Op;
// non-matching packets fall through to the next clause.
type Clause struct {
	Pred pred.Pred
	Op   Op
	// RateBps and BurstBytes configure OpRateLimit.
	RateBps    float64
	BurstBytes float64
}

// Program is an ordered list of clauses with a default verdict.
type Program struct {
	Name    string
	Clauses []Clause
	// Default applies when no clause matches (Accept unless set).
	Default Verdict
}

// Validate checks clause sanity.
func (p *Program) Validate() error {
	for i, c := range p.Clauses {
		if c.Pred == nil {
			return fmt.Errorf("interp: clause %d has no predicate", i)
		}
		if c.Op == OpRateLimit && c.RateBps <= 0 {
			return fmt.Errorf("interp: clause %d rate limit must be positive", i)
		}
	}
	return nil
}

// bucket is a token bucket in bits.
type bucket struct {
	tokens float64
	last   time.Time
}

// Interp executes a program against a packet stream. It is safe for
// concurrent use.
type Interp struct {
	prog    *Program
	clock   Clock
	mu      sync.Mutex
	buckets []bucket
	// Stats count per-verdict packets.
	accepted, dropped int
}

// New compiles the program into an interpreter instance.
func New(prog *Program, clock Clock) (*Interp, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = SystemClock{}
	}
	in := &Interp{prog: prog, clock: clock, buckets: make([]bucket, len(prog.Clauses))}
	now := clock.Now()
	for i, c := range prog.Clauses {
		if c.Op == OpRateLimit {
			in.buckets[i] = bucket{tokens: burstBits(c), last: now}
		}
	}
	return in, nil
}

func burstBits(c Clause) float64 {
	if c.BurstBytes > 0 {
		return c.BurstBytes * 8
	}
	// Default burst: 100 ms at line rate.
	return c.RateBps / 10
}

// Process runs one packet through the program; size is the wire size in
// bytes (0 means use the marshaled length).
func (in *Interp) Process(pkt *packet.Packet, size int) Verdict {
	if size <= 0 {
		size = len(pkt.Marshal())
	}
	fields := pkt.Fields()
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, c := range in.prog.Clauses {
		if !pred.Matches(c.Pred, fields) {
			continue
		}
		switch c.Op {
		case OpAllow:
			in.accepted++
			return Accept
		case OpDeny:
			in.dropped++
			return Drop
		case OpRateLimit:
			b := &in.buckets[i]
			now := in.clock.Now()
			elapsed := now.Sub(b.last).Seconds()
			if elapsed > 0 {
				b.tokens += elapsed * c.RateBps
				if max := burstBits(c); b.tokens > max {
					b.tokens = max
				}
				b.last = now
			}
			need := float64(size) * 8
			if b.tokens >= need {
				b.tokens -= need
				in.accepted++
				return Accept
			}
			in.dropped++
			return Drop
		}
	}
	if in.prog.Default == Drop {
		in.dropped++
		return Drop
	}
	in.accepted++
	return Accept
}

// Stats reports processed-packet counters.
func (in *Interp) Stats() (accepted, dropped int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.accepted, in.dropped
}
