package interp

import (
	"sync"
	"testing"
	"time"

	"merlin/internal/packet"
	"merlin/internal/pred"
)

// manualClock is a Clock advanced explicitly.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func webPkt(payload int) *packet.Packet {
	return packet.TCPPacket("00:00:00:00:00:01", "00:00:00:00:00:02",
		"10.0.0.1", "10.0.0.2", 555, 80, make([]byte, payload))
}

func sshPkt() *packet.Packet {
	return packet.TCPPacket("00:00:00:00:00:01", "00:00:00:00:00:02",
		"10.0.0.1", "10.0.0.2", 555, 22, nil)
}

func TestFilterAllowDeny(t *testing.T) {
	prog := &Program{
		Name: "fw",
		Clauses: []Clause{
			{Pred: pred.Test{Field: "tcp.dst", Value: "22"}, Op: OpDeny},
			{Pred: pred.Test{Field: "tcp.dst", Value: "80"}, Op: OpAllow},
		},
		Default: Drop,
	}
	in, err := New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := in.Process(sshPkt(), 0); v != Drop {
		t.Errorf("ssh verdict = %v, want drop", v)
	}
	if v := in.Process(webPkt(10), 0); v != Accept {
		t.Errorf("web verdict = %v, want accept", v)
	}
	// Default drop for unmatched traffic.
	other := packet.UDPPacket("00:00:00:00:00:01", "00:00:00:00:00:02",
		"10.0.0.1", "10.0.0.2", 1, 53, nil)
	if v := in.Process(other, 0); v != Drop {
		t.Errorf("udp verdict = %v, want default drop", v)
	}
	acc, drop := in.Stats()
	if acc != 1 || drop != 2 {
		t.Errorf("stats = %d/%d", acc, drop)
	}
}

func TestPayloadPredicate(t *testing.T) {
	// Deep-packet-inspection-style match on payload contents is beyond
	// iptables but natural here (the "richer set of predicates" of §3.4).
	p := webPkt(0)
	p.Payload = []byte("attack")
	prog := &Program{
		Clauses: []Clause{{Pred: pred.Test{Field: "payload", Value: "attack"}, Op: OpDeny}},
	}
	in, _ := New(prog, nil)
	if v := in.Process(p, 0); v != Drop {
		t.Error("payload match failed")
	}
	p2 := webPkt(0)
	p2.Payload = []byte("benign")
	if v := in.Process(p2, 0); v != Accept {
		t.Error("benign payload dropped")
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	clock := &manualClock{}
	prog := &Program{
		Clauses: []Clause{{
			Pred:       pred.Test{Field: "tcp.dst", Value: "80"},
			Op:         OpRateLimit,
			RateBps:    8000, // 1000 bytes/s
			BurstBytes: 1000,
		}},
	}
	in, err := New(prog, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Burst allows the first 1000 bytes.
	if v := in.Process(webPkt(0), 500); v != Accept {
		t.Fatal("first packet should pass on burst")
	}
	if v := in.Process(webPkt(0), 500); v != Accept {
		t.Fatal("second packet should drain the burst")
	}
	if v := in.Process(webPkt(0), 500); v != Drop {
		t.Fatal("third packet should exceed the bucket")
	}
	// After 0.5 s, 500 bytes of tokens accrue.
	clock.Advance(500 * time.Millisecond)
	if v := in.Process(webPkt(0), 500); v != Accept {
		t.Fatal("packet after refill should pass")
	}
	if v := in.Process(webPkt(0), 500); v != Drop {
		t.Fatal("bucket should be empty again")
	}
}

func TestRateLimitLongRunThroughput(t *testing.T) {
	clock := &manualClock{}
	prog := &Program{
		Clauses: []Clause{{
			Pred:       pred.True,
			Op:         OpRateLimit,
			RateBps:    80000, // 10 KB/s
			BurstBytes: 1000,
		}},
	}
	in, _ := New(prog, clock)
	accepted := 0
	for i := 0; i < 1000; i++ {
		clock.Advance(10 * time.Millisecond) // 10 s total
		if in.Process(webPkt(0), 1000) == Accept {
			accepted++
		}
	}
	// 10 s × 10 KB/s = 100 KB = ~100 packets of 1000 B (+1 burst).
	if accepted < 95 || accepted > 110 {
		t.Fatalf("accepted = %d packets, want ~100", accepted)
	}
}

func TestValidate(t *testing.T) {
	if _, err := New(&Program{Clauses: []Clause{{Op: OpAllow}}}, nil); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := New(&Program{Clauses: []Clause{{Pred: pred.True, Op: OpRateLimit}}}, nil); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestFallThroughOrder(t *testing.T) {
	// First matching clause wins.
	prog := &Program{
		Clauses: []Clause{
			{Pred: pred.Test{Field: "tcp.dst", Value: "80"}, Op: OpAllow},
			{Pred: pred.True, Op: OpDeny},
		},
	}
	in, _ := New(prog, nil)
	if in.Process(webPkt(0), 0) != Accept {
		t.Error("web should match first clause")
	}
	if in.Process(sshPkt(), 0) != Drop {
		t.Error("ssh should fall through to deny")
	}
}

func BenchmarkProcess(b *testing.B) {
	prog := &Program{
		Clauses: []Clause{
			{Pred: pred.Test{Field: "tcp.dst", Value: "22"}, Op: OpDeny},
			{Pred: pred.True, Op: OpRateLimit, RateBps: 1e9},
		},
	}
	in, _ := New(prog, nil)
	p := webPkt(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Process(p, 100)
	}
}
