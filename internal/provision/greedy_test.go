package provision

import (
	"strings"
	"testing"

	"merlin/internal/logical"
	"merlin/internal/topo"
)

// TestGreedyHeadroomExhaustion: once every path between the endpoints is
// saturated, no path has headroom left and Greedy reports which
// request it could not place.
func TestGreedyHeadroomExhaustion(t *testing.T) {
	tp := topo.TwoPath(100*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "a", "h1 .* h2", nil, 90*topo.MBps),
		req(t, tp, "b", "h1 .* h2", nil, 90*topo.MBps),
		req(t, tp, "c", "h1 .* h2", nil, 90*topo.MBps), // no path left
	}
	_, err := Greedy(tp, reqs)
	if err == nil {
		t.Fatal("greedy placed three 90MB/s guarantees on two 100MB/s paths")
	}
	// Largest-first ordering means the third-served request (all equal
	// rates: input order ties) is the one that fails.
	if !strings.Contains(err.Error(), "failed to place") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestGreedyLargestFirst: the biggest guarantee is served first and takes
// the shortest path; the smaller one detours.
func TestGreedyLargestFirst(t *testing.T) {
	tp := topo.TwoPath(400*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "small", "h1 .* h2", nil, 60*topo.MBps),
		req(t, tp, "big", "h1 .* h2", nil, 90*topo.MBps),
	}
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// big (90) is served first despite appearing second, takes the 2-hop
	// narrow path (100 MB/s); small then lacks narrow headroom (90+60 >
	// 100) and must take the 3-hop wide path.
	if got := hops(tp, res.Paths["big"]); got != 2 {
		t.Errorf("big path hops = %d (%v), want 2", got, pathNames(tp, res.Paths["big"]))
	}
	if got := hops(tp, res.Paths["small"]); got != 3 {
		t.Errorf("small path hops = %d (%v), want 3", got, pathNames(tp, res.Paths["small"]))
	}
}

// TestGreedyReservationAccounting: Reserved carries exactly the guarantee
// on each directed link of the chosen path, and the stats pool both
// directions of a cable.
func TestGreedyReservationAccounting(t *testing.T) {
	tp := topo.Linear(3, topo.Gbps) // h1 - s0 - s1 - s2 - h2
	reqs := []Request{
		req(t, tp, "fwd", "h1 .* h2", nil, 100*topo.Mbps),
		req(t, tp, "rev", "h2 .* h1", nil, 50*topo.Mbps),
	}
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Each request reserves its rate on every directed link of its 4-hop
	// path: 8 directed-link entries in total, none shared.
	if len(res.Reserved) != 8 {
		t.Fatalf("reserved %d directed links, want 8: %v", len(res.Reserved), res.Reserved)
	}
	var fwdBits, revBits float64
	for _, steps := range [][]logical.Step{res.Paths["fwd"], res.Paths["rev"]} {
		if got := len(logical.Locations(steps)) - 1; got != 4 {
			t.Fatalf("path hops = %d, want 4", got)
		}
	}
	for _, bits := range res.Reserved {
		switch bits {
		case 100 * topo.Mbps:
			fwdBits++
		case 50 * topo.Mbps:
			revBits++
		default:
			t.Fatalf("unexpected reservation %v", bits)
		}
	}
	if fwdBits != 4 || revBits != 4 {
		t.Fatalf("reservations fwd=%v rev=%v, want 4 each", fwdBits, revBits)
	}
	// Both directions pool onto one cable for the stats: 150 Mbps of a
	// 1 Gbps cable.
	if want := 150 * topo.Mbps; res.RMaxBits != want {
		t.Errorf("RMaxBits = %v, want %v", res.RMaxBits, want)
	}
	if want := 0.15; res.RMax != want {
		t.Errorf("RMax = %v, want %v", res.RMax, want)
	}
	if err := res.Validate(tp); err != nil {
		t.Fatal(err)
	}
}

// TestShortestWithHeadroomZeroRate: a zero-rate request ignores headroom
// and routes through fully reserved links.
func TestShortestWithHeadroomZeroRate(t *testing.T) {
	tp := topo.TwoPath(100*topo.MBps, 100*topo.MBps)
	reqs := []Request{
		req(t, tp, "fill1", "h1 .* h2", nil, 100*topo.MBps),
		req(t, tp, "fill2", "h1 .* h2", nil, 100*topo.MBps),
		req(t, tp, "free", "h1 .* h2", nil, 0),
	}
	res, err := Greedy(tp, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths["free"]) == 0 {
		t.Fatal("zero-rate request not routed through saturated network")
	}
	// The shortest (2-hop) route wins since headroom does not constrain it.
	if got := hops(tp, res.Paths["free"]); got != 2 {
		t.Errorf("zero-rate path hops = %d, want 2", got)
	}
}

// TestValidateRejectsOverCapacity: Validate must reject a result whose
// pooled cable reservations exceed capacity — including when each
// direction alone fits.
func TestValidateRejectsOverCapacity(t *testing.T) {
	tp := topo.Linear(2, 100*topo.MBps) // h1 - s0 - s1 - h2
	l, ok := tp.FindLink(tp.MustLookup("s0"), tp.MustLookup("s1"))
	if !ok {
		t.Fatal("no s0-s1 link")
	}
	over := &Result{Reserved: map[topo.LinkID]float64{l.ID: 150 * topo.MBps}}
	if err := over.Validate(tp); err == nil {
		t.Fatal("over-capacity reservation validated")
	}
	// 60 + 60 MB/s across the two directions of one cable exceeds its
	// pooled 100 MB/s capacity (eq. 2 pools directions).
	split := &Result{Reserved: map[topo.LinkID]float64{
		l.ID:                  60 * topo.MBps,
		tp.Link(l.ID).Reverse: 60 * topo.MBps,
	}}
	if err := split.Validate(tp); err == nil {
		t.Fatal("over-capacity split across directions validated")
	}
	ok1 := &Result{Reserved: map[topo.LinkID]float64{l.ID: 90 * topo.MBps}}
	if err := ok1.Validate(tp); err != nil {
		t.Fatalf("in-capacity reservation rejected: %v", err)
	}
}
