package negotiate

import (
	"math"
	"testing"

	"merlin/internal/policy"
	"merlin/internal/topo"
)

func mustPolicy(t testing.TB, src string) *policy.Policy {
	t.Helper()
	p, err := policy.Parse(src, policy.Env{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMaxMinFairShare(t *testing.T) {
	for _, tc := range []struct {
		cap     float64
		demands []float64
		want    []float64
	}{
		{100, []float64{200, 200}, []float64{50, 50}},
		{100, []float64{10, 200}, []float64{10, 90}},
		{100, []float64{10, 20, 30}, []float64{10, 20, 30}},
		{90, []float64{10, 200, 200}, []float64{10, 40, 40}},
		{100, nil, nil},
		{100, []float64{0, 50}, []float64{0, 50}},
	} {
		got := MaxMinFairShare(tc.cap, tc.demands)
		if len(got) != len(tc.want) {
			t.Fatalf("len mismatch for %v", tc)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("MMFS(%v,%v) = %v, want %v", tc.cap, tc.demands, got, tc.want)
				break
			}
		}
	}
}

func TestAIMDSawtooth(t *testing.T) {
	series, err := RunAIMD(AIMDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// Sawtooth: rates must rise and fall repeatedly.
	drops := 0
	rises := 0
	s := series[0].Samples
	for i := 1; i < len(s); i++ {
		switch {
		case s[i].Rate < s[i-1].Rate-1e6:
			drops++
		case s[i].Rate > s[i-1].Rate+1e6:
			rises++
		}
	}
	if drops < 2 || rises < 10 {
		t.Fatalf("no sawtooth: %d rises, %d drops", rises, drops)
	}
	// Long-run shares are roughly fair.
	m1, m2 := series[0].Mean(), series[1].Mean()
	if math.Abs(m1-m2) > 0.2*(m1+m2) {
		t.Fatalf("unfair long-run shares: %v vs %v", m1, m2)
	}
}

func TestMMFSStaircase(t *testing.T) {
	series, err := RunMMFS(MMFSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := series[0], series[1]
	// Before t=5: f1 alone at its 400 Mbps demand.
	if f1.Samples[2].Rate < 390*topo.Mbps {
		t.Fatalf("f1 early rate = %v", f1.Samples[2].Rate)
	}
	if f2.Samples[2].Rate != 0 {
		t.Fatalf("f2 early rate = %v", f2.Samples[2].Rate)
	}
	// t in (5,15): f2 gets its 150 declared; f1 squeezed to 350.
	if math.Abs(f2.Samples[10].Rate-150*topo.Mbps) > 1e6 {
		t.Fatalf("f2 mid rate = %v", f2.Samples[10].Rate)
	}
	if math.Abs(f1.Samples[10].Rate-350*topo.Mbps) > 1e6 {
		t.Fatalf("f1 mid rate = %v", f1.Samples[10].Rate)
	}
	// t > 15: both converge to the fair 250.
	if math.Abs(f1.Samples[25].Rate-250*topo.Mbps) > 1e6 ||
		math.Abs(f2.Samples[25].Rate-250*topo.Mbps) > 1e6 {
		t.Fatalf("late rates = %v, %v", f1.Samples[25].Rate, f2.Samples[25].Rate)
	}
}

func TestAIMDStateUpdate(t *testing.T) {
	s := &AIMDState{Alloc: 100, Increase: 10, Decrease: 0.5}
	s.Update(100, false)
	if s.Alloc != 110 {
		t.Fatalf("additive increase failed: %v", s.Alloc)
	}
	s.Update(0, false) // unused allocation: no probe
	if s.Alloc != 110 {
		t.Fatalf("unused allocation probed: %v", s.Alloc)
	}
	s.Update(110, true)
	if s.Alloc != 55 {
		t.Fatalf("multiplicative decrease failed: %v", s.Alloc)
	}
}
