package negotiate

import (
	"fmt"
	"strings"

	"merlin/internal/policy"
	"merlin/internal/sim"
	"merlin/internal/topo"
)

// runPairs is the Fig. 10 harness: each host pair is one simulated flow
// and one Hub session, delegated a cap of the shared link's capacity and
// contending in a single shard of that capacity. Every tick it offers the
// tenants' loads (demand(now), one per pair), ticks the hub, applies the
// sessions' allocations to the flows as their caps, and records the
// achieved rates.
func runPairs(t *topo.Topology, pairs [][2]string, capacity float64, opts HubOptions, ctrl AIMDState,
	seconds, tick float64, demand func(now float64) []float64) ([]sim.Series, error) {
	net := sim.New(t)
	flows := make([]*sim.Flow, len(pairs))
	var sb strings.Builder
	sb.WriteString("[")
	for i, p := range pairs {
		src, dst := t.MustLookup(p[0]), t.MustLookup(p[1])
		f, err := net.AddFlow(p[0]+"-"+p[1], src, dst, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		flows[i] = f
		fmt.Fprintf(&sb, " p%d : (eth.src = %s and eth.dst = %s) -> .* at max(%s) ;",
			i, topo.MACOf(src), topo.MACOf(dst), policy.FormatRate(capacity))
	}
	sb.WriteString(" ]")
	pol, err := policy.Parse(sb.String(), policy.Env{})
	if err != nil {
		return nil, err
	}
	hub, err := NewHub(pol, opts)
	if err != nil {
		return nil, err
	}
	if err := hub.AddShard("link", capacity); err != nil {
		return nil, err
	}
	sessions := make([]*Session, len(pairs))
	out := make([]sim.Series, len(pairs))
	for i, f := range flows {
		id := fmt.Sprintf("p%d", i)
		if sessions[i], err = hub.Register(id, "link", []string{id}, ctrl); err != nil {
			return nil, err
		}
		out[i].Name = f.ID
	}
	for now := 0.0; now < seconds; now += tick {
		for i, d := range demand(now) {
			flows[i].Demand = d
			sessions[i].OfferDemand(d)
		}
		if _, err := hub.Tick(); err != nil {
			return nil, err
		}
		for i, s := range sessions {
			flows[i].MaxRate = s.Alloc()
		}
		net.Step(tick)
		for i, f := range flows {
			out[i].Record(now, f.Rate)
		}
	}
	return out, nil
}

// AIMDConfig drives the Fig. 10(a) experiment: two hosts sharing one link,
// each an AIMD hub session adjusting its bandwidth cap.
type AIMDConfig struct {
	CapacityBps float64 // default 1 Gbps
	IncreaseBps float64 // default 20 Mbps
	Decrease    float64 // default 0.5
	Seconds     float64 // default 70
	TickSeconds float64 // default 1
}

func (c *AIMDConfig) defaults() {
	if c.CapacityBps == 0 {
		c.CapacityBps = topo.Gbps
	}
	if c.IncreaseBps == 0 {
		c.IncreaseBps = 20 * topo.Mbps
	}
	if c.Decrease == 0 {
		c.Decrease = 0.5
	}
	if c.Seconds == 0 {
		c.Seconds = 70
	}
	if c.TickSeconds == 0 {
		c.TickSeconds = 1
	}
}

// RunAIMD simulates two greedy tenants as AIMD hub sessions and returns
// their rate time series. The expected shape is the classic sawtooth:
// allocations climb additively until the shared link congests, then halve.
func RunAIMD(cfg AIMDConfig) ([]sim.Series, error) {
	cfg.defaults()
	// Both flows cross the same cable in opposite directions; AIMD
	// contention is against the shared capacity pool, so the hub shard
	// pools both directions (as eq. 2 does). Sessions start at their
	// delegated cap — the whole link each — so the first tick is congested
	// and backs both off to the probe step.
	greedy := []float64{cfg.CapacityBps, cfg.CapacityBps}
	return runPairs(topo.Linear(1, cfg.CapacityBps), [][2]string{{"h1", "h2"}, {"h2", "h1"}},
		cfg.CapacityBps, HubOptions{},
		AIMDState{Alloc: cfg.IncreaseBps, Increase: cfg.IncreaseBps, Decrease: cfg.Decrease},
		cfg.Seconds, cfg.TickSeconds, func(float64) []float64 { return greedy })
}

// MMFSConfig drives the Fig. 10(b) experiment: four hosts (h1→h2 and
// h3→h4) sharing a link, with demands declared to a max-min fair-share
// hub at different times.
type MMFSConfig struct {
	CapacityBps float64 // default 500 Mbps (the figure's scale)
	Seconds     float64 // default 30
	TickSeconds float64 // default 1
}

func (c *MMFSConfig) defaults() {
	if c.CapacityBps == 0 {
		c.CapacityBps = 500 * topo.Mbps
	}
	if c.Seconds == 0 {
		c.Seconds = 30
	}
	if c.TickSeconds == 0 {
		c.TickSeconds = 1
	}
}

// RunMMFS simulates the two tenant pairs declaring demands over time:
// h1→h2 wants 400 Mbps from the start; h3→h4 declares 150 Mbps at t=5 and
// raises to 400 Mbps at t=15. The hub's MMFS tick re-divides max-min fairly
// at each declaration, so the series shows the Fig. 10(b) staircase.
func RunMMFS(cfg MMFSConfig) ([]sim.Series, error) {
	cfg.defaults()
	// Dumbbell: both pairs traverse the shared middle cable.
	t := topo.New()
	s1 := t.AddSwitch("s1")
	s2 := t.AddSwitch("s2")
	t.AddLink(s1, s2, cfg.CapacityBps)
	t.AddLink(t.AddHost("h1"), s1, 10*cfg.CapacityBps)
	t.AddLink(t.AddHost("h2"), s2, 10*cfg.CapacityBps)
	t.AddLink(t.AddHost("h3"), s1, 10*cfg.CapacityBps)
	t.AddLink(t.AddHost("h4"), s2, 10*cfg.CapacityBps)
	demand := func(now float64) []float64 {
		d2 := 400 * topo.Mbps
		switch {
		case now < 5:
			d2 = 0
		case now < 15:
			d2 = 150 * topo.Mbps
		}
		return []float64{400 * topo.Mbps, d2}
	}
	return runPairs(t, [][2]string{{"h1", "h2"}, {"h3", "h4"}}, cfg.CapacityBps,
		HubOptions{MMFS: true}, AIMDState{}, cfg.Seconds, cfg.TickSeconds, demand)
}
