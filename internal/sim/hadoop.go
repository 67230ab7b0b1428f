package sim

import (
	"fmt"

	"merlin/internal/topo"
)

// HadoopConfig models the §6.2 Hadoop experiment: a sort job on a small
// cluster whose shuffle phase is sensitive to background UDP traffic.
// Calibration: the paper reports 466 s alone, 558 s under interference
// (~20% slower), and 500 s with a 90% bandwidth guarantee. Decomposing the
// baseline into compute + network gives ComputeSeconds ≈ 374 and a network
// phase of ≈ 92 s at full line rate, which the defaults reproduce.
type HadoopConfig struct {
	// Servers is the cluster size (default 4).
	Servers int
	// LinkBps is the NIC/link speed (default 1 Gbps).
	LinkBps float64
	// ComputeSeconds is the non-network portion of the job (default 374).
	ComputeSeconds float64
	// ShuffleBitsPerHost is each server's shuffle egress volume
	// (default: 92 s at line rate).
	ShuffleBitsPerHost float64
	// Background enables iperf-style UDP interference between the same
	// servers, offered at line rate.
	Background bool
	// GuaranteeFraction reserves this fraction of each link for the
	// Hadoop flows (0 = best effort; the paper's policy uses 0.9).
	GuaranteeFraction float64
	// StepSeconds is the simulation tick (default 0.1).
	StepSeconds float64
}

func (c *HadoopConfig) defaults() {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.LinkBps == 0 {
		c.LinkBps = topo.Gbps
	}
	if c.ComputeSeconds == 0 {
		c.ComputeSeconds = 374
	}
	if c.ShuffleBitsPerHost == 0 {
		c.ShuffleBitsPerHost = 92 * c.LinkBps
	}
	if c.StepSeconds == 0 {
		c.StepSeconds = 0.1
	}
}

// HadoopResult reports the simulated job.
type HadoopResult struct {
	CompletionSeconds float64
	ShuffleSeconds    float64
}

// RunHadoop simulates the sort job and returns its completion time.
func RunHadoop(cfg HadoopConfig) (*HadoopResult, error) {
	cfg.defaults()
	// Cluster LAN: one switch, n servers.
	t := topo.Star(1, cfg.Servers, cfg.LinkBps)
	net := New(t)
	hosts := t.Hosts()
	n := len(hosts)
	perPair := cfg.ShuffleBitsPerHost / float64(n-1)
	// Per-flow guarantee: the per-link reservation split across the
	// flows sharing each egress link (the localization of §3.1).
	perFlowMin := 0.0
	if cfg.GuaranteeFraction > 0 {
		perFlowMin = cfg.GuaranteeFraction * cfg.LinkBps / float64(n-1)
	}
	var shuffle []*Flow
	for i, src := range hosts {
		for j, dst := range hosts {
			if i == j {
				continue
			}
			f, err := net.AddFlow(fmt.Sprintf("shuffle-%d-%d", i, j), src, dst,
				cfg.LinkBps, perFlowMin, 0)
			if err != nil {
				return nil, err
			}
			shuffle = append(shuffle, f)
		}
	}
	if cfg.Background {
		// iperf UDP blasts all-to-all: gossip-style background traffic
		// matches the shuffle's flow count on every link, halving the
		// shuffle's share — the paper's measured doubling of the network
		// phase (558 s = 374 s compute + 2 × 92 s network).
		for i, src := range hosts {
			for j, dst := range hosts {
				if i == j {
					continue
				}
				if _, err := net.AddFlow(fmt.Sprintf("udp-%d-%d", i, j), src, dst,
					cfg.LinkBps, 0, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	// Shuffle until every flow has moved its bytes.
	const maxSim = 24 * 3600.0
	for net.Time < maxSim {
		done := true
		for _, f := range shuffle {
			if f.BitsSent < perPair {
				done = false
				f.Demand = cfg.LinkBps
			} else {
				f.Active = false
			}
		}
		if done {
			break
		}
		net.Step(cfg.StepSeconds)
		if err := net.CheckCapacities(); err != nil {
			return nil, err
		}
	}
	if net.Time >= maxSim {
		return nil, fmt.Errorf("sim: hadoop shuffle did not converge")
	}
	return &HadoopResult{
		CompletionSeconds: cfg.ComputeSeconds + net.Time,
		ShuffleSeconds:    net.Time,
	}, nil
}

// RingPaxosConfig models the Fig. 5 experiment: two replicated services
// whose rings share one machine, making its NIC the contended resource.
type RingPaxosConfig struct {
	// Capacity is the shared machine's NIC speed (default 1 Gbps).
	Capacity float64
	// PerClientBps is each client's offered load (default 10 Mbps).
	PerClientBps float64
	// GuaranteeBps reserves bandwidth for service 2 (0 = no Merlin
	// policy; the "with Merlin" run uses ~600 Mbps).
	GuaranteeBps float64
	// MaxClients sweeps 0..MaxClients total clients (default 120).
	MaxClients int
	// ClientStep is the sweep granularity (default 10).
	ClientStep int
}

func (c *RingPaxosConfig) defaults() {
	if c.Capacity == 0 {
		c.Capacity = topo.Gbps
	}
	if c.PerClientBps == 0 {
		c.PerClientBps = 10 * topo.Mbps
	}
	if c.MaxClients == 0 {
		c.MaxClients = 120
	}
	if c.ClientStep == 0 {
		c.ClientStep = 10
	}
}

// RingPaxosRow is one sweep point.
type RingPaxosRow struct {
	Clients                 int
	Ring1, Ring2, Aggregate float64 // bits/s
}

// RunRingPaxos sweeps client counts and reports per-service and aggregate
// throughput. Clients are split evenly between the services.
func RunRingPaxos(cfg RingPaxosConfig) ([]RingPaxosRow, error) {
	cfg.defaults()
	var rows []RingPaxosRow
	for clients := 0; clients <= cfg.MaxClients; clients += cfg.ClientStep {
		perService := float64(clients) / 2 * cfg.PerClientBps
		r1, r2, err := ringPaxosPoint(cfg, perService, perService)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RingPaxosRow{
			Clients: clients, Ring1: r1, Ring2: r2, Aggregate: r1 + r2,
		})
	}
	return rows, nil
}

func ringPaxosPoint(cfg RingPaxosConfig, demand1, demand2 float64) (float64, float64, error) {
	// The shared machine's egress link is the bottleneck; model it as a
	// two-host topology whose single cable both rings' traffic crosses.
	t := topo.Linear(1, cfg.Capacity)
	h1 := t.MustLookup("h1")
	h2 := t.MustLookup("h2")
	net := New(t)
	f1, err := net.AddFlow("ring1", h1, h2, demand1, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	f2, err := net.AddFlow("ring2", h1, h2, demand2, cfg.GuaranteeBps, 0)
	if err != nil {
		return 0, 0, err
	}
	net.Allocate()
	if err := net.CheckCapacities(); err != nil {
		return 0, 0, err
	}
	return f1.Rate, f2.Rate, nil
}
