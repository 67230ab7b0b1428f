// Package sim is a flow-level network simulator: links with capacities
// carry flows whose rates are assigned each tick by progressive-filling
// max-min fair sharing with reservations (bandwidth guarantees) and caps
// (bandwidth limits) — the allocation discipline Merlin's generated queue
// and tc configurations enforce on real hardware. It substitutes for the
// paper's physical testbed in the §6.2 application experiments (Hadoop,
// Ring Paxos) and the Fig. 10 adaptation experiments.
package sim

import (
	"fmt"
	"math"

	"merlin/internal/topo"
)

// Flow is one unidirectional traffic aggregate riding a fixed path.
type Flow struct {
	ID   string
	Path []topo.LinkID // directed links in path order

	// Demand is the offered load in bits/s this tick.
	Demand float64
	// MinRate is the guaranteed rate (reserved on its links); MaxRate the
	// cap (+Inf if uncapped).
	MinRate, MaxRate float64
	// Active gates participation.
	Active bool

	// Rate is the allocation computed by the last Allocate call.
	Rate float64
	// BitsSent accumulates across Step calls.
	BitsSent float64
}

// Network simulates a set of flows over a topology.
type Network struct {
	Topo  *topo.Topology
	Flows []*Flow
	// Time is the simulated clock in seconds.
	Time float64
}

// New builds an empty simulation over the topology.
func New(t *topo.Topology) *Network { return &Network{Topo: t} }

// AddFlow registers a flow along the shortest path between two hosts.
func (n *Network) AddFlow(id string, src, dst topo.NodeID, demand, min, max float64) (*Flow, error) {
	nodes := n.Topo.ShortestPath(src, dst)
	if nodes == nil {
		return nil, fmt.Errorf("sim: no path %s -> %s", n.Topo.Node(src).Name, n.Topo.Node(dst).Name)
	}
	return n.AddFlowOnPath(id, nodes, demand, min, max)
}

// AddFlowOnPath registers a flow along an explicit node path.
func (n *Network) AddFlowOnPath(id string, nodes []topo.NodeID, demand, min, max float64) (*Flow, error) {
	var links []topo.LinkID
	for i := 1; i < len(nodes); i++ {
		l, ok := n.Topo.FindLink(nodes[i-1], nodes[i])
		if !ok {
			return nil, fmt.Errorf("sim: no link %s-%s", n.Topo.Node(nodes[i-1]).Name, n.Topo.Node(nodes[i]).Name)
		}
		links = append(links, l.ID)
	}
	if max == 0 {
		max = math.Inf(1)
	}
	f := &Flow{ID: id, Path: links, Demand: demand, MinRate: min, MaxRate: max, Active: true}
	n.Flows = append(n.Flows, f)
	return f, nil
}

// Allocate assigns rates to all active flows:
//
//  1. each flow is granted its guarantee (clipped to demand and cap) —
//     the switch-queue reservations;
//  2. residual demand shares leftover capacity max-min fairly by
//     progressive filling, respecting caps.
//
// The sum of allocations on any link never exceeds its capacity, provided
// guarantees were admission-controlled (the provisioner's job); if
// guarantees alone oversubscribe a link they are scaled back
// proportionally, mirroring a misconfigured dataplane's behavior.
func (n *Network) Allocate() {
	resid := make([]float64, n.Topo.NumLinks())
	for _, l := range n.Topo.Links() {
		if !n.Topo.LinkIsUp(l.ID) {
			continue // failed link: zero residual, flows across it starve
		}
		resid[l.ID] = l.Capacity
	}
	active := make([]*Flow, 0, len(n.Flows))
	for _, f := range n.Flows {
		f.Rate = 0
		if f.Active && f.Demand > 0 {
			active = append(active, f)
		}
	}
	// Phase 1: guarantees.
	for _, f := range active {
		g := math.Min(f.MinRate, math.Min(f.Demand, f.MaxRate))
		if g <= 0 {
			continue
		}
		// Clip to available reserved capacity (defensive; see doc).
		for _, l := range f.Path {
			if resid[l] < g {
				g = resid[l]
			}
		}
		f.Rate = g
		for _, l := range f.Path {
			resid[l] -= g
		}
	}
	// Phase 2: progressive filling of residual demand.
	limit := func(f *Flow) float64 { return math.Min(f.Demand, f.MaxRate) }
	unfrozen := make(map[*Flow]bool)
	for _, f := range active {
		if f.Rate < limit(f)-1e-9 {
			unfrozen[f] = true
		}
	}
	for len(unfrozen) > 0 {
		// Count unfrozen flows per link.
		counts := make(map[topo.LinkID]int)
		for f := range unfrozen {
			for _, l := range f.Path {
				counts[l]++
			}
		}
		// The largest uniform increment every unfrozen flow can take.
		inc := math.Inf(1)
		for f := range unfrozen {
			if room := limit(f) - f.Rate; room < inc {
				inc = room
			}
		}
		for l, c := range counts {
			if share := resid[l] / float64(c); share < inc {
				inc = share
			}
		}
		if inc < 1e-9 {
			inc = 0
		}
		if inc > 0 {
			for f := range unfrozen {
				f.Rate += inc
				for _, l := range f.Path {
					resid[l] -= inc
				}
			}
		}
		// Freeze flows at their limits or crossing saturated links.
		frozeSomething := false
		for f := range unfrozen {
			saturated := false
			for _, l := range f.Path {
				if resid[l] <= 1e-6 {
					saturated = true
					break
				}
			}
			if saturated || f.Rate >= limit(f)-1e-9 {
				delete(unfrozen, f)
				frozeSomething = true
			}
		}
		if !frozeSomething {
			break // numerical stalemate; allocations are already fair
		}
	}
}

// FailedFlows returns the active flows whose path crosses a failed link —
// traffic a link or switch failure blackholed. They stay allocated at
// zero until rerouted (Reroute) or deactivated, mirroring a dataplane
// whose stale forwarding rules still point into the failure.
func (n *Network) FailedFlows() []*Flow {
	var out []*Flow
	for _, f := range n.Flows {
		if !f.Active {
			continue
		}
		for _, l := range f.Path {
			if !n.Topo.LinkIsUp(l) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// Reroute replaces a flow's path with an explicit node path — the
// simulator-side application of a compiler reroute diff. Every hop must
// be a live link.
func (n *Network) Reroute(f *Flow, nodes []topo.NodeID) error {
	var links []topo.LinkID
	for i := 1; i < len(nodes); i++ {
		l, ok := n.Topo.FindLink(nodes[i-1], nodes[i])
		if !ok {
			return fmt.Errorf("sim: reroute %s: no live link %s-%s", f.ID,
				n.Topo.Node(nodes[i-1]).Name, n.Topo.Node(nodes[i]).Name)
		}
		links = append(links, l.ID)
	}
	f.Path = links
	return nil
}

// Step advances the simulation by dt seconds: allocates rates and
// accumulates transferred bits.
func (n *Network) Step(dt float64) {
	n.Allocate()
	for _, f := range n.Flows {
		if f.Active {
			f.BitsSent += f.Rate * dt
		}
	}
	n.Time += dt
}

// CheckCapacities verifies the invariant that no link carries more than
// its capacity. It returns the first violation.
func (n *Network) CheckCapacities() error {
	load := make([]float64, n.Topo.NumLinks())
	for _, f := range n.Flows {
		if !f.Active {
			continue
		}
		for _, l := range f.Path {
			load[l] += f.Rate
		}
	}
	for _, l := range n.Topo.Links() {
		if load[l.ID] > l.Capacity*(1+1e-6) {
			return fmt.Errorf("sim: link %d overloaded: %.3g > %.3g", l.ID, load[l.ID], l.Capacity)
		}
	}
	return nil
}

// Sample is one point of a rate time series.
type Sample struct {
	Time float64
	Rate float64 // bits/s
}

// Series is a named rate time series, the Fig. 5/10 output shape.
type Series struct {
	Name    string
	Samples []Sample
}

// Record appends a sample.
func (s *Series) Record(t, rate float64) {
	s.Samples = append(s.Samples, Sample{Time: t, Rate: rate})
}

// Mean returns the average rate over the series.
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Samples {
		sum += p.Rate
	}
	return sum / float64(len(s.Samples))
}
