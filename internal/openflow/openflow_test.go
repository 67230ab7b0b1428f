package openflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"merlin/internal/packet"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

func linearNet(t *testing.T) (*topo.Topology, *Network, topo.NodeID, topo.NodeID) {
	t.Helper()
	tp := topo.Linear(2, topo.Gbps) // s0-s1, h1@s0, h2@s1
	return tp, NewNetwork(tp), tp.MustLookup("h1"), tp.MustLookup("h2")
}

func pkt() *packet.Packet {
	return packet.TCPPacket("00:00:00:00:00:01", "00:00:00:00:00:02",
		"10.0.0.1", "10.0.0.2", 4000, 80, nil)
}

func TestMatchWildcards(t *testing.T) {
	p := pkt()
	m := Match{InPort: MatchAny, VLAN: MatchAny}
	if !m.Matches(p, 5) {
		t.Fatal("full wildcard should match")
	}
	m = Match{InPort: 3, VLAN: MatchAny}
	if m.Matches(p, 5) || !m.Matches(p, 3) {
		t.Fatal("in-port match wrong")
	}
	m = Match{InPort: MatchAny, VLAN: packet.VLANNone}
	if !m.Matches(p, 0) {
		t.Fatal("untagged match should hold")
	}
	p.VLAN = 7
	if m.Matches(p, 0) {
		t.Fatal("tagged packet matched untagged rule")
	}
	m = Match{InPort: MatchAny, VLAN: MatchAny, EthDst: "00:00:00:00:00:02"}
	if !m.Matches(p, 0) {
		t.Fatal("eth.dst match failed")
	}
	m.Predicate = pred.Test{Field: "tcp.dst", Value: "22"}
	if m.Matches(p, 0) {
		t.Fatal("predicate should reject port 80")
	}
}

func TestPriorityOrder(t *testing.T) {
	tp, net, h1, h2 := linearNet(t)
	s0 := tp.MustLookup("s0")
	s1 := tp.MustLookup("s1")
	toS1, _ := tp.FindLink(s0, s1)
	toH2, _ := tp.FindLink(s1, h2)
	// Low-priority drop, high-priority forward: forward must win.
	net.Install([]Rule{
		{Switch: s0, Priority: 1, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Drop{}}},
		{Switch: s0, Priority: 10, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Output{Port: toS1.ID}}},
		{Switch: s1, Priority: 1, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Output{Port: toH2.ID}}},
	})
	tr := net.Inject(h1, pkt())
	if !tr.Delivered || tr.DeliveredTo != h2 {
		t.Fatalf("trace: %+v", tr)
	}
	if n := ruleCount(net); n != 3 {
		t.Fatalf("rule count = %d", n)
	}
}

// ruleCount reports the number of rules installed in n.
func ruleCount(n *Network) int {
	c := 0
	for _, tbl := range n.tables {
		c += len(tbl)
	}
	return c
}

func TestVLANActions(t *testing.T) {
	tp, net, h1, h2 := linearNet(t)
	s0 := tp.MustLookup("s0")
	s1 := tp.MustLookup("s1")
	toS1, _ := tp.FindLink(s0, s1)
	toH2, _ := tp.FindLink(s1, h2)
	net.Install([]Rule{
		{Switch: s0, Priority: 1, Match: Match{InPort: MatchAny, VLAN: packet.VLANNone},
			Actions: []Action{SetVLAN{VLAN: 9}, Output{Port: toS1.ID}}},
		{Switch: s1, Priority: 1, Match: Match{InPort: MatchAny, VLAN: 9},
			Actions: []Action{StripVLAN{}, Output{Port: toH2.ID}}},
	})
	tr := net.Inject(h1, pkt())
	if !tr.Delivered {
		t.Fatalf("not delivered: %s", tr.Dropped)
	}
	if tr.Final.VLAN != packet.VLANNone {
		t.Fatal("VLAN not stripped")
	}
}

func TestNoRuleDrops(t *testing.T) {
	_, net, h1, _ := linearNet(t)
	tr := net.Inject(h1, pkt())
	if tr.Delivered || tr.Dropped != "no matching rule" {
		t.Fatalf("trace: %+v", tr)
	}
}

func TestLoopDetection(t *testing.T) {
	tp, net, h1, _ := linearNet(t)
	s0 := tp.MustLookup("s0")
	s1 := tp.MustLookup("s1")
	toS1, _ := tp.FindLink(s0, s1)
	toS0, _ := tp.FindLink(s1, s0)
	net.Install([]Rule{
		{Switch: s0, Priority: 1, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Output{Port: toS1.ID}}},
		{Switch: s1, Priority: 1, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Output{Port: toS0.ID}}},
	})
	tr := net.Inject(h1, pkt())
	if tr.Delivered || !strings.Contains(tr.Dropped, "loop") {
		t.Fatalf("trace: %+v", tr)
	}
}

func TestMiddleboxTransformAndDrop(t *testing.T) {
	tp := topo.Example(topo.Gbps)
	net := NewNetwork(tp)
	h1 := tp.MustLookup("h1")
	m1 := tp.MustLookup("m1")
	s1 := tp.MustLookup("s1")
	s2 := tp.MustLookup("s2")
	h2 := tp.MustLookup("h2")
	toM1, _ := tp.FindLink(s1, m1)
	fromM1, _ := tp.FindLink(m1, s1)
	toS2, _ := tp.FindLink(s1, s2)
	toH2, _ := tp.FindLink(s2, h2)
	fromH1, _ := tp.FindLink(h1, s1)
	net.Install([]Rule{
		{Switch: s1, Priority: 5, Match: Match{InPort: fromH1.ID, VLAN: MatchAny},
			Actions: []Action{Output{Port: toM1.ID}}},
		{Switch: s1, Priority: 5, Match: Match{InPort: fromM1.ID, VLAN: MatchAny},
			Actions: []Action{Output{Port: toS2.ID}}},
		{Switch: s2, Priority: 5, Match: Match{InPort: MatchAny, VLAN: MatchAny},
			Actions: []Action{Output{Port: toH2.ID}}},
	})
	// A transforming middlebox rewrites the TOS field.
	net.AddMiddleboxFunction(m1, func(p *packet.Packet) []*packet.Packet {
		q := p.Clone()
		q.IPv4.TOS = 42
		return []*packet.Packet{q}
	})
	tr := net.Inject(h1, pkt())
	if !tr.Delivered {
		t.Fatalf("not delivered: %s (%v)", tr.Dropped, tr.HopNames(tp))
	}
	if tr.Final.IPv4.TOS != 42 {
		t.Fatal("middlebox transformation lost")
	}
	// A consuming middlebox (IDS dropping attacks) kills the packet.
	net2 := NewNetwork(tp)
	net2.Install([]Rule{
		{Switch: s1, Priority: 5, Match: Match{InPort: fromH1.ID, VLAN: MatchAny},
			Actions: []Action{Output{Port: toM1.ID}}},
	})
	net2.AddMiddleboxFunction(m1, func(p *packet.Packet) []*packet.Packet { return nil })
	tr2 := net2.Inject(h1, pkt())
	if tr2.Delivered || !strings.Contains(tr2.Dropped, "consumed") {
		t.Fatalf("trace: %+v", tr2)
	}
}

func TestInjectFromNonHost(t *testing.T) {
	tp, net, _, _ := linearNet(t)
	tr := net.Inject(tp.MustLookup("s0"), pkt())
	if tr.Delivered || tr.Dropped == "" {
		t.Fatal("switch injection should fail")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Switch: 1, Priority: 7,
		Match:   Match{InPort: 2, VLAN: 5, EthDst: "00:00:00:00:00:02"},
		Actions: []Action{SetVLAN{VLAN: 6}, Enqueue{Port: 3, Queue: 1}, StripVLAN{}, Drop{}},
	}
	s := r.String()
	for _, want := range []string{"vlan=5", "set_vlan:6", "enqueue:3:1", "strip_vlan", "drop"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// fmtString is Rule.String as fmt.Sprintf and strings.Join rendered it,
// kept as the reference the single-builder renderer is held to.
func fmtString(r Rule) string {
	var parts []string
	if r.Match.InPort != MatchAny {
		parts = append(parts, fmt.Sprintf("in=%d", r.Match.InPort))
	}
	if r.Match.VLAN != MatchAny {
		parts = append(parts, fmt.Sprintf("vlan=%d", r.Match.VLAN))
	}
	if r.Match.EthSrc != "" {
		parts = append(parts, "src="+r.Match.EthSrc)
	}
	if r.Match.EthDst != "" {
		parts = append(parts, "dst="+r.Match.EthDst)
	}
	if r.Match.Predicate != nil {
		parts = append(parts, pred.Format(r.Match.Predicate))
	}
	var acts []string
	for _, a := range r.Actions {
		switch act := a.(type) {
		case Output:
			acts = append(acts, fmt.Sprintf("output:%d", act.Port))
		case SetVLAN:
			acts = append(acts, fmt.Sprintf("set_vlan:%d", act.VLAN))
		case StripVLAN:
			acts = append(acts, "strip_vlan")
		case Enqueue:
			acts = append(acts, fmt.Sprintf("enqueue:%d:%d", act.Port, act.Queue))
		case Drop:
			acts = append(acts, "drop")
		}
	}
	return fmt.Sprintf("sw=%d prio=%d [%s] -> %s",
		r.Switch, r.Priority, strings.Join(parts, ","), strings.Join(acts, ","))
}

// TestRuleStringMatchesFmt renders random rules — every match field set
// or wildcarded (MatchAny, untagged VLANs, negative and large values),
// predicates, and all five action kinds in any number — and compares
// them with the fmt rendering.
func TestRuleStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	num := func() int {
		switch rng.Intn(4) {
		case 0:
			return MatchAny
		case 1:
			return packet.VLANNone
		case 2:
			return rng.Intn(100)
		default:
			return rng.Intn(1 << 30)
		}
	}
	str := func(v string) string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return v
	}
	preds := []pred.Pred{
		nil,
		pred.Test{Field: "tcp.dst", Value: "80"},
		pred.Conj(pred.Test{Field: "ip.proto", Value: "6"}, pred.Or{L: pred.Test{Field: "tcp.dst", Value: "22"}, R: pred.Not{P: pred.Test{Field: "tcp.dst", Value: "23"}}}),
		pred.True,
	}
	for i := 0; i < 2000; i++ {
		r := Rule{
			Switch:   topo.NodeID(rng.Intn(300)),
			Priority: num(),
			Match: Match{
				InPort:    topo.LinkID(num()),
				VLAN:      num(),
				EthSrc:    str("00:00:00:00:00:01"),
				EthDst:    str("00:00:00:00:01:0a"),
				Predicate: preds[rng.Intn(len(preds))],
			},
		}
		for n := rng.Intn(5); n > 0; n-- {
			var a Action
			switch rng.Intn(5) {
			case 0:
				a = Output{Port: topo.LinkID(num())}
			case 1:
				a = SetVLAN{VLAN: num()}
			case 2:
				a = StripVLAN{}
			case 3:
				a = Enqueue{Port: topo.LinkID(num()), Queue: num()}
			default:
				a = Drop{}
			}
			r.Actions = append(r.Actions, a)
		}
		if got, want := r.String(), fmtString(r); got != want {
			t.Fatalf("rule %d renders %q, want %q", i, got, want)
		}
	}
}
