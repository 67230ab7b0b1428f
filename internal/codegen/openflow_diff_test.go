package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"merlin/internal/openflow"
	"merlin/internal/packet"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// textDiff is the reference DiffArtifacts must agree with: render both
// artifacts whole and take the multiset difference of the entries.
func textDiff(backend string, old, new Artifact) ArtifactDiff {
	d := ArtifactDiff{Backend: backend}
	var oldE, newE []Entry
	if old != nil {
		oldE = old.Entries()
	}
	if new != nil {
		newE = new.Entries()
	}
	count := map[Entry]int{}
	for _, e := range oldE {
		count[e]++
	}
	for _, e := range newE {
		if count[e] > 0 {
			count[e]--
			continue
		}
		d.Install = append(d.Install, e)
	}
	for _, e := range oldE {
		if count[e] > 0 {
			count[e]--
			d.Remove = append(d.Remove, e)
		}
	}
	return d
}

// flowGen draws OpenFlow rules from a small vocabulary, so that equal
// rules, rules one field apart, and rules of different value that
// render the same text all turn up.
type flowGen struct{ r *rand.Rand }

func (g flowGen) pick(n int) int { return g.r.Intn(n) }

func (g flowGen) test() pred.Pred {
	fields := []pred.Field{"eth.src", "tcp.dst", "(ip.src"}
	vals := []string{"1", "2", "2 and tcp.dst = 1)"}
	return pred.Test{Field: fields[g.pick(len(fields))], Value: vals[g.pick(len(vals))]}
}

func (g flowGen) pred() pred.Pred {
	switch g.pick(5) {
	case 0:
		return nil
	case 1:
		return g.test()
	case 2:
		return pred.And{L: g.test(), R: g.test()}
	case 3:
		return pred.Or{L: g.test(), R: pred.Not{P: g.test()}}
	default:
		return pred.True
	}
}

func (g flowGen) action() openflow.Action {
	switch g.pick(5) {
	case 0:
		return openflow.Output{Port: topo.LinkID(g.pick(3))}
	case 1:
		return openflow.SetVLAN{VLAN: g.pick(3)}
	case 2:
		return openflow.StripVLAN{}
	case 3:
		return openflow.Enqueue{Port: topo.LinkID(g.pick(2)), Queue: g.pick(2)}
	default:
		return openflow.Drop{}
	}
}

func (g flowGen) actions() []openflow.Action {
	acts := make([]openflow.Action, g.pick(keyedActions+3)) // past the inline keyed actions too
	for i := range acts {
		acts[i] = g.action()
	}
	return acts
}

func (g flowGen) rule() openflow.Rule {
	macs := []string{"", "00:00:00:00:00:01", "00:00:00:00:00:01,dst=00:00:00:00:00:02"}
	return openflow.Rule{
		Switch:   topo.NodeID(g.pick(3)),
		Priority: []int{500, 1000, 1001}[g.pick(3)],
		Match: openflow.Match{
			InPort:    []topo.LinkID{openflow.MatchAny, 1, 2}[g.pick(3)],
			VLAN:      []int{openflow.MatchAny, packet.VLANNone, 1, 2}[g.pick(4)],
			EthSrc:    macs[g.pick(len(macs))],
			EthDst:    macs[g.pick(2)],
			Predicate: g.pred(),
		},
		Actions: g.actions(),
	}
}

// mutate changes exactly one match field, one action or one predicate
// leaf of r, in place of its old value.
func (g flowGen) mutate(r openflow.Rule) openflow.Rule {
	r.Actions = slices.Clone(r.Actions)
	switch g.pick(8) {
	case 0:
		r.Switch++
	case 1:
		r.Priority++
	case 2:
		r.Match.InPort++
	case 3:
		r.Match.VLAN++
	case 4:
		r.Match.EthSrc += "0"
	case 5:
		r.Match.EthDst += "0"
	case 6:
		if len(r.Actions) > 0 {
			r.Actions[g.pick(len(r.Actions))] = g.action()
		} else {
			r.Actions = []openflow.Action{g.action()}
		}
	default:
		switch p := r.Match.Predicate.(type) {
		case pred.And:
			p.R = g.test()
			r.Match.Predicate = p
		case pred.Or:
			p.L = g.test()
			r.Match.Predicate = p
		default:
			r.Match.Predicate = g.test()
		}
	}
	return r
}

func (g flowGen) queues(n int) []QueueConfig {
	qs := make([]QueueConfig, n)
	for i := range qs {
		qs[i] = QueueConfig{Switch: topo.NodeID(g.pick(3)), Port: topo.LinkID(g.pick(3)), Queue: 1, MinBps: float64(g.pick(3)) * 1e6}
	}
	return qs
}

// variant derives a new artifact from old: rules dropped, duplicated,
// mutated, drawn fresh and reordered, and queues redrawn in part.
func (g flowGen) variant(old *OpenFlowArtifact) *OpenFlowArtifact {
	var rules []openflow.Rule
	for _, r := range old.Rules {
		switch g.pick(10) {
		case 0: // dropped
		case 1:
			rules = append(rules, r, r)
		case 2:
			rules = append(rules, g.mutate(r))
		case 3:
			rules = append(rules, g.rule(), r)
		default:
			rules = append(rules, r)
		}
	}
	if g.pick(2) == 0 && len(rules) > 1 {
		i, j := g.pick(len(rules)), g.pick(len(rules))
		rules[i], rules[j] = rules[j], rules[i]
	}
	qs := slices.Clone(old.Queues)
	if len(qs) > 0 && g.pick(2) == 0 {
		qs[g.pick(len(qs))] = g.queues(1)[0]
	}
	return &OpenFlowArtifact{Rules: rules, Queues: qs}
}

func TestDiffArtifactsOpenFlowMatchesText(t *testing.T) {
	g := flowGen{rand.New(rand.NewSource(5))}
	for i := 0; i < 1500; i++ {
		old := &OpenFlowArtifact{Queues: g.queues(g.pick(4))}
		for n := g.pick(30); len(old.Rules) < n; {
			old.Rules = append(old.Rules, g.rule())
		}
		new := g.variant(old)
		pairs := [][2]Artifact{{old, new}, {new, old}}
		switch i % 4 {
		case 0:
			pairs = append(pairs, [2]Artifact{nil, new}, [2]Artifact{old, nil})
		case 1:
			pairs = append(pairs, [2]Artifact{old, old})
		}
		for _, p := range pairs {
			got := DiffArtifacts(TargetOpenFlow, p[0], p[1])
			if want := textDiff(TargetOpenFlow, p[0], p[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: structural diff\n%+v\nwant text diff\n%+v", i, got, want)
			}
		}
	}
}

// Rules of different value that render the same text are one entry to
// the text diff, in count and in position; the structural diff must keep
// both.
func TestDiffArtifactsOpenFlowSameTextDifferentValue(t *testing.T) {
	and := openflow.Rule{Switch: 1, Priority: 1000, Match: openflow.Match{InPort: openflow.MatchAny, VLAN: openflow.MatchAny,
		Predicate: pred.And{L: pred.Test{Field: "a", Value: "1"}, R: pred.Test{Field: "b", Value: "2"}}}}
	test := and
	test.Match.Predicate = pred.Test{Field: "(a", Value: "1 and b = 2)"}
	if and.String() != test.String() {
		t.Fatalf("rules render apart: %q vs %q", and.String(), test.String())
	}
	other := rule(1, 500, 2)
	old := &OpenFlowArtifact{Rules: []openflow.Rule{test}}
	new := &OpenFlowArtifact{Rules: []openflow.Rule{and, other, test}}
	got := DiffArtifacts(TargetOpenFlow, old, new)
	if want := textDiff(TargetOpenFlow, old, new); !reflect.DeepEqual(got, want) {
		t.Fatalf("structural diff %+v, want %+v", got, want)
	}
	if got.Install[0].Text != other.String() {
		t.Fatalf("install order %+v: the text diff keeps the first same-text rule", got.Install)
	}
}

// fabricArtifact builds an OpenFlow artifact shaped like a compiled fat
// tree: per switch, tagged forwarding rules and a few classifiers.
func fabricArtifact(switches, perSwitch int) *OpenFlowArtifact {
	a := &OpenFlowArtifact{}
	for sw := 0; sw < switches; sw++ {
		for i := 0; i < perSwitch; i++ {
			r := openflow.Rule{
				Switch:   topo.NodeID(sw),
				Priority: 500,
				Match:    openflow.Match{InPort: topo.LinkID(i % 8), VLAN: i},
				Actions:  []openflow.Action{openflow.Output{Port: topo.LinkID(8 + i%8)}},
			}
			if i%10 == 0 {
				r.Priority = 1000 + i
				r.Match.VLAN = packet.VLANNone
				r.Match.Predicate = pred.And{
					L: pred.Test{Field: "eth.src", Value: fmt.Sprintf("00:00:00:00:%02x:%02x", sw, i)},
					R: pred.Test{Field: "eth.dst", Value: fmt.Sprintf("00:00:00:01:%02x:%02x", sw, i)},
				}
				r.Actions = []openflow.Action{openflow.SetVLAN{VLAN: i}, openflow.Output{Port: topo.LinkID(8 + i%8)}}
			}
			a.Rules = append(a.Rules, r)
		}
		a.Queues = append(a.Queues, QueueConfig{Switch: topo.NodeID(sw), Port: 8, Queue: 1, MinBps: 1e6})
	}
	return a
}

// On a recompile that changes a few dozen of ≈ 10k rules, the diff must
// allocate a small fraction of what rendering both artifacts does. The
// bound is a ratio of allocation counts, so it holds on any machine.
func TestDiffArtifactsOpenFlowAllocatesForChangesOnly(t *testing.T) {
	old := fabricArtifact(80, 125)
	new := &OpenFlowArtifact{Rules: slices.Clone(old.Rules), Queues: old.Queues}
	for i := 7; i < len(new.Rules); i += len(new.Rules) / 16 {
		r := &new.Rules[i] // a rerouted hop and a retagged one, spread over the fabric
		r.Actions = []openflow.Action{openflow.Output{Port: 99}}
		new.Rules[i+1].Match.VLAN += 4096
	}
	var d ArtifactDiff
	got := testing.AllocsPerRun(5, func() { d = DiffArtifacts(TargetOpenFlow, old, new) })
	ref := testing.AllocsPerRun(5, func() { textDiff(TargetOpenFlow, old, new) })
	if n := len(d.Install) + len(d.Remove); n == 0 || n > 64 {
		t.Fatalf("diff has %d entries, want 1..64", n)
	}
	if got*10 >= ref {
		t.Fatalf("structural diff allocates %.0f times, text diff %.0f: want under a tenth", got, ref)
	}
}
