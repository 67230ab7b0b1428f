package codegen

import (
	"reflect"
	"slices"
	"testing"

	"merlin/internal/openflow"
	"merlin/internal/topo"
)

func rule(in int, prio int, vlan int) openflow.Rule {
	return openflow.Rule{
		Switch:   3,
		Priority: prio,
		Match:    openflow.Match{InPort: topo.LinkID(in), VLAN: vlan},
		Actions:  []openflow.Action{openflow.Output{Port: 1}},
	}
}

// diffBuiltins diffs each built-in backend's old and new artifact.
func diffBuiltins(old, new map[string]Artifact) *Diff {
	d := &Diff{Backends: map[string]ArtifactDiff{}}
	for name, art := range new {
		d.Backends[name] = DiffArtifacts(name, old[name], art)
	}
	return d
}

// diffDevices lists the distinct nodes a diff touches, in ascending order.
func diffDevices(d *Diff) []topo.NodeID {
	var out []topo.NodeID
	for _, bd := range d.Backends {
		for _, e := range bd.Install {
			out = append(out, e.Device)
		}
		for _, e := range bd.Remove {
			out = append(out, e.Device)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func TestDiffBuiltinArtifacts(t *testing.T) {
	old := map[string]Artifact{
		TargetOpenFlow: &OpenFlowArtifact{
			Rules:  []openflow.Rule{rule(1, 500, 2), rule(2, 500, 2)},
			Queues: []QueueConfig{{Switch: 3, Port: 1, Queue: 1, MinBps: 5e6}, {Switch: 3, Port: 2, Queue: 1, MinBps: 5e6}},
		},
		TargetTC:    &TCArtifact{TC: []HostCommand{{Host: 7, Kind: "tc", Command: "tc old"}}},
		TargetClick: &ClickArtifact{},
	}
	new := map[string]Artifact{
		TargetOpenFlow: &OpenFlowArtifact{
			Rules:  []openflow.Rule{rule(2, 500, 2), rule(4, 500, 3)}, // rule(1) gone, rule(4) added
			Queues: []QueueConfig{{Switch: 3, Port: 1, Queue: 1, MinBps: 5e6}, {Switch: 3, Port: 2, Queue: 1, MinBps: 6e6}},
		},
		TargetTC: &TCArtifact{
			TC:       []HostCommand{{Host: 7, Kind: "tc", Command: "tc new"}},
			IPTables: []HostCommand{{Host: 8, Kind: "iptables", Command: "iptables -A OUTPUT"}},
		},
		TargetClick: &ClickArtifact{Click: []ClickConfig{{Node: 5, Fn: "dpi", Config: "dpi"}}},
	}
	d := diffBuiltins(old, new)
	of := d.Backends[TargetOpenFlow]
	if len(of.Install) != 2 || len(of.Remove) != 2 {
		t.Fatalf("openflow diff wrong: %+v", of)
	}
	if want := (Entry{Device: 3, Text: rule(4, 500, 3).String()}); of.Install[0] != want {
		t.Fatalf("installed %+v, want %+v", of.Install[0], want)
	}
	if want := (Entry{Device: 3, Text: rule(1, 500, 2).String()}); of.Remove[0] != want {
		t.Fatalf("removed %+v, want %+v", of.Remove[0], want)
	}
	// Counts splits each backend's entries back into its Fig. 4 sections.
	install, remove := d.Counts()
	if want := (Counts{OpenFlow: 1, Queues: 1, TC: 1, IPTables: 1, Click: 1}); install != want {
		t.Fatalf("install counts %+v, want %+v", install, want)
	}
	if want := (Counts{OpenFlow: 1, Queues: 1, TC: 1}); remove != want {
		t.Fatalf("remove counts %+v, want %+v", remove, want)
	}
	if d.Empty() {
		t.Fatal("non-empty diff reported empty")
	}
	if devs := diffDevices(d); !reflect.DeepEqual(devs, []topo.NodeID{3, 5, 7, 8}) {
		t.Fatalf("devices wrong: %v", devs)
	}
}

func TestDiffArtifactsIdentityAndNil(t *testing.T) {
	art := &OpenFlowArtifact{Rules: []openflow.Rule{rule(1, 500, 2)}}
	// Equal-by-value but distinct artifacts diff as empty.
	clone := &OpenFlowArtifact{Rules: append([]openflow.Rule(nil), art.Rules...)}
	if d := DiffArtifacts(TargetOpenFlow, art, clone); !d.Empty() {
		t.Fatalf("equal artifacts diffed: %+v", d)
	}
	// Reordered rules diff as empty (multiset semantics).
	two := &OpenFlowArtifact{Rules: []openflow.Rule{rule(1, 500, 2), rule(2, 400, 3)}}
	swapped := &OpenFlowArtifact{Rules: []openflow.Rule{rule(2, 400, 3), rule(1, 500, 2)}}
	if d := DiffArtifacts(TargetOpenFlow, two, swapped); !d.Empty() {
		t.Fatalf("reordered artifacts diffed: %+v", d)
	}
	// nil acts as empty on either side.
	if d := DiffArtifacts(TargetOpenFlow, nil, art); len(d.Install) != 1 || len(d.Remove) != 0 {
		t.Fatalf("nil-old diff wrong: %+v", d)
	}
	if d := DiffArtifacts(TargetOpenFlow, art, nil); len(d.Install) != 0 || len(d.Remove) != 1 {
		t.Fatalf("nil-new diff wrong: %+v", d)
	}
	var empty Diff
	if in, rm := empty.Counts(); !empty.Empty() || in.Total()+rm.Total() != 0 || len(diffDevices(&empty)) != 0 {
		t.Fatal("zero Diff is not empty")
	}
}
