package codegen

import (
	"slices"
	"testing"

	"merlin/internal/topo"
)

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(openflowBackend{}) // "openflow" is already registered by init
}

func TestDefaultTargetsRegistered(t *testing.T) {
	for _, name := range DefaultTargets() {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("default target %q not registered", name)
		}
		if b.Name() != name {
			t.Fatalf("backend %q reports name %q", name, b.Name())
		}
	}
	if slices.Contains(DefaultTargets(), "p4") {
		t.Fatal("p4 must not be a default target: it is opt-in via Options.Targets")
	}
}

func TestDiffArtifactsPointerIdentityFastPath(t *testing.T) {
	a := &ClickArtifact{Click: []ClickConfig{{Node: 1, Fn: "dpi", Config: "x"}}}
	if d := DiffArtifacts(TargetClick, a, a); !d.Empty() {
		t.Fatalf("identical artifact diffed non-empty: %+v", d)
	}
}

func TestDiffArtifactsMultiset(t *testing.T) {
	old := &ClickArtifact{Click: []ClickConfig{
		{Node: 1, Fn: "dpi", Config: "a"},
		{Node: 2, Fn: "nat", Config: "b"},
	}}
	new := &ClickArtifact{Click: []ClickConfig{
		{Node: 2, Fn: "nat", Config: "b"},
		{Node: 3, Fn: "dpi", Config: "c"},
	}}
	d := DiffArtifacts(TargetClick, old, new)
	if len(d.Install) != 1 || d.Install[0].Device != topo.NodeID(3) {
		t.Fatalf("install wrong: %+v", d.Install)
	}
	if len(d.Remove) != 1 || d.Remove[0].Device != topo.NodeID(1) {
		t.Fatalf("remove wrong: %+v", d.Remove)
	}
	// Nil old = install everything.
	d = DiffArtifacts(TargetClick, nil, new)
	if len(d.Install) != 2 || len(d.Remove) != 0 {
		t.Fatalf("nil-old diff wrong: %+v", d)
	}
}
