package codegen

import (
	"testing"

	"merlin/internal/pred"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// fakeV2 is a TableModeler backend for registry tests.
type fakeV2 struct{ name string }

func (f fakeV2) Name() string { return f.name }
func (f fakeV2) Emit(t *topo.Topology, prog *Program) (Artifact, error) {
	return nil, nil
}
func (f fakeV2) Diff(old, new Artifact) ArtifactDiff { return ArtifactDiff{} }
func (f fakeV2) TableModel(class topo.Kind) (TableModel, bool) {
	if class != topo.Switch {
		return TableModel{}, false
	}
	return TableModel{MaxEntries: 100, SupportsRange: false}, true
}

func TestBackendModelPrecedence(t *testing.T) {
	// A registered backend exposes its own TableModeler declaration.
	Register(fakeV2{name: "fake-v2-own"})
	m, ok := BackendModel("fake-v2-own", topo.Switch)
	if !ok || m.MaxEntries != 100 {
		t.Fatalf("own model = %+v, %v", m, ok)
	}
	if _, ok := BackendModel("fake-v2-own", topo.Host); ok {
		t.Fatal("host class must be unconstrained")
	}

	// Unregistered and model-free backends are unconstrained.
	if _, ok := BackendModel("no-such-backend", topo.Switch); ok {
		t.Fatal("unregistered backend returned a model")
	}
	if _, ok := BackendModel(TargetOpenFlow, topo.Switch); ok {
		t.Fatal("v1 builtin must declare no table model")
	}
}

func TestExpandProgram(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	s1 := tp.MustLookup("s1")
	prog := &Program{Rules: []Rule{
		// No predicate: one match-all entry.
		{Device: s1, Priority: 500, Match: Match{InPort: AnyPort, Tag: 1}, Ops: []Op{{Kind: OpForward, Port: 2}}, Stmt: "x"},
		// MAC fold: predicate row gains exact eth.src/eth.dst constraints.
		{Device: s1, Priority: 180, Match: Match{
			InPort: AnyPort, Tag: TagNone,
			SrcMAC: "00:00:00:00:00:01", DstMAC: "00:00:00:00:00:02",
			Pred: pred.Test{Field: "tcp.dst", Value: "80"},
		}, Ops: []Op{{Kind: OpSetTag, Tag: 1}, {Kind: OpForward, Port: 1}}, Stmt: "y"},
		// Exact duplicate of the first rule: must collapse.
		{Device: s1, Priority: 500, Match: Match{InPort: AnyPort, Tag: 1}, Ops: []Op{{Kind: OpForward, Port: 2}}, Stmt: "x"},
		// Predicate contradicting the folded MAC: all rows dropped.
		{Device: s1, Priority: 170, Match: Match{
			InPort: AnyPort, Tag: TagNone,
			SrcMAC: "00:00:00:00:00:01",
			Pred:   pred.Test{Field: "eth.src", Value: "00:00:00:00:00:09"},
		}, Ops: []Op{{Kind: OpForward, Port: 3}}, Stmt: "z"},
	}}
	tables, err := ExpandProgram(tp, prog, ternary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tables.Total != 2 || tables.PerDevice[s1] != 2 {
		t.Fatalf("Total=%d PerDevice=%v, want 2 entries", tables.Total, tables.PerDevice)
	}
	if len(tables.Entries[0].Match) != 0 {
		t.Errorf("match-all entry has constraints: %v", tables.Entries[0].Match)
	}
	e := tables.Entries[1]
	if got := e.Match.String(); got != "eth.src=0x000000000001/0xffffffffffff,eth.dst=0x000000000002/0xffffffffffff,tcp.dst=0x0050/0xffff" {
		t.Errorf("folded row = %q", got)
	}
	if e.Ops != "set_tag:1,forward:1" {
		t.Errorf("ops = %q", e.Ops)
	}
}

func TestExpandProgramRangeMultiplies(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	s1 := tp.MustLookup("s1")
	prog := &Program{Rules: []Rule{{
		Device: s1, Priority: 120,
		Match: Match{InPort: AnyPort, Tag: TagNone, Pred: pred.Test{Field: "tcp.dst", Value: "3-7"}},
		Ops:   []Op{{Kind: OpForward, Port: 1}}, Stmt: "r",
	}}}
	noRange, err := ExpandProgram(tp, prog, ternary.Options{})
	if err != nil || noRange.Total != 2 {
		t.Fatalf("prefix expansion: total=%d err=%v, want 2", noRange.Total, err)
	}
	native, err := ExpandProgram(tp, prog, ternary.Options{SupportsRange: true})
	if err != nil || native.Total != 1 {
		t.Fatalf("native expansion: total=%d err=%v, want 1", native.Total, err)
	}
	// The estimator agrees with both without materializing.
	for _, c := range []struct {
		opt  ternary.Options
		want int
	}{{ternary.Options{}, 2}, {ternary.Options{SupportsRange: true}, 1}} {
		n, err := EstimateRuleEntries(prog.Rules[0], c.opt, nil)
		if err != nil || n != c.want {
			t.Errorf("EstimateRuleEntries(%+v) = %d, %v, want %d", c.opt, n, err, c.want)
		}
	}
	if n, err := EstimateRuleEntries(Rule{Match: Match{}}, ternary.Options{}, nil); err != nil || n != 1 {
		t.Errorf("predicate-free rule estimate = %d, %v", n, err)
	}
}

// TestExpandProgramResolvesIdentities: policies may name hosts directly
// (eth.src = h1) — the compiler resolves identities for endpoint
// extraction, and the expansion must give the same reading instead of
// failing to encode the name. IP fields resolve to the host's IP, and a
// cross-family address (a MAC on ip.src) follows the field's family.
func TestExpandProgramResolvesIdentities(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	s1 := tp.MustLookup("s1")
	rule := func(p pred.Pred) *Program {
		return &Program{Rules: []Rule{{
			Device: s1, Priority: 100,
			Match: Match{InPort: AnyPort, Tag: TagNone, Pred: p},
			Ops:   []Op{{Kind: OpForward, Port: 1}}, Stmt: "r",
		}}}
	}
	byName, err := ExpandProgram(tp, rule(pred.Test{Field: "eth.src", Value: "h1"}), ternary.Options{})
	if err != nil {
		t.Fatalf("host-name identity: %v", err)
	}
	byMAC, err := ExpandProgram(tp, rule(pred.Test{Field: "eth.src", Value: h1.MAC}), ternary.Options{})
	if err != nil {
		t.Fatalf("MAC identity: %v", err)
	}
	if a, b := byName.Entries[0].Match.String(), byMAC.Entries[0].Match.String(); a != b {
		t.Errorf("name expands to %q, MAC to %q", a, b)
	}
	byIP, err := ExpandProgram(tp, rule(pred.Test{Field: "ip.src", Value: h1.MAC}), ternary.Options{})
	if err != nil {
		t.Fatalf("cross-family identity: %v", err)
	}
	viaIP, err := ExpandProgram(tp, rule(pred.Test{Field: "ip.src", Value: h1.IP}), ternary.Options{})
	if err != nil {
		t.Fatalf("IP identity: %v", err)
	}
	if a, b := byIP.Entries[0].Match.String(), viaIP.Entries[0].Match.String(); a != b {
		t.Errorf("MAC-on-ip.src expands to %q, IP to %q", a, b)
	}
	// Estimation resolves the same way; without a table the name is
	// unencodable.
	if n, err := EstimateRuleEntries(rule(pred.Test{Field: "eth.src", Value: "h1"}).Rules[0], ternary.Options{}, ids); err != nil || n != 1 {
		t.Errorf("resolved estimate = %d, %v, want 1", n, err)
	}
	if _, err := EstimateRuleEntries(rule(pred.Test{Field: "eth.src", Value: "h1"}).Rules[0], ternary.Options{}, nil); err == nil {
		t.Error("unresolved host name estimated without error")
	}
	// A value no host owns still fails with the encoder's error.
	if _, err := ExpandProgram(tp, rule(pred.Test{Field: "eth.src", Value: "nobody"}), ternary.Options{}); err == nil {
		t.Error("unknown identity expanded without error")
	}
}
