package tcam_test

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	merlin "merlin"
	"merlin/internal/codegen"
	"merlin/internal/tcam"
	"merlin/internal/topo"
	"merlin/internal/zoo"
)

var (
	entryLine = regexp.MustCompile(`^tcam entry add priority \d+ key port=(any|\d+) tag=(any|none|\d+)( [a-z.]+=(0x[0-9a-f]+/0x[0-9a-f]+|\d+\.\.\d+))* action "[^"]*" stmt \S+$`)
	schedLine = regexp.MustCompile(`^scheduler port \d+ queue \d+ min-rate-bps \d+$`)
)

// validateArtifact structurally checks every rendered CLI line and the
// per-device entry accounting.
func validateArtifact(t *testing.T, tp *topo.Topology, art *tcam.Artifact) {
	t.Helper()
	if art.Count() != len(art.Lines) {
		t.Fatalf("Count %d != lines %d", art.Count(), len(art.Lines))
	}
	perDev := map[topo.NodeID]int{}
	for i, e := range art.Lines {
		if tp.Node(e.Device).Kind != topo.Switch {
			t.Fatalf("line %d: device %d is not a switch", i, e.Device)
		}
		switch {
		case strings.HasPrefix(e.Text, "tcam entry add "):
			if !entryLine.MatchString(e.Text) {
				t.Fatalf("line %d: malformed entry %q", i, e.Text)
			}
			perDev[e.Device]++
		case strings.HasPrefix(e.Text, "scheduler "):
			if !schedLine.MatchString(e.Text) {
				t.Fatalf("line %d: malformed scheduler line %q", i, e.Text)
			}
		default:
			t.Fatalf("line %d: unrecognized line %q", i, e.Text)
		}
	}
	if len(perDev) != len(art.PerDevice) {
		t.Fatalf("PerDevice tracks %d devices, lines cover %d", len(art.PerDevice), len(perDev))
	}
	for dev, n := range perDev {
		if art.PerDevice[dev] != n {
			t.Fatalf("device %d: PerDevice %d, counted %d entry lines", dev, art.PerDevice[dev], n)
		}
	}
}

func TestTableModel(t *testing.T) {
	m, ok := codegen.BackendModel(tcam.Name, topo.Switch)
	if !ok {
		t.Fatal("tcam declares no switch table model")
	}
	if m.MaxEntries != tcam.SwitchMaxEntries || m.SupportsRange {
		t.Fatalf("switch model = %+v", m)
	}
	for _, class := range []topo.Kind{topo.Host, topo.Middlebox} {
		if _, ok := codegen.BackendModel(tcam.Name, class); ok {
			t.Fatalf("class %v must be unconstrained", class)
		}
	}
	if slices.Contains(codegen.DefaultTargets(), tcam.Name) {
		t.Fatal("tcam must not be a default target: it is opt-in via Options.Targets")
	}
}

// TestEmitPaperExample compiles the §2 running example with the tcam
// target: ternary classification rows with folded MACs and prefix-
// expanded port ranges, tag forwarding, and scheduler reservations.
func TestEmitPaperExample(t *testing.T) {
	tp := merlin.Example(merlin.Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .* dpi .*
  z : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 80) -> .* at min(10MB/s) ],
max(x, 50MB/s)
`
	pol, err := merlin.ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(tp, merlin.Placement{"dpi": {"m1"}},
		merlin.Options{Targets: append(merlin.DefaultTargets(), tcam.Name)})
	res, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	art, ok := res.Outputs[tcam.Name].(*tcam.Artifact)
	if !ok || art.Count() == 0 {
		t.Fatalf("no tcam artifact emitted: %T", res.Outputs[tcam.Name])
	}
	validateArtifact(t, tp, art)
	var text strings.Builder
	for _, e := range art.Lines {
		text.WriteString(e.Text + "\n")
	}
	// Classification rows carry the folded MACs and the exact port as
	// value/mask constraints.
	if !strings.Contains(text.String(), "tcp.dst=0x0014/0xffff") {
		t.Error("tcp.dst=20 classification row missing")
	}
	if !strings.Contains(text.String(), "eth.src=0x") {
		t.Error("no folded MAC constraint in any row")
	}
	// The guarantee's queue reservation renders as a scheduler line.
	if !strings.Contains(text.String(), "scheduler port ") {
		t.Error("no scheduler line for the guaranteed statement")
	}
	if stats := c.Stats(); stats.TernaryEntries == 0 {
		t.Error("CompilerStats.TernaryEntries not counted")
	}
}

// TestEmitDeterministic asserts two emissions of the same IR are
// identical — the property the incremental differ depends on.
func TestEmitDeterministic(t *testing.T) {
	tp := merlin.FatTree(4, merlin.Gbps)
	pol, err := merlin.ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	opts := merlin.Options{Targets: append(merlin.DefaultTargets(), tcam.Name)}
	a, err := merlin.Compile(pol, tp, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := codegen.Lookup(tcam.Name)
	if !ok {
		t.Fatal("tcam backend not registered")
	}
	re, err := b.Emit(tp, a.IR)
	if err != nil {
		t.Fatal(err)
	}
	if d := b.Diff(a.Outputs[tcam.Name], re); !d.Empty() {
		t.Fatalf("re-emission of the same IR diffs: %d install / %d remove", len(d.Install), len(d.Remove))
	}
}

// TestZooSmoke compiles a two-statement policy (one guarantee, one path
// constraint) with the tcam target across the synthetic Topology Zoo and
// validates every rendered line. -short samples the families sparsely;
// the full sweep covers every 10th network.
func TestZooSmoke(t *testing.T) {
	stride := 10
	if testing.Short() {
		stride = 64
	}
	entries := zoo.Entries()
	for i := 0; i < len(entries); i += stride {
		e := entries[i]
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			tp := zoo.Generate(e.Index, 2)
			hosts := tp.Hosts()
			if len(hosts) < 2 {
				t.Skipf("%s: only %d hosts", e.Name, len(hosts))
			}
			ids := tp.Identities()
			a, _ := ids.Of(hosts[0])
			b, _ := ids.Of(hosts[len(hosts)-1])
			src := fmt.Sprintf(`
[ g : (eth.src = %s and eth.dst = %s and tcp.dst = 1000) -> .* at min(5Mbps)
  p : (eth.src = %s and eth.dst = %s) -> .* ]`, a.MAC, b.MAC, b.MAC, a.MAC)
			pol, err := merlin.ParsePolicy(src, tp)
			if err != nil {
				t.Fatal(err)
			}
			opts := merlin.Options{
				NoDefault: true,
				Greedy:    e.Switches > 100,
				Targets:   append(merlin.DefaultTargets(), tcam.Name),
			}
			res, err := merlin.Compile(pol, tp, nil, opts)
			if err != nil {
				t.Fatalf("%s (%s, %d switches): compile: %v", e.Name, e.Family, e.Switches, err)
			}
			art, ok := res.Outputs[tcam.Name].(*tcam.Artifact)
			if !ok || art.Count() == 0 {
				t.Fatalf("%s: no tcam lines", e.Name)
			}
			validateArtifact(t, tp, art)
		})
	}
}
