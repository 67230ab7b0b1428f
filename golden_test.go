package merlin

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// -update regenerates the golden files from the current compiler. The
// committed files lock the rendered output byte for byte, so regenerate
// only on an intentional output change and check that the diff is the
// change intended (the backend registry reproduced the original
// monolithic generator's files unchanged; moving statement priorities to
// count down from a fixed base shifted each file's classification
// priorities by one constant and changed nothing else).
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files from the current compiler output")

// goldenScenario is one locked compilation: the quickstart, datacenter,
// campus, and delegation example workloads, reduced to deterministic
// inputs.
type goldenScenario struct {
	name  string
	build func(t *testing.T) (*Policy, *Topology, Placement, Options)
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			// The §2 running example on the Fig. 2 topology (examples/quickstart).
			name: "quickstart",
			build: func(t *testing.T) (*Policy, *Topology, Placement, Options) {
				tp := Example(Gbps)
				pol := paperPolicy(t, tp)
				place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
				return pol, tp, place, Options{}
			},
		},
		{
			// The §6.2 Hadoop shuffle guarantees on a k=4 fat tree
			// (examples/datacenter): 12 guaranteed classes, greedy allocator.
			name: "datacenter",
			build: func(t *testing.T) (*Policy, *Topology, Placement, Options) {
				tp := FatTree(4, Gbps)
				macs := tp.Identities().MACs()[:4]
				var sb strings.Builder
				sb.WriteString("[\n")
				n := 0
				for i, s := range macs {
					for j, d := range macs {
						if i == j {
							continue
						}
						fmt.Fprintf(&sb, " h%d : (eth.src = %s and eth.dst = %s) -> .* at min(150Mbps) ;\n", n, s, d)
						n++
					}
				}
				sb.WriteString("]")
				pol, err := ParsePolicy(sb.String(), tp)
				if err != nil {
					t.Fatal(err)
				}
				return pol, tp, nil, Options{Greedy: true}
			},
		},
		{
			// A Fig. 4-style mixed policy on the Stanford-like campus core
			// (examples/campus): all-pairs connectivity, one guarantee, one
			// capped class through a middlebox.
			name: "campus",
			build: func(t *testing.T) (*Policy, *Topology, Placement, Options) {
				st := topo.Stanford(6, 1, Gbps)
				ids := st.Identities()
				a, _ := ids.Of(st.MustLookup("h0_0"))
				b, _ := ids.Of(st.MustLookup("h1_0"))
				c, _ := ids.Of(st.MustLookup("h2_0"))
				d, _ := ids.Of(st.MustLookup("h3_0"))
				src := `
[ g : (eth.src = ` + a.MAC + ` and eth.dst = ` + b.MAC + `) -> .* at min(100Mbps)
  w : (eth.src = ` + c.MAC + ` and eth.dst = ` + d.MAC + ` and tcp.dst = 80) -> .* dpi .*
  rest : (tcp.dst = 22) -> .* ],
max(w, 50MB/s)
`
				pol, err := ParsePolicy(src, st)
				if err != nil {
					t.Fatal(err)
				}
				return pol, st, Placement{"dpi": {"mb0"}}, Options{}
			},
		},
		{
			// The §4.1 tenant refinement (examples/delegation) compiled to
			// the dataplane on the Fig. 2 topology: web logged, ssh plain,
			// the (negated-predicate) rest through dpi, all capped.
			name: "delegation",
			build: func(t *testing.T) (*Policy, *Topology, Placement, Options) {
				tp := Example(Gbps)
				ids := tp.Identities()
				h1, _ := ids.Of(tp.MustLookup("h1"))
				h2, _ := ids.Of(tp.MustLookup("h2"))
				src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 80) -> .* log .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 22) -> .*
  z : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and
       !(tcp.dst = 22 or tcp.dst = 80)) -> .* dpi .* ],
max(x, 50MB/s) and max(y, 25MB/s) and max(z, 25MB/s)
`
				pol, err := ParsePolicy(src, tp)
				if err != nil {
					t.Fatal(err)
				}
				return pol, tp, Placement{"log": {"m1"}, "dpi": {"m1"}}, Options{}
			},
		},
	}
}

// builtin returns a result's artifact for a built-in target, or an empty
// one when the target was not compiled.
func builtin[A any, P interface {
	*A
	codegen.Artifact
}](res *Result, target string) P {
	if a, ok := res.Outputs[target].(P); ok {
		return a
	}
	return new(A)
}

// sectionCounts reads the Fig. 4 section lengths renderResult prints.
func sectionCounts(t *testing.T, rendered string) codegen.Counts {
	t.Helper()
	var c codegen.Counts
	sections := map[string]*int{"rules": &c.OpenFlow, "queues": &c.Queues, "tc": &c.TC, "iptables": &c.IPTables, "click": &c.Click}
	for _, line := range strings.Split(rendered, "\n") {
		var name string
		var n int
		if _, err := fmt.Sscanf(line, "== %s (%d)", &name, &n); err == nil && sections[name] != nil {
			*sections[name] = n
		}
	}
	return c
}

// renderResult dumps every dataplane-facing section of a compile result in
// a deterministic text form: OpenFlow rules, queue reservations, tc and
// iptables commands, Click configurations, VLAN tag allocations, end-host
// interpreter programs, and the chosen guaranteed paths.
func renderResult(res *Result) string {
	var sb strings.Builder
	of := builtin[codegen.OpenFlowArtifact](res, codegen.TargetOpenFlow)
	tc := builtin[codegen.TCArtifact](res, codegen.TargetTC)
	click := builtin[codegen.ClickArtifact](res, codegen.TargetClick)
	programs := builtin[codegen.HostArtifact](res, codegen.TargetHost).Programs
	fmt.Fprintf(&sb, "== rules (%d)\n", len(of.Rules))
	for _, r := range of.Rules {
		fmt.Fprintf(&sb, "%s\n", r.String())
	}
	fmt.Fprintf(&sb, "== queues (%d)\n", len(of.Queues))
	for _, q := range of.Queues {
		fmt.Fprintf(&sb, "sw=%d port=%d queue=%d min=%g\n", q.Switch, q.Port, q.Queue, q.MinBps)
	}
	fmt.Fprintf(&sb, "== tc (%d)\n", len(tc.TC))
	for _, hc := range tc.TC {
		fmt.Fprintf(&sb, "host=%d kind=%s %s\n", hc.Host, hc.Kind, hc.Command)
	}
	fmt.Fprintf(&sb, "== iptables (%d)\n", len(tc.IPTables))
	for _, hc := range tc.IPTables {
		fmt.Fprintf(&sb, "host=%d kind=%s %s\n", hc.Host, hc.Kind, hc.Command)
	}
	fmt.Fprintf(&sb, "== click (%d)\n", len(click.Click))
	for _, cc := range click.Click {
		fmt.Fprintf(&sb, "node=%d fn=%s %s\n", cc.Node, cc.Fn, cc.Config)
	}
	fmt.Fprintf(&sb, "== tags (%d)\n", len(of.Tags))
	tagIDs := make([]string, 0, len(of.Tags))
	for id := range of.Tags {
		tagIDs = append(tagIDs, id)
	}
	sort.Strings(tagIDs)
	for _, id := range tagIDs {
		fmt.Fprintf(&sb, "%s: %v\n", id, of.Tags[id])
	}
	fmt.Fprintf(&sb, "== programs (%d)\n", len(programs))
	progHosts := make([]NodeID, 0, len(programs))
	for h := range programs {
		progHosts = append(progHosts, h)
	}
	sort.Slice(progHosts, func(i, j int) bool { return progHosts[i] < progHosts[j] })
	for _, h := range progHosts {
		p := programs[h]
		fmt.Fprintf(&sb, "host=%d name=%s default=%s\n", h, p.Name, p.Default)
		for _, cl := range p.Clauses {
			fmt.Fprintf(&sb, "  op=%d rate=%g burst=%g pred=%s\n", cl.Op, cl.RateBps, cl.BurstBytes, pred.Format(cl.Pred))
		}
	}
	fmt.Fprintf(&sb, "== paths (%d)\n", len(res.Paths))
	pathIDs := make([]string, 0, len(res.Paths))
	for id := range res.Paths {
		pathIDs = append(pathIDs, id)
	}
	sort.Strings(pathIDs)
	for _, id := range pathIDs {
		fmt.Fprintf(&sb, "%s: %s\n", id, strings.Join(res.Paths[id], " "))
	}
	return sb.String()
}

// TestGoldenBackendParity locks the default-target backend output of the
// four example workloads byte-for-byte against the committed golden files,
// which were generated by the original monolithic code generator. Any
// change to lowering, a built-in backend, or target routing that perturbs
// a single byte of OpenFlow/Click/tc/iptables/host output fails here, as
// does a Result.Counts that disagrees with the rendered section lengths.
func TestGoldenBackendParity(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			pol, tp, place, opts := sc.build(t)
			res, err := Compile(pol, tp, place, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := renderResult(res)
			if c, want := res.Counts(), sectionCounts(t, got); c != want {
				t.Fatalf("Result.Counts %+v, rendered sections %+v", c, want)
			}
			path := filepath.Join("testdata", "golden", sc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s: output diverged from pre-redesign golden\n%s", sc.name, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff reports the first differing line between two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w, g)
		}
	}
	return "outputs equal length but differ (unreachable)"
}
