package merlin_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/p4"
	"merlin/internal/pred"
	"merlin/internal/tcam"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// emitInput is one compile input of the emit-phase tests.
type emitInput struct {
	name  string
	pol   *merlin.Policy
	tp    *merlin.Topology
	place merlin.Placement
	opts  merlin.Options
}

// besteffortDraws generates one draw of each scenario family of the
// benchmark's compile-besteffort workload.
func besteffortDraws(tb testing.TB) []emitInput {
	tb.Helper()
	specs := []corpus.Spec{
		{Topo: "fattree-k8", Suite: "delegation", Tenants: 1000, Guarantees: 1, Seed: 1},
		{Topo: "zoo-40", Suite: "besteffort", Seed: 1},
		{Topo: "fattree-k4", Suite: "besteffort", Seed: 1},
	}
	var ins []emitInput
	for _, s := range specs {
		sc, err := corpus.Generate(s)
		if err != nil {
			tb.Fatal(err)
		}
		pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
		if err != nil {
			tb.Fatal(err)
		}
		ins = append(ins, emitInput{sc.Name, pol, sc.Topology, sc.Placement, merlin.Options{NoDefault: true}})
	}
	tp := merlin.FatTree(6, merlin.Gbps)
	pol, err := merlin.ParsePolicy("foreach (s,d) in cross(hosts,hosts): .*", tp)
	if err != nil {
		tb.Fatal(err)
	}
	return append(ins, emitInput{"fattree-k6/allpairs", pol, tp, nil, merlin.Options{NoDefault: true}})
}

// goldenDraws is the golden scenarios' inputs.
func goldenDraws(t *testing.T) []emitInput {
	var ins []emitInput
	for _, g := range merlin.GoldenInputs(t) {
		ins = append(ins, emitInput{g.Name, g.Policy, g.Topo, g.Place, g.Opts})
	}
	return ins
}

// lowered compiles in and returns its IR.
func lowered(tb testing.TB, in emitInput) *codegen.Program {
	tb.Helper()
	res, err := merlin.Compile(in.pol, in.tp, in.place, in.opts)
	if err != nil {
		tb.Fatalf("%s: %v", in.name, err)
	}
	return res.IR
}

// TestEmitConcurrentMatchesSerial compiles the golden policies and one
// draw of each compile-besteffort scenario family to every target with
// one worker, which runs the emit phase's ternary chain and other
// targets one after the other, and with two, which runs them side by
// side: the outputs must be equal.
func TestEmitConcurrentMatchesSerial(t *testing.T) {
	for _, in := range append(goldenDraws(t), besteffortDraws(t)...) {
		opts := in.opts
		opts.Targets = merlin.BackendNames()
		var outs [2]map[string]codegen.Artifact
		for i, workers := range []int{1, 2} {
			opts.Workers = workers
			res, err := merlin.Compile(in.pol, in.tp, in.place, opts)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", in.name, workers, err)
			}
			outs[i] = res.Outputs
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("%s: outputs differ between 1 and 2 workers", in.name)
		}
	}
}

// formatOpsRef is the rule action text as it was first rendered, with fmt.
func formatOpsRef(ops []codegen.Op) string {
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case codegen.OpForward:
			parts = append(parts, fmt.Sprintf("forward:%d", op.Port))
		case codegen.OpForwardQueue:
			parts = append(parts, fmt.Sprintf("forward_queue:%d:%d", op.Port, op.Queue))
		case codegen.OpSetTag:
			parts = append(parts, fmt.Sprintf("set_tag:%d", op.Tag))
		case codegen.OpClearTag:
			parts = append(parts, "clear_tag")
		}
	}
	return strings.Join(parts, ",")
}

// expandProgramRef is ExpandProgram as it was first written: every rule
// expands its own match, and duplicates collapse on a Sprintf key.
func expandProgramRef(t *topo.Topology, prog *codegen.Program, opt ternary.Options) (*codegen.TernaryTables, error) {
	tables := &codegen.TernaryTables{PerDevice: map[topo.NodeID]int{}, Opt: opt}
	seen := map[string]bool{}
	ids := t.Identities()
	for _, r := range prog.Rules {
		rows := []ternary.Row{nil}
		if r.Match.Pred != nil {
			var err error
			if rows, err = ternary.Expand(codegen.ResolvePred(ids, r.Match.Pred), opt); err != nil {
				return nil, fmt.Errorf("codegen: statement %s on %s: %w", r.Stmt, t.Node(r.Device).Name, err)
			}
		}
		for _, fold := range []struct {
			f pred.Field
			v string
		}{{"eth.src", r.Match.SrcMAC}, {"eth.dst", r.Match.DstMAC}} {
			if fold.v == "" {
				continue
			}
			var narrowed []ternary.Row
			for _, row := range rows {
				nr, ok, err := row.WithExact(fold.f, fold.v)
				if err != nil {
					return nil, fmt.Errorf("codegen: statement %s on %s: %w", r.Stmt, t.Node(r.Device).Name, err)
				}
				if ok {
					narrowed = append(narrowed, nr)
				}
			}
			rows = narrowed
		}
		ops := formatOpsRef(r.Ops)
		for _, row := range rows {
			key := fmt.Sprintf("%d|%d|%d|%d|%s|%s", r.Device, r.Priority, r.Match.InPort, r.Match.Tag, row, ops)
			if seen[key] {
				continue
			}
			seen[key] = true
			tables.Entries = append(tables.Entries, codegen.TernaryEntry{
				Device: r.Device, Priority: r.Priority, InPort: r.Match.InPort, Tag: r.Match.Tag,
				Match: row, Ops: ops, Stmt: r.Stmt,
			})
			tables.PerDevice[r.Device]++
		}
	}
	tables.Total = len(tables.Entries)
	return tables, nil
}

// checkExpandMatchesRef holds ExpandProgram to expandProgramRef under
// both range modes: the same error, or the same entries, per-device
// counts and total.
func checkExpandMatchesRef(t *testing.T, name string, tp *topo.Topology, prog *codegen.Program) {
	t.Helper()
	for _, opt := range []ternary.Options{{}, {SupportsRange: true}} {
		got, err := codegen.ExpandProgram(tp, prog, opt)
		want, werr := expandProgramRef(tp, prog, opt)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s %+v: error %v, reference error %v", name, opt, err, werr)
		}
		if werr != nil {
			continue
		}
		if len(got.Entries)+len(want.Entries) > 0 && !reflect.DeepEqual(got.Entries, want.Entries) {
			t.Fatalf("%s %+v: %d entries differ from the reference's %d", name, opt, len(got.Entries), len(want.Entries))
		}
		if !reflect.DeepEqual(got.PerDevice, want.PerDevice) || got.Total != want.Total || got.Opt != want.Opt {
			t.Fatalf("%s %+v: counts %v/%d, reference %v/%d", name, opt, got.PerDevice, got.Total, want.PerDevice, want.Total)
		}
	}
}

// TestExpandProgramMatchesRef holds the memoized expansion to the
// per-rule one on the golden programs, a delegation 1000×1 fattree-k8
// program, and rule sets built to exercise the duplicate collapse.
func TestExpandProgramMatchesRef(t *testing.T) {
	for _, in := range goldenDraws(t) {
		checkExpandMatchesRef(t, in.name, in.tp, lowered(t, in))
	}
	delegation := besteffortDraws(t)[0]
	checkExpandMatchesRef(t, delegation.name, delegation.tp, lowered(t, delegation))

	tp := topo.Linear(2, topo.Gbps)
	s1, s2 := tp.MustLookup("s0"), tp.MustLookup("s1")
	const macA, macB = "00:00:00:00:00:01", "00:00:00:00:00:02"
	test := func(f, v string) pred.Pred { return pred.Test{Field: pred.Field(f), Value: v} }
	fwd := []codegen.Op{{Kind: codegen.OpForward, Port: 1}}
	tagFwd := []codegen.Op{{Kind: codegen.OpSetTag, Tag: 3}, {Kind: codegen.OpForward, Port: 1}}
	rule := func(dev topo.NodeID, prio int, m codegen.Match, ops []codegen.Op, stmt string) codegen.Rule {
		if m.InPort == 0 {
			m.InPort = codegen.AnyPort
		}
		if m.Tag == 0 {
			m.Tag = codegen.TagNone
		}
		return codegen.Rule{Device: dev, Priority: prio, Match: m, Ops: ops, Stmt: stmt}
	}
	web := pred.Or{L: test("tcp.dst", "80"), R: test("ip.proto", "tcp")}
	dns := pred.Or{L: test("tcp.dst", "80"), R: test("udp.dst", "53")}
	ranged := pred.And{L: test("tcp.dst", "1000-2000"), R: test("udp.src", "7-9")}
	for _, c := range []struct {
		name  string
		rules []codegen.Rule
	}{
		{"identical rules", []codegen.Rule{
			rule(s1, 200, codegen.Match{Pred: web}, fwd, "a"),
			rule(s1, 200, codegen.Match{Pred: web}, fwd, "a"),
			rule(s1, 200, codegen.Match{Pred: web}, fwd, "b"),
			rule(s2, 200, codegen.Match{Pred: web}, fwd, "a"),
			rule(s1, 200, codegen.Match{}, fwd, "c"),
			rule(s1, 200, codegen.Match{}, fwd, "c"),
		}},
		{"overlapping predicates", []codegen.Rule{
			rule(s1, 200, codegen.Match{Pred: web}, tagFwd, "a"),
			rule(s1, 200, codegen.Match{Pred: dns}, tagFwd, "b"),
			rule(s1, 199, codegen.Match{Pred: dns}, tagFwd, "b"),
			rule(s1, 200, codegen.Match{Pred: dns}, fwd, "b"),
			rule(s1, 200, codegen.Match{Pred: dns, InPort: 2}, tagFwd, "b"),
			rule(s1, 200, codegen.Match{Pred: test("tcp.dst", "80"), Tag: 4}, tagFwd, "b"),
			rule(s1, 200, codegen.Match{Pred: ranged}, nil, "r"),
			rule(s1, 200, codegen.Match{Pred: pred.Or{L: ranged, R: test("tcp.dst", "1500")}}, nil, "r"),
		}},
		{"MAC folds", []codegen.Rule{
			rule(s1, 300, codegen.Match{SrcMAC: macA, Pred: test("eth.src", macB)}, fwd, "gone"),
			rule(s1, 300, codegen.Match{SrcMAC: macA, Pred: pred.Or{L: test("eth.src", macA), R: test("tcp.dst", "80")}}, fwd, "x"),
			rule(s1, 300, codegen.Match{SrcMAC: macB, Pred: pred.Or{L: test("eth.src", macA), R: test("tcp.dst", "80")}}, fwd, "x"),
			rule(s1, 300, codegen.Match{SrcMAC: macA, DstMAC: macB}, fwd, "y"),
			rule(s1, 300, codegen.Match{SrcMAC: macA, DstMAC: macB, Pred: test("eth.dst", macA)}, fwd, "y"),
			rule(s1, 300, codegen.Match{DstMAC: macB, Pred: test("eth.dst", "h2")}, fwd, "z"),
		}},
		{"only emptied rows", []codegen.Rule{
			rule(s1, 300, codegen.Match{SrcMAC: macA, Pred: test("eth.src", macB)}, fwd, "gone"),
		}},
		{"unencodable field", []codegen.Rule{
			rule(s1, 300, codegen.Match{Pred: web}, fwd, "ok"),
			rule(s2, 300, codegen.Match{Pred: test("payload", "x")}, fwd, "bad"),
		}},
	} {
		checkExpandMatchesRef(t, c.name, tp, &codegen.Program{Rules: c.rules})
	}
}

// delegationProgram lowers the compile-besteffort delegation 1000×1
// fattree-k8 draw, and expands it under the tcam table model.
func delegationProgram(b *testing.B) (*topo.Topology, *codegen.Program, *codegen.TernaryTables) {
	in := besteffortDraws(b)[0]
	prog := lowered(b, in)
	tables, err := codegen.ExpandProgram(in.tp, prog, ternary.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return in.tp, prog, tables
}

func BenchmarkExpandProgram(b *testing.B) {
	tp, prog, _ := delegationProgram(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := codegen.ExpandProgram(tp, prog, ternary.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmitTCAM(b *testing.B) {
	tp, prog, tables := delegationProgram(b)
	be, _ := codegen.Lookup(tcam.Name)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := be.(codegen.TernaryEmitter).EmitTernary(tp, prog, tables); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmitP4(b *testing.B) {
	tp, prog, _ := delegationProgram(b)
	be, _ := codegen.Lookup(p4.Name)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := be.Emit(tp, prog); err != nil {
			b.Fatal(err)
		}
	}
}
