package policy

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// The running example from §2 of the paper.
const paperExample = `
[ x : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 20) -> .* dpi .*
  y : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 21) -> .*
  z : (eth.src = 00:00:00:00:00:01 and
       eth.dst = 00:00:00:00:00:02 and
       tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 100MB/s)
`

func TestParsePaperExample(t *testing.T) {
	pol, err := Parse(paperExample, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 3 {
		t.Fatalf("statements = %d, want 3", len(pol.Statements))
	}
	ids := []string{pol.Statements[0].ID, pol.Statements[1].ID, pol.Statements[2].ID}
	if ids[0] != "x" || ids[1] != "y" || ids[2] != "z" {
		t.Fatalf("ids = %v", ids)
	}
	// x's predicate matches FTP data packets.
	pkt := map[pred.Field]string{
		"eth.src": "00:00:00:00:00:01",
		"eth.dst": "00:00:00:00:00:02",
		"tcp.dst": "20",
	}
	if !pred.Matches(pol.Statements[0].Predicate, pkt) {
		t.Error("x should match FTP data packets")
	}
	if pred.Matches(pol.Statements[1].Predicate, pkt) {
		t.Error("y should not match FTP data packets")
	}
	// z's path includes dpi and nat waypoints.
	if got := pol.Statements[2].Path.String(); got != ".* dpi .* nat .*" {
		t.Errorf("z path = %q", got)
	}
	maxes, mins, err := Terms(pol.Formula)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxes) != 1 || len(mins) != 1 {
		t.Fatalf("terms = %d max, %d min; want 1, 1", len(maxes), len(mins))
	}
	if maxes[0].Rate != 50*8e6 {
		t.Errorf("max rate = %v, want 50MB/s in bps", maxes[0].Rate)
	}
	if len(maxes[0].Expr.IDs) != 2 {
		t.Errorf("max ids = %v, want [x y]", maxes[0].Expr.IDs)
	}
	if mins[0].Rate != 100*8e6 {
		t.Errorf("min rate = %v", mins[0].Rate)
	}
}

func TestParseForeachSugar(t *testing.T) {
	// The §2.1 sugar example, equivalent to statement z.
	src := `
srcs := {00:00:00:00:00:01}
dsts := {00:00:00:00:00:02}
foreach (s,d) in cross(srcs,dsts):
  tcp.dst = 80 -> ( .* nat .* dpi .* ) at max(100MB/s)
`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 1 {
		t.Fatalf("statements = %d, want 1", len(pol.Statements))
	}
	s := pol.Statements[0]
	pkt := map[pred.Field]string{
		"eth.src": "00:00:00:00:00:01",
		"eth.dst": "00:00:00:00:00:02",
		"tcp.dst": "80",
	}
	if !pred.Matches(s.Predicate, pkt) {
		t.Error("expanded statement should match the pair's web traffic")
	}
	pkt["eth.dst"] = "00:00:00:00:00:03"
	if pred.Matches(s.Predicate, pkt) {
		t.Error("expanded statement should not match other destinations")
	}
	maxes, _, err := Terms(pol.Formula)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxes) != 1 || maxes[0].Rate != 100*8e6 {
		t.Fatalf("expected a single 100MB/s cap, got %v", maxes)
	}
}

func TestForeachCrossSkipsSelfPairs(t *testing.T) {
	src := `
hs := {h1, h2, h3}
foreach (s,d) in cross(hs,hs): .*
`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 6 { // 3×3 minus 3 self-pairs
		t.Fatalf("statements = %d, want 6", len(pol.Statements))
	}
}

func TestForeachEnvSets(t *testing.T) {
	src := `foreach (s,d) in cross(hosts,hosts): .*`
	pol, err := Parse(src, Env{Sets: map[string][]string{"hosts": {"h1", "h2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 2 {
		t.Fatalf("statements = %d, want 2", len(pol.Statements))
	}
}

func TestForeachPathVarSubstitution(t *testing.T) {
	src := `
hs := {h1, h2}
foreach (s,d) in cross(hs,hs): s .* mb .* d
`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"h1 .* mb .* h2": true, "h2 .* mb .* h1": true}
	for _, s := range pol.Statements {
		if !want[s.Path.String()] {
			t.Errorf("unexpected path %q", s.Path.String())
		}
	}
}

func TestParseIPAndProtoPredicates(t *testing.T) {
	// The §4.1 delegation example uses IP predicates and != sugar.
	src := `
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80) -> .* log .*
  y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 22) -> .*
  z : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and
       !(tcp.dst = 22 or tcp.dst = 80)) -> .* dpi .* ],
max(x, 50MB/s) and max(y, 25MB/s) and max(z, 25MB/s)
`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 3 {
		t.Fatalf("statements = %d", len(pol.Statements))
	}
	pkt := map[pred.Field]string{
		"ip.src": "192.168.1.1", "ip.dst": "192.168.1.2", "tcp.dst": "443",
	}
	if !pred.Matches(pol.Statements[2].Predicate, pkt) {
		t.Error("z should match non-web, non-ssh traffic")
	}
	// ip.proto symbolic values canonicalize.
	p2, err := Parse(`[ a : ip.proto = tcp -> .* ]`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Matches(p2.Statements[0].Predicate, map[pred.Field]string{"ip.proto": "6"}) {
		t.Error("ip.proto = tcp should canonicalize to 6")
	}
}

func TestNeqSugar(t *testing.T) {
	pol, err := Parse(`[ a : tcp.dst != 80 -> .* ]`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Matches(pol.Statements[0].Predicate, map[pred.Field]string{"tcp.dst": "80"}) {
		t.Error("!= should exclude the value")
	}
	if !pred.Matches(pol.Statements[0].Predicate, map[pred.Field]string{"tcp.dst": "22"}) {
		t.Error("!= should admit other values")
	}
}

func TestAtMinAndMaxTogether(t *testing.T) {
	pol, err := Parse(`[ a : true -> .* at min(1MB/s) at max(2MB/s) ]`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := Localize(pol.Formula, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := allocs["a"]
	if a.Min != 8e6 || a.Max != 16e6 {
		t.Fatalf("alloc = %+v", a)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`[ x : -> .* ]`,                        // missing predicate
		`[ x : true .* ]`,                      // missing arrow
		`[ x : true -> ]`,                      // missing path
		`[ x : true -> .*`,                     // unclosed block
		`[ and : true -> .* ]`,                 // reserved id
		`[ x : tcp.dst < 80 -> .* ]`,           // bad operator
		`[ x : true -> .* ], max(x 10)`,        // missing comma in max
		`[ x : true -> .* ], max(q, 10MB/s)`,   // unknown id in formula
		`[ x : true -> .* ; x : false -> .* ]`, // duplicate id
		`foo := { h1`,                          // unclosed set
		`[ x : true -> .* ] trailing`,          // junk
	} {
		if _, err := Parse(src, Env{}); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRateUnits(t *testing.T) {
	src := `[ a : true -> .* ], max(a, 1Gbps) and min(a, 500kbps)`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	maxes, mins, err := Terms(pol.Formula)
	if err != nil {
		t.Fatal(err)
	}
	if maxes[0].Rate != 1e9 {
		t.Errorf("Gbps = %v", maxes[0].Rate)
	}
	if mins[0].Rate != 5e5 {
		t.Errorf("kbps = %v", mins[0].Rate)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
# all traffic between the pair
[ a : true -> .* ]  # catch-all
`
	if _, err := Parse(src, Env{}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalizeEqualSplit(t *testing.T) {
	// §3.1: max(x+y, 50MB/s) localizes to max(x,25MB/s) and max(y,25MB/s).
	f := Max{Expr: BandExpr{IDs: []string{"x", "y"}}, Rate: 50 * 8e6}
	allocs, err := Localize(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs["x"].Max != 25*8e6 || allocs["y"].Max != 25*8e6 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestLocalizeWeightedSplit(t *testing.T) {
	f := Max{Expr: BandExpr{IDs: []string{"x", "y"}}, Rate: 30 * 8e6}
	allocs, err := Localize(f, WeightedSplit(map[string]float64{"x": 2, "y": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if allocs["x"].Max != 20*8e6 || allocs["y"].Max != 10*8e6 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestLocalizeTightestWins(t *testing.T) {
	f := ConjFormula(
		Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 100},
		Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 50},
		Min{Expr: BandExpr{IDs: []string{"x"}}, Rate: 10},
		Min{Expr: BandExpr{IDs: []string{"x"}}, Rate: 20},
	)
	allocs, err := Localize(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs["x"].Max != 50 || allocs["x"].Min != 20 {
		t.Fatalf("alloc = %+v", allocs["x"])
	}
}

func TestLocalizeInconsistent(t *testing.T) {
	f := ConjFormula(
		Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 10},
		Min{Expr: BandExpr{IDs: []string{"x"}}, Rate: 20},
	)
	if _, err := Localize(f, nil); err == nil {
		t.Fatal("guarantee above cap should error")
	}
}

func TestLocalizeRejectsDisjunction(t *testing.T) {
	f := FOr{Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 10},
		Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 20}}
	if _, err := Localize(f, nil); err == nil {
		t.Fatal("disjunction should not localize")
	}
}

func TestLocalizeUnmentioned(t *testing.T) {
	allocs, err := Localize(FTrue{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 0 {
		t.Fatalf("allocs = %v, want empty", allocs)
	}
	if !math.IsInf(Unconstrained.Max, 1) || Unconstrained.Min != 0 {
		t.Fatal("Unconstrained wrong")
	}
}

func TestPreprocessAddDefault(t *testing.T) {
	pol := MustParse(`[ a : tcp.dst = 80 -> .* ]`, Env{})
	out, err := Preprocess(pol, PreprocessOptions{AddDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Statements) != 2 {
		t.Fatalf("statements = %d, want 2", len(out.Statements))
	}
	if len(pol.Statements) != 1 {
		t.Error("Preprocess mutated its input")
	}
	def := out.Statements[1]
	if def.ID != DefaultStatementID {
		t.Fatalf("default id = %q", def.ID)
	}
	if pred.Matches(def.Predicate, map[pred.Field]string{"tcp.dst": "80"}) {
		t.Error("default should not match classified packets")
	}
	if !pred.Matches(def.Predicate, map[pred.Field]string{"tcp.dst": "22"}) {
		t.Error("default should match unclassified packets")
	}
	// A total policy gains no default.
	total := MustParse(`[ a : true -> .* ]`, Env{})
	out2, err := Preprocess(total, PreprocessOptions{AddDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Statements) != 1 {
		t.Fatalf("total policy gained a default")
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	pol := MustParse(paperExample, Env{})
	rendered := pol.String()
	re, err := Parse(rendered, Env{})
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", rendered, err)
	}
	if len(re.Statements) != len(pol.Statements) {
		t.Fatalf("round trip lost statements")
	}
	for i := range re.Statements {
		eq, err := regex.Equivalent(re.Statements[i].Path, pol.Statements[i].Path)
		if err != nil || !eq {
			t.Fatalf("statement %d path changed: %v", i, err)
		}
		same, err := pred.Equivalent(re.Statements[i].Predicate, pol.Statements[i].Predicate)
		if err != nil || !same {
			t.Fatalf("statement %d predicate changed", i)
		}
	}
}

func TestFormatRate(t *testing.T) {
	for _, tc := range []struct {
		bps  float64
		want string
	}{
		{50 * 8e6, "50MB/s"},
		{8e9, "1GB/s"},
		{1e6, "1Mbps"},
		{5e5, "500kbps"},
		{42, "42bps"},
		// No exponent forms: the lexer has no syntax for them.
		{210937.5e3, "210937500bps"},
		{1234567e3, "1234567kbps"},
		{math.Ldexp(8e9, 70), "1180591620717411300000GB/s"}, // 2^70 ≥ 1e21 units, shortest digits
		{0.3, "0.3bps"},
	} {
		if got := FormatRate(tc.bps); got != tc.want {
			t.Errorf("FormatRate(%v) = %q, want %q", tc.bps, got, tc.want)
		}
	}
}

// TestFormatRateRoundTrip pins Parse(String(p)) == p for the rates a
// negotiator can produce: AIMD halving leaves non-integer kbps, and
// nothing bounds a cap from above.
func TestFormatRateRoundTrip(t *testing.T) {
	roundTrip := func(rate float64) {
		t.Helper()
		pol := &Policy{
			Statements: []Statement{{ID: "x", Predicate: pred.True, Path: regex.Star{X: regex.Any{}}}},
			Formula:    Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: rate},
		}
		re, err := Parse(pol.String(), Env{})
		if err != nil {
			t.Fatalf("rate %v: re-parse of %q failed: %v", rate, pol.String(), err)
		}
		m, ok := re.Formula.(Max)
		if !ok || m.Rate != rate {
			t.Fatalf("rate %v rendered %q re-parsed as %#v", rate, FormatRate(rate), re.Formula)
		}
	}
	for _, rate := range []float64{0, 210937.5e3, 1234567e3, 1e21, 8e30, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		roundTrip(rate)
	}
	rng := rand.New(rand.NewSource(1))
	units := []float64{1, 1e3, 1e6, 1e9, 8e6, 8e9}
	for i := 0; i < 2000; i++ {
		unit := units[rng.Intn(len(units))]
		switch i % 4 {
		case 0: // integer multiples of a unit, up to ≥ 1e21 per unit
			roundTrip(math.Floor(math.Pow(10, rng.Float64()*24)) * unit)
		case 1: // non-integer multiples
			roundTrip(rng.Float64() * math.Pow(10, rng.Float64()*24) * unit)
		case 2: // AIMD walks: repeated halving of a round rate
			roundTrip(float64(1+rng.Intn(1000)) * unit / math.Pow(2, float64(rng.Intn(20))))
		default: // any finite non-negative bit pattern
			bits := rng.Uint64() &^ (1 << 63)
			if v := math.Float64frombits(bits); !math.IsInf(v, 0) && !math.IsNaN(v) {
				roundTrip(v)
			}
		}
	}
}

func TestStatementLookup(t *testing.T) {
	pol := MustParse(paperExample, Env{})
	if _, ok := pol.Statement("y"); !ok {
		t.Error("Statement(y) not found")
	}
	if _, ok := pol.Statement("nope"); ok {
		t.Error("Statement(nope) found")
	}
}

func TestValidateFormulaUnknownID(t *testing.T) {
	pol := &Policy{
		Statements: []Statement{{ID: "a", Predicate: pred.True, Path: regex.Any{}}},
		Formula:    Max{Expr: BandExpr{IDs: []string{"ghost"}}, Rate: 1},
	}
	if err := pol.Validate(); err == nil {
		t.Fatal("unknown formula id should fail validation")
	}
	// Of several unknown IDs the error names the smallest, wherever it
	// sits in the formula.
	pol.Formula = ConjFormula(pol.Formula,
		Min{Expr: BandExpr{IDs: []string{"a", "zz"}}, Rate: 1},
		FNot{F: Max{Expr: BandExpr{IDs: []string{"beta"}}, Rate: 1}})
	if err := pol.Validate(); err == nil || !strings.Contains(err.Error(), `"beta"`) {
		t.Fatalf("err = %v, want it to name \"beta\"", err)
	}
}

func TestClassifyValue(t *testing.T) {
	if ClassifyValue("00:00:00:00:00:01") != ValueMAC {
		t.Error("MAC misclassified")
	}
	if ClassifyValue("10.0.0.1") != ValueIP {
		t.Error("IP misclassified")
	}
	if ClassifyValue("h1") != ValueName {
		t.Error("name misclassified")
	}
	if ClassifyValue("a.b.c.d") != ValueName {
		t.Error("dotted name misclassified as IP")
	}
}

func TestFormulaOrNotStrings(t *testing.T) {
	f := FNot{FOr{Max{Expr: BandExpr{IDs: []string{"x"}}, Rate: 8e6},
		Min{Expr: BandExpr{IDs: []string{"y"}}, Rate: 8e6}}}
	got := f.String()
	if !strings.Contains(got, "or") || !strings.Contains(got, "!") {
		t.Errorf("formula string = %q", got)
	}
}

func BenchmarkParsePaperExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(paperExample, Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandAllPairs(b *testing.B) {
	hosts := make([]string, 40)
	for i := range hosts {
		hosts[i] = "h" + string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	env := Env{Sets: map[string][]string{"hosts": hosts}}
	src := `foreach (s,d) in cross(hosts,hosts): .*`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src, env); err != nil {
			b.Fatal(err)
		}
	}
}
