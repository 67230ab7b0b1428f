package policy

import (
	"strings"
	"testing"
	"time"

	"merlin/internal/pred"
	"merlin/internal/regex"
)

// A foreach template directly followed by a statement block must not
// swallow the block as part of its own template (regression: the
// template-predicate lookahead once scanned past '[').
func TestForeachFollowedByBlock(t *testing.T) {
	src := `
foreach (s,d) in cross(hs,hs): .*
[ g0 : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02) -> .* at min(1Mbps) ]
`
	pol, err := Parse(src, Env{Sets: map[string][]string{"hs": {"h1", "h2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 3 { // 2 foreach pairs + g0
		t.Fatalf("statements = %d, want 3", len(pol.Statements))
	}
	if _, ok := pol.Statement("g0"); !ok {
		t.Fatal("g0 lost")
	}
	_, mins, err := Terms(pol.Formula)
	if err != nil || len(mins) != 1 {
		t.Fatalf("mins = %v (%v)", mins, err)
	}
}

// Multiple blocks and formulas accumulate.
func TestMultipleBlocksAndFormulas(t *testing.T) {
	src := `
[ a : tcp.dst = 80 -> .* ], max(a, 10MB/s)
[ b : tcp.dst = 22 -> .* ], max(b, 5MB/s)
`
	pol, err := Parse(src, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 2 {
		t.Fatalf("statements = %d", len(pol.Statements))
	}
	maxes, _, err := Terms(pol.Formula)
	if err != nil || len(maxes) != 2 {
		t.Fatalf("maxes = %v", maxes)
	}
}

// Statements may appear bare (outside brackets).
func TestBareStatements(t *testing.T) {
	pol, err := Parse(`a : tcp.dst = 80 -> .* dpi .* ; b : tcp.dst = 22 -> .*`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Statements) != 2 {
		t.Fatalf("statements = %d", len(pol.Statements))
	}
}

// Paths with alternation of waypoint groups parse with correct precedence.
func TestPathPrecedence(t *testing.T) {
	pol, err := Parse(`[ a : true -> .* (m1|m2) .* | .* m3 .* ]`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	got := pol.Statements[0].Path.String()
	want := "(.* (m1|m2) .*|.* m3 .*)"
	if got != want {
		t.Fatalf("path = %q, want %q", got, want)
	}
}

// MAC addresses never collide with statement-identifier colons.
func TestMACVersusColonAmbiguity(t *testing.T) {
	pol, err := Parse(`[ aa : eth.src = aa:bb:cc:dd:ee:ff -> .* ]`, Env{})
	if err != nil {
		t.Fatal(err)
	}
	p := pol.Statements[0].Predicate
	if !pred.Matches(p, map[pred.Field]string{"eth.src": "aa:bb:cc:dd:ee:ff"}) {
		t.Fatal("MAC literal mangled")
	}
}

// TestParseRejectsPathPastMaxNodes: e+ desugars to e e*, so every '+' on a
// '+' doubles the path. Thirty of them would expand to a billion nodes;
// the parser rejects the path at its first token, in microseconds, and
// still accepts a path just under the bound.
func TestParseRejectsPathPastMaxNodes(t *testing.T) {
	for _, path := range []string{
		"h1" + strings.Repeat("+", 30),
		strings.Repeat("(", 30) + "h1" + strings.Repeat(")+", 30),
		"h1 (h2" + strings.Repeat("+", 30) + ") h3",
	} {
		src := "[ x : true -> " + path + " ]"
		start := time.Now()
		_, err := Parse(src, Env{})
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("%q: rejecting took %v", path, elapsed)
		}
		if err == nil || !strings.Contains(err.Error(), "policy:1:15: path expression expands past") {
			t.Errorf("%q: err = %v, want a positioned expansion error", path, err)
		}
	}
	// h1 with 14 '+' has 4·2^14 - 2 nodes, under regex.MaxNodes = 2^16.
	pol, err := Parse("[ x : true -> h1"+strings.Repeat("+", 14)+" ]", Env{})
	if err != nil {
		t.Fatal(err)
	}
	if n := regex.Nodes(pol.Statements[0].Path); n > regex.MaxNodes || n < regex.MaxNodes/8 {
		t.Fatalf("14 '+' gave %d nodes", n)
	}
}
