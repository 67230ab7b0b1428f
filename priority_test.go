package merlin

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"merlin/internal/pred"
	"merlin/internal/regex"
	"merlin/internal/topo"
)

// TestStatementCountGuard pins the statement limit: a working policy —
// the totality default included — with more statements than
// maxStatements would put classification priorities past OpenFlow's 16
// bits, so Compile and Update reject it, naming the count and the limit,
// before any statement is built.
func TestStatementCountGuard(t *testing.T) {
	tp := topo.Linear(2, Gbps)
	stmts := func(n int, p pred.Pred) []Statement {
		out := make([]Statement, n)
		for i := range out {
			out[i] = Statement{ID: fmt.Sprintf("s%d", i), Predicate: p, Path: regex.Star{X: regex.Any{}}}
		}
		return out
	}
	web := pred.Test{Field: "tcp.dst", Value: "80"}
	want := fmt.Sprintf("policy has %d statements, more than the %d", maxStatements+1, maxStatements)
	check := func(name string, c *Compiler, err error, builds int) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one containing %q", name, err, want)
		}
		if got := c.Stats().StatementBuilds; got != builds {
			t.Fatalf("%s: %d statement builds, want %d: the guard must run before the statement stage", name, got, builds)
		}
	}

	c := NewCompiler(tp, nil, Options{NoDefault: true})
	_, err := c.Compile(&Policy{Statements: stmts(maxStatements+1, web)})
	check("compile", c, err, 0)

	// Statements matching nothing leave every packet to the default the
	// preprocessor appends, the one statement too many. (A false
	// predicate keeps its coverage check trivial at this size.)
	c = NewCompiler(tp, nil, Options{})
	_, err = c.Compile(&Policy{Statements: stmts(maxStatements, pred.False)})
	check("compile with default", c, err, 0)

	c = NewCompiler(tp, nil, Options{NoDefault: true})
	all := stmts(maxStatements+1, web)
	first, err := c.Compile(&Policy{Statements: all[:1]})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Update(Delta{Add: all[1:]})
	check("update", c, err, 1)
	if c.Result() != first {
		t.Fatal("update: a rejected delta replaced the last result")
	}
}

// TestTagSpaceGuard: one path tag per guaranteed statement, so 4,100
// one-Mbps guarantees on a 16-host fat tree need more tags than the VLAN
// space holds. Compile and Update return a TagSpaceError naming the
// count and the limit instead of panicking, and a rejected Update keeps
// the last result.
func TestTagSpaceGuard(t *testing.T) {
	tp := topo.FatTree(4, Gbps)
	hosts := tp.Hosts()
	ids := tp.Identities()
	mac := func(h topo.NodeID) string { id, _ := ids.Of(h); return id.MAC }
	const n = 4100
	stmts := make([]string, n)
	terms := make([]string, n)
	for i := range stmts {
		src, dst := hosts[i%16], hosts[(i%16+1+i/16%15)%16]
		stmts[i] = fmt.Sprintf("g%d : (eth.src = %s and eth.dst = %s and tcp.dst = %d) -> .*", i, mac(src), mac(dst), 1000+i)
		terms[i] = fmt.Sprintf("min(g%d, 1Mbps)", i)
	}
	parse := func(k int) *Policy {
		pol, err := ParsePolicy("[ "+strings.Join(stmts[:k], " ;\n")+" ], "+strings.Join(terms[:k], " and "), tp)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	check := func(name string, err error) {
		t.Helper()
		var tse *TagSpaceError
		if !errors.As(err, &tse) {
			t.Fatalf("%s: error %v, want a TagSpaceError", name, err)
		}
		if tse.Count != tse.Limit+1 || tse.Limit != 4092 {
			t.Fatalf("%s: %+v, want count 4093 past a limit of 4092", name, tse)
		}
		if want := "4093 path tags needed, only 4092 fit"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name the count and the limit (%q)", name, err, want)
		}
	}

	c := NewCompiler(tp, nil, Options{NoDefault: true})
	_, err := c.Compile(parse(n))
	check("compile", err)

	all := parse(n)
	c = NewCompiler(tp, nil, Options{NoDefault: true})
	first, err := c.Compile(parse(4000))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Update(Delta{Add: all.Statements[4000:], Formula: all.Formula})
	check("update", err)
	if c.Result() != first {
		t.Fatal("update: a rejected delta replaced the last result")
	}
}
