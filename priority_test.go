package merlin

import (
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
