package merlin_test

import (
	"fmt"
	"strings"
	"testing"

	merlin "merlin"
)

// TestQueuePatchIndependentOfBestEffortRules: a formula that moves a
// queue id re-renders only the OpenFlow rules whose queue moved, and the
// diff counts only those, so the same rate toggle costs about as many
// allocations beside 1 best-effort statement as beside 20, each of which
// classifies every host pair of a 16-host fat tree. Two 10 Mbps
// guarantees into one host share queues; moving the first to 20 Mbps
// splits them and moving it back merges them, a queue id move each way.
// Counting allocations rather than time keeps the guard independent of
// the machine; re-emitting every rule made the count grow with the rules.
func TestQueuePatchIndependentOfBestEffortRules(t *testing.T) {
	allocs := func(bestEffort int) float64 {
		tp := merlin.FatTree(4, merlin.Gbps)
		hosts := tp.Hosts()
		mac := func(h merlin.NodeID) string { id, _ := tp.Identities().Of(h); return id.MAC }
		stmts := []string{
			fmt.Sprintf("g1 : (eth.src = %s and eth.dst = %s) -> .*", mac(hosts[0]), mac(hosts[15])),
			fmt.Sprintf("g2 : (eth.src = %s and eth.dst = %s) -> .*", mac(hosts[1]), mac(hosts[15])),
		}
		for i := 0; i < bestEffort; i++ {
			stmts = append(stmts, fmt.Sprintf("b%d : (tcp.dst = %d) -> .*", i, 8000+i))
		}
		formula := func(g1 string) string { return "min(g1, " + g1 + ") and min(g2, 10Mbps)" }
		pol, err := merlin.ParsePolicy("[ "+strings.Join(stmts, " ;\n")+" ], "+formula("10Mbps"), tp)
		if err != nil {
			t.Fatal(err)
		}
		c := merlin.NewCompiler(tp, nil, merlin.Options{NoDefault: true})
		first, err := c.Compile(pol)
		if err != nil {
			t.Fatal(err)
		}
		var toggles [2]merlin.Delta
		for i, rate := range []string{"20Mbps", "10Mbps"} {
			next, err := merlin.ParsePolicy("[ "+strings.Join(stmts[:2], " ;\n")+" ], "+formula(rate), tp)
			if err != nil {
				t.Fatal(err)
			}
			toggles[i] = merlin.Delta{Formula: next.Formula}
		}
		n := 0
		toggle := func() {
			if _, err := c.Update(toggles[n%2]); err != nil {
				t.Fatal(err)
			}
			n++
		}
		toggle()
		if len(c.Result().IR.Queues) == len(first.IR.Queues) {
			t.Fatalf("%d best-effort statements: moving g1 left %d queues", bestEffort, len(first.IR.Queues))
		}
		base := c.Stats()
		a := testing.AllocsPerRun(20, toggle)
		if st := c.Stats(); st.FullCodegens != base.FullCodegens {
			t.Fatalf("%d best-effort statements: a rate toggle ran %d full codegens", bestEffort, st.FullCodegens-base.FullCodegens)
		}
		t.Logf("%d best-effort statements, %d OpenFlow rules: %.0f allocations per toggle",
			bestEffort, len(c.Result().IR.Rules), a)
		return a
	}
	small, big := allocs(1), allocs(20)
	if big > 2*small {
		t.Fatalf("rate toggle allocations grow with the best-effort rules: %.0f → %.0f (1 → 20 statements)", small, big)
	}
}
