// Benchmarks regenerating every table and figure of the paper's §6
// evaluation, plus the design-choice ablations. Each benchmark runs the
// same code path as cmd/merlin-bench. Run with:
//
//	go test -bench=. -benchmem
package merlin_test

import (
	"testing"

	"merlin/internal/experiments"
)

// Fig. 4 — expressiveness: five policies on the Stanford campus.
func BenchmarkFig4Expressiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// §6.2 — Hadoop sort under interference and guarantees.
func BenchmarkSec62Hadoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Hadoop(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 5 — Ring Paxos throughput sweep without/with Merlin.
func BenchmarkFig5RingPaxos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 6 — Topology Zoo all-pairs compile times (sampled; merlin-bench
// -zoo-stride 1 covers all 262 networks).
func BenchmarkFig6TopologyZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(25); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 7 (table) — fat-tree provisioning cost split, one sub-benchmark per
// scaled table row.
func BenchmarkTable7FatTree(b *testing.B) {
	for _, c := range experiments.Table7Cases() {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table7(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fig. 8 — compile time vs traffic classes, four panels.
func benchFig8(b *testing.B, idx int) {
	c := experiments.Fig8Cases()[idx]
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aBalancedAllPairs(b *testing.B)   { benchFig8(b, 0) }
func BenchmarkFig8bBalancedGuaranteed(b *testing.B) { benchFig8(b, 1) }
func BenchmarkFig8cFatTreeAllPairs(b *testing.B)    { benchFig8(b, 2) }
func BenchmarkFig8dFatTreeGuaranteed(b *testing.B)  { benchFig8(b, 3) }

// Fig. 9 — negotiator verification scaling: predicates (left), regex
// nodes (middle), allocations (right).
func BenchmarkFig9aPredicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Predicates([]int{500, 1000, 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9bRegexNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Regexes([]int{100, 300, 600}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9cAllocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Allocations([]int{500, 1000, 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 10 — dynamic adaptation.
func BenchmarkFig10aAIMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10AIMD(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bMMFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10MMFS(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations.
func BenchmarkAblationHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHeuristics(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGreedyVsMIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGreedyVsMIP(6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMinimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMinimization([]int{200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLocalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLocalization(); err != nil {
			b.Fatal(err)
		}
	}
}
