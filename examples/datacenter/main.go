// Datacenter: the §6.2 scenario — give Hadoop shuffle traffic bandwidth
// guarantees on a fat-tree fabric so background UDP cannot starve it, then
// simulate the sort job under the three configurations the paper measures.
package main

import (
	"fmt"
	"log"

	merlin "merlin"
	"merlin/internal/sim"
)

func main() {
	// Compile the guarantee policy on a k=4 fat tree: the first four
	// hosts form the Hadoop cluster; shuffle pairs get guarantees.
	t := merlin.FatTree(4, merlin.Gbps)
	ids := t.Identities()
	macs := ids.MACs()[:4]
	src := "[\n"
	n := 0
	for i, s := range macs {
		for j, d := range macs {
			if i == j {
				continue
			}
			// 150 Mbps per pair: each host's access cable carries six
			// shuffle flows (3 out + 3 in), so 6 × 150M = 900M fits the
			// 1 Gbps cable that equation 2 pools across both directions.
			src += fmt.Sprintf(" h%d : (eth.src = %s and eth.dst = %s) -> .* at min(150Mbps) ;\n", n, s, d)
			n++
		}
	}
	src += "]"
	pol, err := merlin.ParsePolicy(src, t)
	if err != nil {
		log.Fatal(err)
	}
	// Twelve guaranteed classes through the exact MIP take minutes with
	// the bundled solver; the greedy allocator provisions the same
	// configuration flow in milliseconds (see the greedy-vs-MIP ablation).
	res, err := merlin.Compile(pol, t, nil, merlin.Options{Greedy: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned %d guaranteed shuffle classes; %d queue configs\n",
		len(res.Paths), res.Counts().Queues)

	// Simulate the sort job in the three paper configurations.
	for _, cfg := range []struct {
		name string
		c    sim.HadoopConfig
	}{
		{"baseline (exclusive network)", sim.HadoopConfig{}},
		{"with UDP interference", sim.HadoopConfig{Background: true}},
		{"interference + 90% guarantee", sim.HadoopConfig{Background: true, GuaranteeFraction: 0.9}},
	} {
		r, err := sim.RunHadoop(cfg.c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %.0f s (shuffle %.0f s)\n", cfg.name, r.CompletionSeconds, r.ShuffleSeconds)
	}
}
