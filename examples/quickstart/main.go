// Quickstart: compile the paper's §2 running example — FTP traffic
// inspected and capped, HTTP guaranteed and routed through dpi and nat —
// on the Figure 2 topology, then print the generated configuration.
package main

import (
	"fmt"
	"log"

	merlin "merlin"
	"merlin/internal/codegen"
)

func main() {
	// The Figure 2 topology: h1 - s1 - s2 - h2 with middlebox m1 on s1.
	t := merlin.Example(merlin.Gbps)
	ids := t.Identities()
	h1, _ := ids.Of(t.MustLookup("h1"))
	h2, _ := ids.Of(t.MustLookup("h2"))

	src := `
# FTP data must pass deep-packet inspection.
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .* dpi .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 21) -> .*
  z : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 10MB/s)
`
	pol, err := merlin.ParsePolicy(src, t)
	if err != nil {
		log.Fatal(err)
	}
	res, err := merlin.Compile(pol, t, merlin.Placement{
		"dpi": {"h1", "h2", "m1"},
		"nat": {"m1"},
	}, merlin.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("guaranteed path for z:", merlin.DescribePath(res.Paths["z"]))
	for _, pl := range res.Placements["z"] {
		fmt.Printf("  %s placed at %s\n", pl.Fn, pl.Location)
	}
	fmt.Println("localized allocations:")
	for id, a := range res.Allocations {
		fmt.Printf("  %s: min=%.0f Mbps max=%.0f Mbps\n", id, a.Min/1e6, a.Max/1e6)
	}
	c := res.Counts()
	fmt.Printf("emitted: %d OpenFlow rules, %d queues, %d tc, %d click\n",
		c.OpenFlow, c.Queues, c.TC, c.Click)
	for _, r := range res.Outputs[codegen.TargetOpenFlow].(*codegen.OpenFlowArtifact).Rules {
		fmt.Println("  rule:", r)
	}
}
