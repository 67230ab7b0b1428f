// Delegation: the §4 negotiation workflow on a Hub — delegate a capped
// statement to a tenant session, accept a valid refinement and reject an
// over-allocation, divide a shared link between two tenants with a
// max-min fair-share tick, and run the AIMD/MMFS adaptation schemes of
// Fig. 10 (which drive the same Hub).
package main

import (
	"fmt"
	"log"

	merlin "merlin"
	"merlin/internal/negotiate"
)

func mustParse(src string) *merlin.Policy {
	pol, err := merlin.ParsePolicy(src, nil)
	if err != nil {
		log.Fatal(err)
	}
	return pol
}

func main() {
	// The §4.1 example: all pair traffic capped at 100 MB/s, delegated
	// whole to tenant-a.
	hub, err := merlin.NewHub(mustParse(`
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2) -> .* ],
max(x, 100MB/s)
`), merlin.HubOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := hub.AddShard("link", merlin.Gbps); err != nil {
		log.Fatal(err)
	}
	if _, err := hub.Register("tenant-a", "link", []string{"x"}, merlin.AIMDState{}); err != nil {
		log.Fatal(err)
	}

	// The tenant refines: web logged at 50, ssh 25, the rest through dpi
	// at 25 — exactly the paper's §4.1 transformation.
	recompile, err := hub.Propose("tenant-a", mustParse(`
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80) -> .* log .*
  y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 22) -> .*
  z : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and
       !(tcp.dst = 22 or tcp.dst = 80)) -> .* dpi .* ],
max(x, 50MB/s) and max(y, 25MB/s) and max(z, 25MB/s)
`))
	if err != nil {
		log.Fatal("valid refinement rejected: ", err)
	}
	fmt.Printf("refinement accepted (recompilation needed: %v)\n", recompile)

	// An over-allocation is caught by verification against the delegation.
	if _, err := hub.Propose("tenant-a", mustParse(`
[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2) -> .* ],
max(x, 400MB/s)
`)); err != nil {
		fmt.Println("over-allocation rejected:", err)
	}

	// Bandwidth renegotiation: two tenants share 100 Mbps, each declaring
	// 80; one max-min fair-share tick splits the link between them.
	shared, err := merlin.NewHub(mustParse(`
[ a : ip.src = 10.0.0.1 -> .* ; b : ip.src = 10.0.0.2 -> .* ],
max(a, 100Mbps) and max(b, 100Mbps)
`), merlin.HubOptions{MMFS: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := shared.AddShard("link", 100*merlin.Mbps); err != nil {
		log.Fatal(err)
	}
	var tenants []*merlin.Session
	for _, id := range []string{"a", "b"} {
		s, err := shared.Register("tenant-"+id, "link", []string{id}, merlin.AIMDState{})
		if err != nil {
			log.Fatal(err)
		}
		s.OfferDemand(80 * merlin.Mbps)
		tenants = append(tenants, s)
	}
	if _, err := shared.Tick(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated: tenant-a %.0f Mbps, tenant-b %.0f Mbps\n",
		tenants[0].Alloc()/merlin.Mbps, tenants[1].Alloc()/merlin.Mbps)

	// Fig. 10 adaptation schemes.
	aimd, err := negotiate.RunAIMD(negotiate.AIMDConfig{Seconds: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AIMD mean rates: %s %.0f Mbps, %s %.0f Mbps (sawtooth sharing)\n",
		aimd[0].Name, aimd[0].Mean()/1e6, aimd[1].Name, aimd[1].Mean()/1e6)
	mmfs, err := negotiate.RunMMFS(negotiate.MMFSConfig{})
	if err != nil {
		log.Fatal(err)
	}
	last := len(mmfs[0].Samples) - 1
	fmt.Printf("MMFS final rates: %s %.0f Mbps, %s %.0f Mbps (fair convergence)\n",
		mmfs[0].Name, mmfs[0].Samples[last].Rate/1e6,
		mmfs[1].Name, mmfs[1].Samples[last].Rate/1e6)
}
