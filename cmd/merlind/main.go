package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"merlin"
	"merlin/internal/journal"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a stalled client cannot hold a connection open.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8640", "HTTP listen address")
		dataDir    = flag.String("data", "merlind-data", "journal + snapshot directory")
		topoSpec   = flag.String("topo", "fattree,k=4", "topology spec: fattree,k=N | ring,n=N,hosts=H | linear,n=N | star,n=N,hosts=H | example (optional ,cap=<bps>)")
		policyPath = flag.String("policy", "", "genesis policy file (first boot only; ignored once the journal exists)")
		snapEvery  = flag.Int("snapshot-every", 64, "snapshot after this many journal records (0 = shutdown only)")
		debounce   = flag.Duration("debounce", 2*time.Millisecond, "topology batch window")
		noSync     = flag.Bool("no-sync", false, "skip fsync (testing only; crashes may lose acknowledged ops)")
		workers    = flag.Int("workers", 0, "compiler worker parallelism (0 = GOMAXPROCS)")
	)
	flag.Parse()

	tp, err := ParseTopoSpec(*topoSpec)
	if err != nil {
		log.Fatalf("merlind: %v", err)
	}
	var policyText string
	if *policyPath != "" {
		b, err := os.ReadFile(*policyPath)
		if err != nil {
			log.Fatalf("merlind: %v", err)
		}
		policyText = string(b)
	}
	// Listen before recovery: a taken address must fail the boot before
	// anything is written under -data.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("merlind: %v", err)
	}
	d, err := NewDaemon(Config{
		DataDir:       *dataDir,
		Topo:          tp,
		PolicyText:    policyText,
		Opts:          merlin.Options{Workers: *workers},
		SnapshotEvery: *snapEvery,
		Debounce:      *debounce,
		Journal:       journal.Params{NoSync: *noSync},
	})
	if err != nil {
		log.Fatalf("merlind: %v", err)
	}
	log.Printf("merlind: recovered (%s boot, seq %d) on %s, serving %s", d.Boot, d.BootSeq, *topoSpec, *addr)

	// Catch SIGINT/SIGTERM before the server can answer /healthz: a
	// signal sent as soon as it does must reach the shutdown path below,
	// not the default action, which exits without the final snapshot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		log.Printf("merlind: %v, shutting down", sig)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("merlind: server: %v", err)
			if err := d.Close(); err != nil {
				log.Printf("merlind: close: %v", err)
			}
			os.Exit(1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("merlind: shutdown: %v", err)
	}
	if err := d.Close(); err != nil {
		log.Fatalf("merlind: close: %v", err)
	}
	log.Printf("merlind: clean shutdown")
}

// ParseTopoSpec constructs a topology from a compact spec string such as
// "fattree,k=8" or "ring,n=16,hosts=2,cap=1e9". The same spec must be
// given on every boot: the journal records dynamics (failures, capacity
// changes), not the base graph.
func ParseTopoSpec(spec string) (*merlin.Topology, error) {
	parts := strings.Split(spec, ",")
	kind := strings.TrimSpace(parts[0])
	args := map[string]float64{}
	for _, p := range parts[1:] {
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("topo spec: bad parameter %q", p)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("topo spec: %q: %v", p, err)
		}
		args[strings.TrimSpace(kv[0])] = v
	}
	num := func(key string, def float64) float64 {
		if v, ok := args[key]; ok {
			return v
		}
		return def
	}
	cap := num("cap", merlin.Gbps)
	switch kind {
	case "fattree":
		return merlin.FatTree(int(num("k", 4)), cap), nil
	case "ring":
		return merlin.Ring(int(num("n", 8)), int(num("hosts", 1)), cap), nil
	case "linear":
		return merlin.Linear(int(num("n", 4)), cap), nil
	case "star":
		return merlin.Star(int(num("n", 4)), int(num("hosts", 1)), cap), nil
	case "example":
		return merlin.Example(cap), nil
	}
	return nil, fmt.Errorf("topo spec: unknown topology %q", kind)
}
