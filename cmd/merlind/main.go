package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
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

// topoParam is one integer parameter of a -topo family: its default and
// the values the family can build.
type topoParam struct {
	def, min int
	even     bool
}

// topoFamilies are the -topo families by name, with their integer
// parameters by key; every family also takes cap=<bps>.
var topoFamilies = map[string]struct {
	params map[string]topoParam
	build  func(p map[string]int, capacity float64) *merlin.Topology
}{
	"fattree": {map[string]topoParam{"k": {4, 2, true}},
		func(p map[string]int, c float64) *merlin.Topology { return merlin.FatTree(p["k"], c) }},
	"ring": {map[string]topoParam{"n": {8, 3, false}, "hosts": {1, 0, false}},
		func(p map[string]int, c float64) *merlin.Topology { return merlin.Ring(p["n"], p["hosts"], c) }},
	"linear": {map[string]topoParam{"n": {4, 1, false}},
		func(p map[string]int, c float64) *merlin.Topology { return merlin.Linear(p["n"], c) }},
	"star": {map[string]topoParam{"n": {4, 1, false}, "hosts": {1, 0, false}},
		func(p map[string]int, c float64) *merlin.Topology { return merlin.Star(p["n"], p["hosts"], c) }},
	"example": {nil, func(_ map[string]int, c float64) *merlin.Topology { return merlin.Example(c) }},
}

// ParseTopoSpec constructs a topology from a compact spec string such as
// "fattree,k=8" or "ring,n=16,hosts=2,cap=1e9". Omitted parameters take
// their defaults; a parameter the family does not have or cannot build
// is an error naming it. The same spec must be given on every boot: the
// journal records dynamics (failures, capacity changes), not the base
// graph.
func ParseTopoSpec(spec string) (*merlin.Topology, error) {
	parts := strings.Split(spec, ",")
	kind := strings.TrimSpace(parts[0])
	fam, ok := topoFamilies[kind]
	if !ok {
		return nil, fmt.Errorf("topo spec: unknown topology %q", kind)
	}
	vals := make(map[string]int, len(fam.params))
	for key, p := range fam.params {
		vals[key] = p.def
	}
	capacity := merlin.Gbps
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("topo spec: bad parameter %q", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "cap" {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("topo spec: cap must be a positive number of bits/s, got %q", val)
			}
			capacity = v
			continue
		}
		p, ok := fam.params[key]
		if !ok {
			return nil, fmt.Errorf("topo spec: %s has no parameter %q", kind, key)
		}
		v, err := strconv.Atoi(val)
		switch {
		case err != nil || v < p.min:
			return nil, fmt.Errorf("topo spec: %s: %s must be an integer >= %d, got %q", kind, key, p.min, val)
		case p.even && v%2 != 0:
			return nil, fmt.Errorf("topo spec: %s: %s must be even, got %d", kind, key, v)
		}
		vals[key] = v
	}
	return fam.build(vals, capacity), nil
}
