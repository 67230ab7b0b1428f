package merlin

import (
	"reflect"
	"runtime"
	"testing"
)

// compileBothPoolSizes compiles the same policy with a single worker and
// with NumCPU workers and asserts the results are identical — the
// determinism contract the parallel pipeline promises. Run under
// `go test -race` this also exercises the fan-out for data races.
func compileBothPoolSizes(t *testing.T, tp *Topology, pol *Policy, place Placement, opts Options) {
	t.Helper()
	opts.Workers = 1
	seq, err := Compile(pol, tp, place, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = runtime.NumCPU()
	par, err := Compile(pol, tp, place, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Fatal("generated configuration differs between worker pool sizes 1 and NumCPU")
	}
	if !reflect.DeepEqual(seq.Paths, par.Paths) {
		t.Fatalf("paths differ: %v vs %v", seq.Paths, par.Paths)
	}
	if !reflect.DeepEqual(seq.Placements, par.Placements) {
		t.Fatalf("placements differ: %v vs %v", seq.Placements, par.Placements)
	}
	if !reflect.DeepEqual(seq.Allocations, par.Allocations) {
		t.Fatal("allocations differ between worker pool sizes")
	}
}

// TestCompileParallelDeterministicAllPairs covers the wide best-effort
// fan-out (many statements, shared product graph, many sink trees).
func TestCompileParallelDeterministicAllPairs(t *testing.T) {
	tp := FatTree(4, Gbps)
	pol, err := ParsePolicy(`foreach (s,d) in cross(hosts,hosts): .*`, tp)
	if err != nil {
		t.Fatal(err)
	}
	compileBothPoolSizes(t, tp, pol, nil, Options{NoDefault: true})
}

// TestCompileParallelDeterministicGuaranteed covers the guaranteed path:
// anchored product-graph builds fan out and feed the MIP.
func TestCompileParallelDeterministicGuaranteed(t *testing.T) {
	tp := Example(Gbps)
	ids := tp.Identities()
	h1, _ := ids.Of(tp.MustLookup("h1"))
	h2, _ := ids.Of(tp.MustLookup("h2"))
	src := `
[ x : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 20) -> .* dpi .*
  y : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 21) -> .*
  z : (eth.src = ` + h1.MAC + ` and eth.dst = ` + h2.MAC + ` and tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 10MB/s)
`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	place := Placement{"dpi": {"h1", "h2", "m1"}, "nat": {"m1"}}
	compileBothPoolSizes(t, tp, pol, place, Options{})
}

// TestCompileParallelDeterministicMixed covers a policy mixing several
// guarantees with best-effort classes over distinct path expressions.
func TestCompileParallelDeterministicMixed(t *testing.T) {
	tp := FatTree(4, Gbps)
	ids := tp.Identities()
	macs := ids.MACs()
	src := `
foreach (s,d) in cross(hosts,hosts): .*
[ g0 : (eth.src = ` + macs[0] + ` and eth.dst = ` + macs[2] + ` and tcp.dst = 7000) -> .* at min(5Mbps) ;
  g1 : (eth.src = ` + macs[1] + ` and eth.dst = ` + macs[3] + ` and tcp.dst = 7000) -> .* at min(5Mbps) ]
`
	pol, err := ParsePolicy(src, tp)
	if err != nil {
		t.Fatal(err)
	}
	compileBothPoolSizes(t, tp, pol, nil, Options{NoDefault: true})
}
