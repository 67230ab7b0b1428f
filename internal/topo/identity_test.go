package topo

import (
	"slices"
	"sync"
	"testing"
)

// TestIdentitiesMemoized: the table is built once per node set, so a
// later call allocates nothing, and AddNode makes the next call see the
// new host.
func TestIdentitiesMemoized(t *testing.T) {
	tp := FatTree(4, Gbps)
	tab := tp.Identities()
	if a := testing.AllocsPerRun(10, func() { tp.Identities() }); a != 0 {
		t.Fatalf("Identities allocates %v times on a built table, want 0", a)
	}
	if tp.Identities() != tab {
		t.Fatal("a second call built a new table")
	}
	h := tp.AddHost("late")
	next := tp.Identities()
	if _, ok := next.Resolve("late"); !ok {
		t.Fatal("the table after AddNode misses the new host")
	}
	if _, ok := tab.Resolve("late"); ok {
		t.Fatal("AddNode wrote the table an earlier caller holds")
	}
	hosts := next.Hosts()
	if len(hosts) != 17 || hosts[16].Node != h || hosts[16].MAC != MACOf(h) {
		t.Fatalf("hosts %v, want the 16 fat-tree hosts then late", hosts)
	}
	if !slices.IsSortedFunc(hosts, func(a, b Identity) int { return int(a.Node - b.Node) }) {
		t.Fatalf("hosts not in node-ID order: %v", hosts)
	}
	macs := next.MACs()
	for i, id := range hosts {
		if macs[i] != id.MAC {
			t.Fatalf("MACs()[%d] = %s, want %s", i, macs[i], id.MAC)
		}
	}
}

// TestIdentitiesConcurrentReaders: readers may build and read the table
// at once (run under -race).
func TestIdentitiesConcurrentReaders(t *testing.T) {
	tp := FatTree(4, Gbps)
	var wg sync.WaitGroup
	macs := make([][]string, 4)
	for i := range macs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := tp.Identities()
			for _, id := range tab.Hosts() {
				if got, ok := tab.Resolve(id.Name); !ok || got != id.Node {
					t.Errorf("Resolve(%s) = %d, %v", id.Name, got, ok)
				}
			}
			macs[i] = tab.MACs()
		}()
	}
	wg.Wait()
	for _, m := range macs[1:] {
		if !slices.Equal(m, macs[0]) {
			t.Fatal("concurrent readers saw different tables")
		}
	}
}
