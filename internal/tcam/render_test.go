package tcam_test

import (
	"fmt"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/tcam"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// renderEntryRef is the backend's first, fmt-based entry renderer; the
// strconv/append renderer must print exactly what it prints.
func renderEntryRef(e codegen.TernaryEntry) string {
	var sb strings.Builder
	port, tag := fmt.Sprintf("%d", e.InPort), fmt.Sprintf("%d", e.Tag)
	if e.InPort == codegen.AnyPort {
		port = "any"
	}
	switch e.Tag {
	case codegen.TagAny:
		tag = "any"
	case codegen.TagNone:
		tag = "none"
	}
	fmt.Fprintf(&sb, "tcam entry add priority %d key port=%s tag=%s", e.Priority, port, tag)
	for _, m := range e.Match {
		sb.WriteByte(' ')
		sb.WriteString(m.String())
	}
	fmt.Fprintf(&sb, " action %q stmt %s", e.Ops, e.Stmt)
	return sb.String()
}

// TestRenderMatchesFmt emits entries covering the port and tag
// sentinels, empty, value/mask and range rows, empty ops, and ops text
// that needs quoting, and holds every line to the fmt reference.
func TestRenderMatchesFmt(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	s1 := tp.MustLookup("s1")
	rows := []ternary.Row{
		nil,
		{{Field: "tcp.dst", Bits: 16, Value: 80, Mask: 0xffff}},
		{{Field: "eth.src", Bits: 48, Value: 1, Mask: 1<<48 - 1}, {Field: "udp.dst", Bits: 16, Range: true, Lo: 1000, Hi: 2000}},
	}
	var tables codegen.TernaryTables
	for i, port := range []topo.LinkID{codegen.AnyPort, 0, 7} {
		for j, tag := range []int{codegen.TagAny, codegen.TagNone, 0, 41} {
			for k, ops := range []string{"", "set_tag:2,forward:5", `say "hi"\` + "\té"} {
				tables.Entries = append(tables.Entries, codegen.TernaryEntry{
					Device: s1, Priority: 100 + i*100 + j*10 + k, InPort: port, Tag: tag,
					Match: rows[(i+j+k)%len(rows)], Ops: ops, Stmt: fmt.Sprintf("st%d", k),
				})
			}
		}
	}
	tables.Total = len(tables.Entries)
	b, _ := codegen.Lookup(tcam.Name)
	out, err := b.(codegen.TernaryEmitter).EmitTernary(tp, &codegen.Program{}, &tables)
	if err != nil {
		t.Fatal(err)
	}
	lines := out.Entries()
	if len(lines) != len(tables.Entries) {
		t.Fatalf("%d lines for %d entries", len(lines), len(tables.Entries))
	}
	for i, e := range tables.Entries {
		if want := renderEntryRef(e); lines[i].Text != want {
			t.Errorf("entry %d: %q, fmt form %q", i, lines[i].Text, want)
		}
	}
}
