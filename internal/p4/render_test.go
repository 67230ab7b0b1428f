package p4_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"merlin/internal/codegen"
	"merlin/internal/p4"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// The reference renderers below are the backend's first, fmt-based forms;
// the strconv/append renderers must print exactly what they print.

func entryStringRef(e p4.TableEntry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table=%s prio=%d match={%s} action=%s(%s)",
		e.Table, e.Priority, strings.Join(e.Match, ","), e.Action, strings.Join(e.Params, ","))
	return sb.String()
}

func matchKeysRef(m codegen.Match) []string {
	var keys []string
	if m.InPort != codegen.AnyPort {
		keys = append(keys, fmt.Sprintf("ingress_port=%d", m.InPort))
	}
	switch m.Tag {
	case codegen.TagAny:
	case codegen.TagNone:
		keys = append(keys, "tag_valid=0")
	default:
		keys = append(keys, "tag_valid=1", fmt.Sprintf("tag=%d", m.Tag))
	}
	if m.SrcMAC != "" {
		keys = append(keys, "eth_src="+m.SrcMAC)
	}
	if m.DstMAC != "" {
		keys = append(keys, "eth_dst="+m.DstMAC)
	}
	if m.Pred != nil {
		keys = append(keys, "cls="+pred.Format(m.Pred))
	}
	return keys
}

func actionForRef(ops []codegen.Op) (string, []string) {
	var names, params []string
	for _, op := range ops {
		switch op.Kind {
		case codegen.OpForward:
			names = append(names, "forward")
			params = append(params, fmt.Sprintf("port=%d", op.Port))
		case codegen.OpForwardQueue:
			names = append(names, "forward_queue")
			params = append(params, fmt.Sprintf("port=%d", op.Port), fmt.Sprintf("queue=%d", op.Queue))
		case codegen.OpSetTag:
			names = append(names, "push_tag")
			params = append(params, fmt.Sprintf("tag=%d", op.Tag))
		case codegen.OpClearTag:
			names = append(names, "pop_tag")
		}
	}
	if len(names) == 0 {
		return "nop", nil
	}
	return strings.Join(names, "_"), params
}

// TestRenderMatchesFmt emits rules covering every match sentinel, MAC
// and predicate key, op kind and the empty op list, plus a queue, and
// holds each entry and its rendered text to the fmt references.
func TestRenderMatchesFmt(t *testing.T) {
	tp := topo.Linear(2, topo.Gbps)
	s1 := tp.MustLookup("s1")
	cls := pred.Conj(pred.Test{Field: "tcp.dst", Value: "80"}, pred.Test{Field: "ip.proto", Value: "tcp"})
	matches := []codegen.Match{
		{InPort: codegen.AnyPort, Tag: codegen.TagAny},
		{InPort: 3, Tag: codegen.TagNone, Pred: cls},
		{InPort: 0, Tag: 12, SrcMAC: "00:00:00:00:00:01", DstMAC: "00:00:00:00:00:02"},
		{InPort: codegen.AnyPort, Tag: codegen.TagNone, DstMAC: "00:00:00:00:00:02", Pred: pred.Test{Field: "tcp.dst", Value: "22"}},
	}
	opLists := [][]codegen.Op{
		nil,
		{{Kind: codegen.OpForward, Port: 5}},
		{{Kind: codegen.OpSetTag, Tag: 2}, {Kind: codegen.OpForward, Port: 1}},
		{{Kind: codegen.OpClearTag}, {Kind: codegen.OpForwardQueue, Port: 4, Queue: 9}},
		{{Kind: codegen.OpClearTag}},
	}
	prog := &codegen.Program{Queues: []codegen.QueueConfig{{Switch: s1, Port: 4, Queue: 9, MinBps: 8e7}}}
	for i, m := range matches {
		for j, ops := range opLists {
			prog.Rules = append(prog.Rules, codegen.Rule{Device: s1, Priority: 100 + 10*i + j, Match: m, Ops: ops, Stmt: "s"})
		}
	}
	b, _ := codegen.Lookup(p4.Name)
	out, err := b.Emit(tp, prog)
	if err != nil {
		t.Fatal(err)
	}
	art := out.(*p4.Artifact)
	texts := art.Entries()
	if len(art.TableEntries) != len(prog.Rules)+len(prog.Queues) {
		t.Fatalf("%d entries for %d rules and %d queues", len(art.TableEntries), len(prog.Rules), len(prog.Queues))
	}
	for i, e := range art.TableEntries {
		if i < len(prog.Rules) {
			r := prog.Rules[i]
			action, params := actionForRef(r.Ops)
			if !slices.Equal(e.Match, matchKeysRef(r.Match)) || e.Action != action || !slices.Equal(e.Params, params) {
				t.Errorf("rule %d: got match %q action %s%q, fmt forms %q %s%q",
					i, e.Match, e.Action, e.Params, matchKeysRef(r.Match), action, params)
			}
		}
		want := entryStringRef(e)
		if got := e.String(); got != want {
			t.Errorf("entry %d: String() = %q, fmt form %q", i, got, want)
		}
		if texts[i].Text != want {
			t.Errorf("entry %d: Entries() text = %q, fmt form %q", i, texts[i].Text, want)
		}
	}
}
