package codegen

import (
	"fmt"
	"strings"
	"testing"
)

// formatOpsRef is the action text as it was first rendered, with fmt;
// appendOps must print exactly this.
func formatOpsRef(ops []Op) string {
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpForward:
			parts = append(parts, fmt.Sprintf("forward:%d", op.Port))
		case OpForwardQueue:
			parts = append(parts, fmt.Sprintf("forward_queue:%d:%d", op.Port, op.Queue))
		case OpSetTag:
			parts = append(parts, fmt.Sprintf("set_tag:%d", op.Tag))
		case OpClearTag:
			parts = append(parts, "clear_tag")
		}
	}
	return strings.Join(parts, ",")
}

func TestAppendOpsMatchesFmt(t *testing.T) {
	for _, ops := range [][]Op{
		nil,
		{},
		{{Kind: OpForward, Port: 5}},
		{{Kind: OpSetTag, Tag: 2}, {Kind: OpForward, Port: 5}},
		{{Kind: OpForwardQueue, Port: 3, Queue: 7}},
		{{Kind: OpClearTag}, {Kind: OpSetTag, Tag: -1}, {Kind: OpForward, Port: AnyPort}},
		// Unknown kinds render as nothing, separator included.
		{{Kind: OpKind(9)}, {Kind: OpForward, Port: 1}, {Kind: OpKind(-1)}, {Kind: OpClearTag}},
		{{Kind: OpKind(9)}},
	} {
		want := formatOpsRef(ops)
		if got := string(appendOps(nil, ops)); got != want {
			t.Errorf("appendOps(%v) = %q, fmt form %q", ops, got, want)
		}
		if got := string(appendOps([]byte("x|"), ops)); got != "x|"+want {
			t.Errorf("appendOps after a prefix = %q, want %q", got, "x|"+want)
		}
	}
}
