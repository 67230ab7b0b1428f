package ternary

import (
	"fmt"
	"strings"
	"testing"

	"merlin/internal/pred"
)

// fieldMatchRef is FieldMatch.String as it was first written with fmt;
// the appenders must print exactly this.
func fieldMatchRef(m FieldMatch) string {
	if m.Range {
		return fmt.Sprintf("%s=%d..%d", m.Field, m.Lo, m.Hi)
	}
	w := (m.Bits + 3) / 4
	return fmt.Sprintf("%s=0x%0*x/0x%0*x", m.Field, w, m.Value, w, m.Mask)
}

// rowRef is Row.String as it was first written.
func rowRef(r Row) string {
	if len(r) == 0 {
		return "*"
	}
	parts := make([]string, len(r))
	for i, m := range r {
		parts[i] = fieldMatchRef(m)
	}
	return strings.Join(parts, ",")
}

// FuzzRenderMatchesFmt holds FieldMatch.AppendTo/String and Row.String
// to the fmt forms for every field width 0–64, value/mask and range
// matches alike, values wider than the field included.
func FuzzRenderMatchesFmt(f *testing.F) {
	f.Add("tcp.dst", uint8(16), uint64(80), uint64(0xffff), false, uint64(0), uint64(0))
	f.Add("eth.src", uint8(48), uint64(1), uint64(1)<<48-1, false, uint64(0), uint64(0))
	f.Add("ip.dst", uint8(32), uint64(0x0a000000), uint64(0xff000000), false, uint64(0), uint64(0))
	f.Add("vlan.id", uint8(12), uint64(0), uint64(0), false, uint64(0), uint64(0))
	f.Add("tcp.src", uint8(16), uint64(0), uint64(0), true, uint64(1000), uint64(2000))
	f.Add("x", uint8(0), uint64(0), uint64(0), false, uint64(0), uint64(0))
	f.Add("wide", uint8(4), uint64(1)<<63, ^uint64(0), false, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, field string, bits uint8, value, mask uint64, isRange bool, lo, hi uint64) {
		m := FieldMatch{Field: pred.Field(field), Bits: int(bits % 65), Value: value, Mask: mask, Range: isRange, Lo: lo, Hi: hi}
		want := fieldMatchRef(m)
		if got := m.String(); got != want {
			t.Fatalf("String() = %q, fmt form %q", got, want)
		}
		if got := string(m.AppendTo([]byte("prefix:"))); got != "prefix:"+want {
			t.Fatalf("AppendTo = %q, want %q", got, "prefix:"+want)
		}
		other := FieldMatch{Field: "tcp.dst", Bits: 16, Value: value & 0xffff, Mask: mask & 0xffff}
		for _, r := range []Row{nil, {}, {m}, {m, other}, {other, m, other}} {
			if got, want := r.String(), rowRef(r); got != want {
				t.Fatalf("Row.String() = %q, fmt form %q", got, want)
			}
		}
	})
}
