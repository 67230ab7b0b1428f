package pred

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// sprintfString is the recursive fmt.Sprintf renderer String replaced,
// kept as the reference the linear renderer must match byte for byte.
func sprintfString(p Pred) string {
	switch q := p.(type) {
	case Test:
		return fmt.Sprintf("%s = %s", q.Field, q.Value)
	case And:
		return fmt.Sprintf("(%s and %s)", sprintfString(q.L), sprintfString(q.R))
	case Or:
		return fmt.Sprintf("(%s or %s)", sprintfString(q.L), sprintfString(q.R))
	case Not:
		return "!(" + sprintfString(q.P) + ")"
	default:
		return p.String()
	}
}

func sprintfFormat(p Pred) string {
	s := sprintfString(p)
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		return s[1 : len(s)-1]
	}
	return s
}

// rawPred builds a random predicate without Conj/Disj/Negate's
// simplification, so constants sit under connectives and double
// negations survive. Values with parentheses reach Format's stripping.
func rawPred(r *rand.Rand, depth int) Pred {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return True
		case 1:
			return False
		default:
			fields := []Field{"ip.proto", "tcp.dst", "(eth.src", ""}
			vals := []string{"1", "22)", "00:00:00:00:00:01", ""}
			return Test{Field: fields[r.Intn(len(fields))], Value: vals[r.Intn(len(vals))]}
		}
	}
	switch r.Intn(3) {
	case 0:
		return And{rawPred(r, depth-1), rawPred(r, depth-1)}
	case 1:
		return Or{rawPred(r, depth-1), rawPred(r, depth-1)}
	default:
		return Not{rawPred(r, depth-1)}
	}
}

func TestRenderMatchesSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		p := rawPred(r, 1+i%6)
		if got, want := p.String(), sprintfString(p); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		if got, want := Format(p), sprintfFormat(p); got != want {
			t.Fatalf("Format = %q, want %q", got, want)
		}
	}
}

// A right-nested disjunction of n atoms renders to O(n) bytes; the
// renderer must allocate O(n) bytes for it, not a copy per nesting level.
func TestRenderLinearInSize(t *testing.T) {
	const n = 4000
	var p Pred = Test{Field: "tcp.dst", Value: "0"}
	for i := 1; i < n; i++ {
		p = Or{Test{Field: "tcp.dst", Value: fmt.Sprint(i)}, p}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := Format(p)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(s)); got > limit {
		t.Fatalf("Format of %d disjuncts (%d bytes) allocated %d bytes, limit %d", n, len(s), got, limit)
	}
}
