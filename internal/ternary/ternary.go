// Package ternary is the predicate→ternary-entry expansion pass of the
// Backend API v2: it turns the compiler's symbolic classifier predicates
// into the value/mask rows a hardware TCAM actually stores. A predicate
// first expands to its positive DNF cubes (pred.PositiveCubes — the same
// classifier expansion the symbolic backends rely on for first-match
// shadowing), then each cube becomes one or more rows: every equality
// test is a full-mask field match, and a port-range test (a value of the
// form "lo-hi" on a 16-bit port field) either stays a single native
// range match, when the consuming table supports ranges, or expands to
// its minimal prefix cover (RangeToPrefixes), multiplying rows. Row
// order is deterministic, exact duplicates are always eliminated, and a
// bounded subsumption pass drops rows covered by an earlier row of the
// same expansion.
//
// Estimate prices the same expansion without materializing any row —
// structural recursion over the predicate (pred.EstimateCubes) with
// range literals weighted by their prefix count — so table-budget
// admission checks and the provisioning MIP's per-switch budget rows can
// run at O(predicate) cost.
package ternary

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"merlin/internal/pred"
)

// DefaultMaxRows bounds one predicate's materialized expansion, matching
// pred's own cube-expansion bound: policy predicates are shallow, so
// hitting it indicates a pathological input, not a capacity problem.
const DefaultMaxRows = 1 << 16

// subsumeLimit bounds the O(n²) redundancy-elimination pass; expansions
// beyond it keep only the (always-on) exact-duplicate elimination.
const subsumeLimit = 512

// Options tune an expansion for one consuming table model.
type Options struct {
	// SupportsRange keeps port-range tests as single native range
	// matches; false (the common TCAM) expands each to its prefix cover.
	SupportsRange bool
	// MaxRows bounds the materialized row count; 0 means DefaultMaxRows.
	MaxRows int
}

func (o Options) maxRows() int {
	if o.MaxRows > 0 {
		return o.MaxRows
	}
	return DefaultMaxRows
}

// FieldMatch is one field's ternary constraint within a row: match when
// packetValue & Mask == Value, or Lo ≤ packetValue ≤ Hi for a native
// range match (Range true, only produced under Options.SupportsRange).
type FieldMatch struct {
	Field pred.Field
	// Bits is the field's width.
	Bits int
	// Value and Mask are the value/mask pair (Mask's set bits are the
	// cared-about bits; Value is zero outside Mask).
	Value, Mask uint64
	// Range marks a native range match over [Lo, Hi] instead.
	Range  bool
	Lo, Hi uint64
}

// String renders the match in the canonical audit form.
func (m FieldMatch) String() string {
	if m.Range {
		return fmt.Sprintf("%s=%d..%d", m.Field, m.Lo, m.Hi)
	}
	w := (m.Bits + 3) / 4
	return fmt.Sprintf("%s=0x%0*x/0x%0*x", m.Field, w, m.Value, w, m.Mask)
}

// Row is one ternary entry's header match: a conjunction of field
// constraints in canonical field order. A nil or empty row matches
// everything.
type Row []FieldMatch

// String renders the row, comma-joined; the empty row renders as "*".
func (r Row) String() string {
	if len(r) == 0 {
		return "*"
	}
	parts := make([]string, len(r))
	for i, m := range r {
		parts[i] = m.String()
	}
	return strings.Join(parts, ",")
}

// fieldOrder is the canonical TCAM key layout; rows list their
// constraints in this order.
var fieldOrder = []pred.Field{
	"eth.src", "eth.dst", "eth.typ", "vlan.id",
	"ip.src", "ip.dst", "ip.proto", "ip.tos",
	"tcp.src", "tcp.dst", "udp.src", "udp.dst", "icmp.type",
}

var fieldIndex = func() map[pred.Field]int {
	m := make(map[pred.Field]int, len(fieldOrder))
	for i, f := range fieldOrder {
		m[f] = i
	}
	return m
}()

var fieldBits = map[pred.Field]int{
	"eth.src": 48, "eth.dst": 48, "eth.typ": 16, "vlan.id": 12,
	"ip.src": 32, "ip.dst": 32, "ip.proto": 8, "ip.tos": 8,
	"tcp.src": 16, "tcp.dst": 16, "udp.src": 16, "udp.dst": 16,
	"icmp.type": 8,
}

// rangeField marks the fields range values are accepted on: the 16-bit
// transport ports (the paper's policies classify on them, and they are
// the fields vendor TCAMs offer range matching for).
var rangeField = map[pred.Field]bool{
	"tcp.src": true, "tcp.dst": true, "udp.src": true, "udp.dst": true,
}

// ParseValue interprets one test value for a field: an exact value
// (lo == hi) or, on the port fields, an inclusive "lo-hi" range. MAC
// fields take the colon-hex form, IP fields dotted quads, and numeric
// fields decimal or 0x-hex, with the common ip.proto names (tcp, udp,
// icmp) accepted.
func ParseValue(f pred.Field, s string) (lo, hi uint64, err error) {
	nbits, ok := fieldBits[f]
	if !ok {
		return 0, 0, fmt.Errorf("ternary: field %q has no ternary encoding", f)
	}
	switch f {
	case "eth.src", "eth.dst":
		lo, err = parseMAC(s)
		hi = lo
	case "ip.src", "ip.dst":
		lo, err = parseIP(s)
		hi = lo
	default:
		if i := strings.IndexByte(s, '-'); i > 0 && rangeField[f] {
			lo, err = parseNum(f, s[:i])
			if err == nil {
				hi, err = parseNum(f, s[i+1:])
			}
			if err == nil && lo > hi {
				err = fmt.Errorf("ternary: empty range %q on %s", s, f)
			}
		} else {
			lo, err = parseNum(f, s)
			hi = lo
		}
	}
	if err != nil {
		return 0, 0, err
	}
	if max := uint64(1)<<nbits - 1; hi > max {
		return 0, 0, fmt.Errorf("ternary: value %q exceeds %d-bit field %s", s, nbits, f)
	}
	return lo, hi, nil
}

func parseMAC(s string) (uint64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return 0, fmt.Errorf("ternary: bad MAC %q", s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return 0, fmt.Errorf("ternary: bad MAC %q", s)
		}
		v = v<<8 | b
	}
	return v, nil
}

func parseIP(s string) (uint64, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ternary: bad IP %q", s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ternary: bad IP %q", s)
		}
		v = v<<8 | b
	}
	return v, nil
}

var protoNames = map[string]uint64{"icmp": 1, "tcp": 6, "udp": 17}

func parseNum(f pred.Field, s string) (uint64, error) {
	if f == "ip.proto" {
		if v, ok := protoNames[s]; ok {
			return v, nil
		}
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("ternary: bad %s value %q", f, s)
	}
	return v, nil
}

// Prefix is one block of a range's prefix cover: the Len top bits of
// Value are fixed, the rest don't-care.
type Prefix struct {
	Value uint64
	Len   int
}

// RangeToPrefixes covers the inclusive range [lo, hi] over a bits-wide
// field with the minimal ordered set of prefixes (greedy largest-aligned
// -block-first — the standard range-to-prefix construction, at most
// 2·bits−2 prefixes). An inverted range returns nil.
func RangeToPrefixes(lo, hi uint64, nbits int) []Prefix {
	out := make([]Prefix, 0, 4)
	rangePrefixes(lo, hi, nbits, func(v uint64, l int) {
		out = append(out, Prefix{Value: v, Len: l})
	})
	return out
}

// CountPrefixes is len(RangeToPrefixes(lo, hi, nbits)) without building
// the slice — the estimator's per-range weight.
func CountPrefixes(lo, hi uint64, nbits int) int {
	n := 0
	rangePrefixes(lo, hi, nbits, func(uint64, int) { n++ })
	return n
}

func rangePrefixes(lo, hi uint64, nbits int, emit func(v uint64, l int)) {
	if nbits <= 0 || nbits > 63 || hi >= uint64(1)<<nbits {
		return
	}
	for lo <= hi {
		// Largest block that starts at lo: bounded by lo's alignment and
		// by the remaining span.
		sz := nbits
		if lo != 0 {
			if tz := bits.TrailingZeros64(lo); tz < sz {
				sz = tz
			}
		}
		for sz > 0 && lo+(uint64(1)<<sz)-1 > hi {
			sz--
		}
		emit(lo, nbits-sz)
		next := lo + uint64(1)<<sz
		if next <= lo { // wrapped: the block ended at the field's top value
			return
		}
		lo = next
	}
}

// prefixMask is the mask fixing the top l of nbits bits.
func prefixMask(l, nbits int) uint64 {
	if l <= 0 {
		return 0
	}
	return ((uint64(1) << l) - 1) << (nbits - l)
}

// fullMask is the all-ones mask of an nbits-wide field.
func fullMask(nbits int) uint64 { return uint64(1)<<nbits - 1 }

// interval is one field's constraint while a cube is being normalized.
type interval struct {
	f      pred.Field
	nbits  int
	lo, hi uint64
}

// Expand materializes p's ternary rows. Cubes come from
// pred.PositiveCubes (so negated literals are, as in every symbolic
// backend, enforced by the shadowing higher-priority rules rather than
// encoded); within a cube, repeated tests on one field intersect (an
// empty intersection drops the cube as unsatisfiable), and each
// remaining port range either stays native (Options.SupportsRange) or
// multiplies the cube by its prefix cover. Errors are returned for
// predicates over fields with no ternary encoding (payload) and for
// expansions past Options.MaxRows — the same "expansion too large"
// condition pred enforces on cube counts.
func Expand(p pred.Pred, opt Options) ([]Row, error) {
	cubes, err := pred.PositiveCubes(p)
	if err != nil {
		return nil, fmt.Errorf("ternary: %w", err)
	}
	if len(cubes) == 0 {
		return nil, nil // unsatisfiable: no rows
	}
	limit := opt.maxRows()
	var rows []Row
	seen := map[string]bool{}
	for _, cube := range cubes {
		ivs, ok, err := normalizeCube(cube)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // contradictory field constraints: unsatisfiable cube
		}
		produced, err := cubeRows(ivs, opt, limit-len(rows))
		if err != nil {
			return nil, err
		}
		for _, r := range produced {
			k := r.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			rows = append(rows, r)
		}
	}
	return eliminateSubsumed(rows), nil
}

// Estimate bounds len(Expand(p, opt)) without materializing any row:
// pred.EstimateCubes walks the predicate once, weighting each positive
// port-range literal by its prefix count (1 under SupportsRange). It is
// an upper bound — unsatisfiable cubes and duplicate rows still count —
// which is the safe direction for admission checks. Unencodable literals
// surface as an error, exactly as Expand would report them.
func Estimate(p pred.Pred, opt Options) (int, error) {
	var encErr error
	w, err := pred.EstimateCubes(p, func(t pred.Test, negated bool) float64 {
		if negated {
			return 1 // dropped from the positive cube; the cube itself remains
		}
		nbits, ok := fieldBits[t.Field]
		if !ok {
			if encErr == nil {
				encErr = fmt.Errorf("ternary: field %q has no ternary encoding", t.Field)
			}
			return 1
		}
		lo, hi, perr := ParseValue(t.Field, t.Value)
		if perr != nil {
			if encErr == nil {
				encErr = perr
			}
			return 1
		}
		if lo == hi || opt.SupportsRange {
			return 1
		}
		return float64(CountPrefixes(lo, hi, nbits))
	})
	if err != nil {
		return 0, err
	}
	if encErr != nil {
		return 0, encErr
	}
	if w > math.MaxInt32 {
		return math.MaxInt32, nil
	}
	return int(w), nil
}

// normalizeCube intersects a cube's tests per field into intervals in
// canonical field order. ok is false when some field's constraints are
// contradictory (e.g. tcp.dst = 80 ∧ tcp.dst = 90-99).
func normalizeCube(cube []pred.Test) (ivs []interval, ok bool, err error) {
	byField := map[pred.Field]*interval{}
	for _, t := range cube {
		nbits, known := fieldBits[t.Field]
		if !known {
			return nil, false, fmt.Errorf("ternary: field %q has no ternary encoding", t.Field)
		}
		lo, hi, perr := ParseValue(t.Field, t.Value)
		if perr != nil {
			return nil, false, perr
		}
		iv := byField[t.Field]
		if iv == nil {
			byField[t.Field] = &interval{f: t.Field, nbits: nbits, lo: lo, hi: hi}
			continue
		}
		if lo > iv.lo {
			iv.lo = lo
		}
		if hi < iv.hi {
			iv.hi = hi
		}
		if iv.lo > iv.hi {
			return nil, false, nil
		}
	}
	ivs = make([]interval, 0, len(byField))
	for _, iv := range byField {
		ivs = append(ivs, *iv)
	}
	sort.Slice(ivs, func(i, j int) bool { return fieldIndex[ivs[i].f] < fieldIndex[ivs[j].f] })
	return ivs, true, nil
}

// cubeRows crosses one normalized cube's per-field match options into
// rows, bounded by budget rows.
func cubeRows(ivs []interval, opt Options, budget int) ([]Row, error) {
	options := make([][]FieldMatch, len(ivs))
	total := 1
	for i, iv := range ivs {
		switch {
		case iv.lo == iv.hi:
			options[i] = []FieldMatch{{Field: iv.f, Bits: iv.nbits, Value: iv.lo, Mask: fullMask(iv.nbits)}}
		case opt.SupportsRange:
			options[i] = []FieldMatch{{Field: iv.f, Bits: iv.nbits, Range: true, Lo: iv.lo, Hi: iv.hi}}
		default:
			ps := RangeToPrefixes(iv.lo, iv.hi, iv.nbits)
			ms := make([]FieldMatch, len(ps))
			for k, p := range ps {
				ms[k] = FieldMatch{Field: iv.f, Bits: iv.nbits, Value: p.Value, Mask: prefixMask(p.Len, iv.nbits)}
			}
			options[i] = ms
		}
		total *= len(options[i])
		if total > budget {
			return nil, fmt.Errorf("ternary: expansion too large (> %d rows)", opt.maxRows())
		}
	}
	rows := make([]Row, 0, total)
	var cross func(i int, acc Row)
	cross = func(i int, acc Row) {
		if i == len(options) {
			rows = append(rows, append(Row(nil), acc...))
			return
		}
		for _, m := range options[i] {
			cross(i+1, append(acc, m))
		}
	}
	cross(0, make(Row, 0, len(options)))
	return rows, nil
}

// eliminateSubsumed drops every row covered by an earlier row — the
// redundancy-elimination pass. Safe because all rows of one expansion
// share one action; bounded to subsumeLimit rows so a pathological
// expansion stays linear.
func eliminateSubsumed(rows []Row) []Row {
	if len(rows) < 2 || len(rows) > subsumeLimit {
		return rows
	}
	kept := rows[:0]
	for _, r := range rows {
		covered := false
		for _, k := range kept {
			if k.Covers(r) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, r)
		}
	}
	return kept
}

// Covers reports whether every packet matching o also matches r: each of
// r's constraints must be implied by o's constraint on the same field.
func (r Row) Covers(o Row) bool {
	for _, m := range r {
		om, ok := o.match(m.Field)
		if !ok {
			return false // r constrains a field o leaves wild
		}
		if !m.implies(om) {
			return false
		}
	}
	return true
}

func (r Row) match(f pred.Field) (FieldMatch, bool) {
	for _, m := range r {
		if m.Field == f {
			return m, true
		}
	}
	return FieldMatch{}, false
}

// implies reports whether o's constraint is at least as tight as m's:
// every value passing o also passes m.
func (m FieldMatch) implies(o FieldMatch) bool {
	switch {
	case !m.Range && !o.Range:
		return o.Mask&m.Mask == m.Mask && o.Value&m.Mask == m.Value
	case m.Range && o.Range:
		return m.Lo <= o.Lo && o.Hi <= m.Hi
	case m.Range && !o.Range:
		// o is value/mask; it implies the range only if o pins every bit
		// (exact) and the value falls inside.
		return o.Mask == fullMask(o.Bits) && m.Lo <= o.Value && o.Value <= m.Hi
	default: // m is value/mask, o a range: implied only for the trivial mask
		return m.Mask == 0
	}
}

// WithExact intersects the row with an exact test on f (the structural
// MAC fields of an IR match), returning the narrowed row and whether the
// intersection is satisfiable.
func (r Row) WithExact(f pred.Field, value string) (Row, bool, error) {
	nbits, ok := fieldBits[f]
	if !ok {
		return nil, false, fmt.Errorf("ternary: field %q has no ternary encoding", f)
	}
	v, hi, err := ParseValue(f, value)
	if err != nil {
		return nil, false, err
	}
	if v != hi {
		return nil, false, fmt.Errorf("ternary: exact constraint on %s is a range", f)
	}
	exact := FieldMatch{Field: f, Bits: nbits, Value: v, Mask: fullMask(nbits)}
	out := make(Row, 0, len(r)+1)
	placed := false
	for _, m := range r {
		if m.Field != f {
			if !placed && fieldIndex[m.Field] > fieldIndex[f] {
				out = append(out, exact)
				placed = true
			}
			out = append(out, m)
			continue
		}
		// Intersect with the existing constraint on f.
		if m.Range {
			if v < m.Lo || v > m.Hi {
				return nil, false, nil
			}
		} else if v&m.Mask != m.Value {
			return nil, false, nil
		}
		if !placed {
			out = append(out, exact)
			placed = true
		}
	}
	if !placed {
		out = append(out, exact)
	}
	return out, true, nil
}

// Matches evaluates the row against a packet's rendered field map (the
// packet.Fields form) — the differential-test oracle bridging rows back
// to the symbolic classifier's semantics. Fields absent from the packet
// fail their constraints, mirroring pred.Matches.
func (r Row) Matches(fields map[pred.Field]string) bool {
	for _, m := range r {
		s, ok := fields[m.Field]
		if !ok {
			return false
		}
		v, hi, err := ParseValue(m.Field, s)
		if err != nil || v != hi {
			return false
		}
		if m.Range {
			if v < m.Lo || v > m.Hi {
				return false
			}
		} else if v&m.Mask != m.Value {
			return false
		}
	}
	return true
}
