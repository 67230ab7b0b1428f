package codegen

import (
	"fmt"
	"strings"

	"merlin/internal/pred"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// This file is the backend API v2 capability surface: hardware-shaped
// backends declare a table model per device class and receive expanded
// ternary tables instead of symbolic predicates. Both capabilities are
// optional interfaces discovered by type assertion, so v1 backends (the
// four built-ins, p4) are untouched — they keep rendering Match.Pred
// symbolically, and nothing about their registration or emission
// changes.

// TableModel describes one device class's match table as a backend sees
// it: how many ternary entries fit, and whether the hardware matches port
// ranges natively (no → each range costs its prefix cover in entries).
type TableModel struct {
	// MaxEntries is the table capacity in ternary entries; 0 means
	// unconstrained (no budget is derived from this model).
	MaxEntries int
	// SupportsRange keeps port ranges as single native range matches
	// instead of expanding them to prefixes.
	SupportsRange bool
}

// TableModeler is the optional v2 interface through which a backend
// declares its table model per device class.
type TableModeler interface {
	// TableModel reports the model for a device class; ok false means
	// the class is unconstrained for this backend.
	TableModel(class topo.Kind) (TableModel, bool)
}

// TernaryEmitter is the optional v2 interface for backends consuming
// expanded ternary tables: the compiler runs ExpandProgram once per
// distinct expansion option set, checks budgets, and hands the tables
// over instead of (well, alongside) the symbolic Program.
type TernaryEmitter interface {
	// EmitTernary renders the program from its expanded ternary tables.
	// prog is still available for the non-classifier sections (queues,
	// caps, functions).
	EmitTernary(t *topo.Topology, prog *Program, tables *TernaryTables) (Artifact, error)
}

// TernaryEntry is one expanded ternary table entry: an IR rule with its
// predicate lowered to a value/mask row. Structural matches (ingress
// port, tag) stay symbolic — every real table keys them alongside the
// header ternary — and the MAC fields of the IR match are folded into
// the row as exact eth.src/eth.dst constraints.
type TernaryEntry struct {
	Device   topo.NodeID
	Priority int
	// InPort is the ingress-link match (AnyPort for any).
	InPort topo.LinkID
	// Tag is the path-tag match (TagAny / TagNone sentinels as in Match).
	Tag int
	// Match is the header value/mask row; empty matches every header.
	Match ternary.Row
	// Ops is the rule's canonical action text ("set_tag:2,forward:5").
	Ops string
	// Stmt is the owning policy statement.
	Stmt string
}

// TernaryTables is one expansion of a Program's rules under one option
// set: the per-device ternary tables, with entry counts for budget
// checks and stats.
type TernaryTables struct {
	Entries []TernaryEntry
	// PerDevice counts entries per device — what budgets are checked
	// against.
	PerDevice map[topo.NodeID]int
	// Total is len(Entries).
	Total int
	// Opt is the option set the expansion ran under.
	Opt ternary.Options
}

// TableOverflow is one device's budget violation.
type TableOverflow struct {
	// Device is the overflowing node.
	Device topo.NodeID
	// Name is the node's topology name.
	Name string
	// Entries is the expanded entry count placed on the device.
	Entries int
	// Budget is the device's table budget.
	Budget int
}

// TableOverflowError is the typed error a compile returns when a
// placement's expanded ternary tables exceed some device's budget and
// re-placement was not possible (or itself overflowed). Overflows are
// sorted by device.
type TableOverflowError struct {
	// Target is the backend whose table model was violated ("" when the
	// budget came from compiler options rather than a backend model).
	Target    string
	Overflows []TableOverflow
}

// Error implements error.
func (e *TableOverflowError) Error() string {
	var sb strings.Builder
	sb.WriteString("codegen: ternary table overflow")
	if e.Target != "" {
		sb.WriteString(" for target " + e.Target)
	}
	for i, o := range e.Overflows {
		if i == 0 {
			sb.WriteString(": ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s needs %d entries (budget %d)", o.Name, o.Entries, o.Budget)
	}
	return sb.String()
}

// ExpandProgram lowers every IR rule's match to ternary rows under one
// option set. One rule yields one entry per row of its predicate's
// expansion (a rule without a predicate yields one entry); the IR
// match's MAC fields intersect into each row as exact eth.src/eth.dst
// constraints, rows the intersection empties are dropped, and exact
// duplicate entries — same device, priority, structural match, row, and
// action — collapse. Entry order is deterministic in the Program.
//
// The expansion is a function of the match's header part alone, so it
// runs once per distinct (Match.Pred, SrcMAC, DstMAC) through one memo,
// which also holds each row's String form, rendered once. Duplicates
// collapse on the comparable key {device, priority, in-port, tag, row
// text, ops text}.
func ExpandProgram(t *topo.Topology, prog *Program, opt ternary.Options) (*TernaryTables, error) {
	tables := &TernaryTables{
		Entries:   make([]TernaryEntry, 0, len(prog.Rules)),
		PerDevice: map[topo.NodeID]int{},
		Opt:       opt,
	}
	memo := map[headerMatch][]renderedRow{}
	seen := make(map[entryKey]struct{}, len(prog.Rules))
	var buf []byte
	ids := t.Identities()
	for _, r := range prog.Rules {
		hm := headerMatch{pred: r.Match.Pred, src: r.Match.SrcMAC, dst: r.Match.DstMAC}
		rows, ok := memo[hm]
		if !ok {
			expanded, err := expandMatch(r.Match, opt, ids)
			if err != nil {
				return nil, fmt.Errorf("codegen: statement %s on %s: %w", r.Stmt, t.Node(r.Device).Name, err)
			}
			rows = make([]renderedRow, len(expanded))
			for i, row := range expanded {
				rows[i] = renderedRow{row: row, text: row.String()}
			}
			memo[hm] = rows
		}
		buf = appendOps(buf[:0], r.Ops)
		ops := string(buf)
		for _, row := range rows {
			k := entryKey{device: r.Device, priority: r.Priority, inPort: r.Match.InPort, tag: r.Match.Tag, row: row.text, ops: ops}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			tables.Entries = append(tables.Entries, TernaryEntry{
				Device:   r.Device,
				Priority: r.Priority,
				InPort:   r.Match.InPort,
				Tag:      r.Match.Tag,
				Match:    row.row,
				Ops:      ops,
				Stmt:     r.Stmt,
			})
			tables.PerDevice[r.Device]++
		}
	}
	tables.Total = len(tables.Entries)
	return tables, nil
}

// headerMatch is the part of an IR match ExpandProgram's rows depend on.
// Every pred.Pred is a comparable value, so it keys the memo directly.
type headerMatch struct {
	pred     pred.Pred
	src, dst string
}

// renderedRow is one expanded row and its String form.
type renderedRow struct {
	row  ternary.Row
	text string
}

// entryKey identifies an expanded entry for the duplicate collapse.
type entryKey struct {
	device   topo.NodeID
	priority int
	inPort   topo.LinkID
	tag      int
	row, ops string
}

// expandMatch turns one IR match's header constraints into ternary rows.
func expandMatch(m Match, opt ternary.Options, ids *topo.IdentityTable) ([]ternary.Row, error) {
	var rows []ternary.Row
	if m.Pred == nil {
		rows = []ternary.Row{nil}
	} else {
		var err error
		rows, err = ternary.Expand(ResolvePred(ids, m.Pred), opt)
		if err != nil {
			return nil, err
		}
	}
	var err error
	if rows, err = foldExact(rows, "eth.src", m.SrcMAC); err != nil {
		return nil, err
	}
	if rows, err = foldExact(rows, "eth.dst", m.DstMAC); err != nil {
		return nil, err
	}
	return rows, nil
}

// foldExact intersects an exact structural constraint into every row,
// dropping rows the intersection empties.
func foldExact(rows []ternary.Row, f pred.Field, v string) ([]ternary.Row, error) {
	if v == "" {
		return rows, nil
	}
	narrowed := rows[:0]
	for _, row := range rows {
		nr, ok, err := row.WithExact(f, v)
		if err != nil {
			return nil, err
		}
		if ok {
			narrowed = append(narrowed, nr)
		}
	}
	return narrowed, nil
}

// EstimateRuleEntries bounds one IR rule's ternary entry count without
// materializing rows — the per-rule expansion estimator budget checks
// and the provisioning constraint use. The MAC-fold can only drop rows,
// so the estimate (predicate expansion alone) stays an upper bound. ids
// resolves host identities as ExpandProgram would; nil skips resolution
// (values must then already be encodable).
func EstimateRuleEntries(r Rule, opt ternary.Options, ids *topo.IdentityTable) (int, error) {
	if r.Match.Pred == nil {
		return 1, nil
	}
	return ternary.Estimate(ResolvePred(ids, r.Match.Pred), opt)
}

// ResolvePred rewrites host-identity test values to the address family
// the field is keyed on: a host name (or cross-family address) on
// eth.src/eth.dst becomes the host's MAC, on ip.src/ip.dst its IP —
// the reading the compiler already gives identities when extracting
// endpoints. Values that resolve to no host, already-canonical
// addresses, and every other field pass through untouched (the ternary
// encoder reports what it cannot parse). The walk is copy-on-write; a
// nil table returns p unchanged.
func ResolvePred(ids *topo.IdentityTable, p pred.Pred) pred.Pred {
	if ids == nil {
		return p
	}
	switch x := p.(type) {
	case pred.Test:
		if v, ok := resolveValue(ids, x.Field, x.Value); ok {
			return pred.Test{Field: x.Field, Value: v}
		}
		return p
	case pred.And:
		l, r := ResolvePred(ids, x.L), ResolvePred(ids, x.R)
		if l != x.L || r != x.R {
			return pred.And{L: l, R: r}
		}
		return p
	case pred.Or:
		l, r := ResolvePred(ids, x.L), ResolvePred(ids, x.R)
		if l != x.L || r != x.R {
			return pred.Or{L: l, R: r}
		}
		return p
	case pred.Not:
		if q := ResolvePred(ids, x.P); q != x.P {
			return pred.Not{P: q}
		}
		return p
	default:
		return p
	}
}

// resolveValue maps one test value through the identity table when the
// field carries a host address. Values already shaped like the field's
// canonical family (colon-hex on eth, dotted-quad on ip) skip the table
// — resolving an owned address returns itself, so the lookup could only
// confirm that, and this path runs per literal inside the estimator.
func resolveValue(ids *topo.IdentityTable, f pred.Field, v string) (string, bool) {
	var mac bool
	switch f {
	case "eth.src", "eth.dst":
		if strings.IndexByte(v, ':') >= 0 {
			return "", false
		}
		mac = true
	case "ip.src", "ip.dst":
		if len(v) > 0 && v[0] >= '0' && v[0] <= '9' && strings.IndexByte(v, '.') >= 0 {
			return "", false
		}
	default:
		return "", false
	}
	node, ok := ids.Resolve(v)
	if !ok {
		return "", false
	}
	ident, ok := ids.Of(node)
	if !ok {
		return "", false
	}
	want := ident.IP
	if mac {
		want = ident.MAC
	}
	if want == v {
		return "", false
	}
	return want, true
}
