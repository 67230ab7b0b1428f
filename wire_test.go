package merlin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// reparseDecodeDelta is the whole-policy delta decoder DecodeDelta
// replaced, kept as its reference: it renders every kept statement,
// joins them with the adds and the formula (the sent one, else the
// current one), parses that whole text, and takes as adds the parsed
// statements whose IDs are not current.
func reparseDecodeDelta(c *Compiler, w WireDelta) (Delta, error) {
	c.mu.Lock()
	src := c.source
	c.mu.Unlock()
	if src == nil {
		return Delta{}, fmt.Errorf("merlin: Compiler.DecodeDelta called before the first Compile")
	}

	removed := make(map[string]bool, len(w.Remove))
	for _, id := range w.Remove {
		removed[id] = true
	}
	current := make(map[string]bool, len(src.Statements))
	var stmts []string
	for _, s := range src.Statements {
		current[s.ID] = true
		if !removed[s.ID] {
			stmts = append(stmts, s.String())
		}
	}
	stmts = append(stmts, w.Add...)

	var sb strings.Builder
	sb.WriteString("[")
	sb.WriteString(strings.Join(stmts, ";\n "))
	sb.WriteString("]")
	formulaChanged := w.Formula != ""
	if formulaChanged {
		sb.WriteString(",\n")
		sb.WriteString(w.Formula)
	} else if src.Formula != nil {
		if f := src.Formula.String(); f != "true" {
			sb.WriteString(",\n")
			sb.WriteString(f)
		}
	}
	pol, err := ParsePolicy(sb.String(), c.t)
	if err != nil {
		return Delta{}, fmt.Errorf("merlin: delta does not parse against the current policy: %w", err)
	}

	d := Delta{Remove: w.Remove, Place: w.Place}
	for _, s := range pol.Statements {
		if !current[s.ID] {
			d.Add = append(d.Add, s)
		}
	}
	if len(d.Add) != len(w.Add) {
		return Delta{}, fmt.Errorf("merlin: delta adds %d statements but %d parsed as new — an added ID collides with a kept statement", len(w.Add), len(d.Add))
	}
	if !formulaChanged {
		oldF := "true"
		if src.Formula != nil {
			oldF = src.Formula.String()
		}
		formulaChanged = pol.Formula != nil && pol.Formula.String() != oldF
	}
	if formulaChanged {
		d.Formula = pol.Formula
	}
	return d, nil
}

// sameDecodedDelta reports how two decoded deltas differ: adds compared
// by concrete syntax, removes as given, formulas by concrete syntax or
// both nil.
func sameDecodedDelta(got, want Delta) error {
	render := func(stmts []Statement) []string {
		var out []string
		for _, s := range stmts {
			out = append(out, s.String())
		}
		return out
	}
	if g, w := render(got.Add), render(want.Add); !reflect.DeepEqual(g, w) || (got.Add == nil) != (want.Add == nil) {
		return fmt.Errorf("adds %q, reference %q", g, w)
	}
	if !reflect.DeepEqual(got.Remove, want.Remove) {
		return fmt.Errorf("removes %q, reference %q", got.Remove, want.Remove)
	}
	if (got.Formula == nil) != (want.Formula == nil) {
		return fmt.Errorf("formula %v, reference %v", got.Formula, want.Formula)
	}
	if got.Formula != nil && got.Formula.String() != want.Formula.String() {
		return fmt.Errorf("formula %q, reference %q", got.Formula, want.Formula)
	}
	return nil
}

// FuzzDecodeDelta holds DecodeDelta, which parses only the delta's own
// text, to the whole-policy reference decoder over the two-statement
// tenant fixture: both give the same Delta, or both fail. adds holds one
// added statement per line; remove holds space-separated IDs.
func FuzzDecodeDelta(f *testing.F) {
	tp := Ring(8, 1, 100*MBps)
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(tenantRingPolicy(f, tp, "10MB/s")); err != nil {
		f.Fatal(err)
	}
	mac := func(host string) string {
		id, _ := tp.Identities().Of(tp.MustLookup(host))
		return id.MAC
	}
	pair := fmt.Sprintf("(eth.src = %s and eth.dst = %s)", mac("h1_0"), mac("h2_0"))
	for _, seed := range []struct{ adds, remove, formula string }{
		{"c0 : " + pair + " -> .* at min(5MB/s)", "", ""},                                       // at-clause add
		{"", "b0", "min(a0, 20MB/s)"},                                                           // remove plus formula
		{"", "", "min(a0, 20MB/s) and min(b0, 5MB/s)"},                                          // formula only
		{"not a statement", "", ""},                                                             // malformed
		{"", "", "min(a0, 20MB/s"},                                                              // malformed formula
		{"a0 : " + pair + " -> .*", "", ""},                                                     // collides with a kept ID
		{"b0 : " + pair + " -> .*", "b0", "min(a0, 20MB/s)"},                                    // collides with a removed ID
		{"c0 : " + pair + " -> .*\nc0 : true -> .*", "", ""},                                    // duplicate adds
		{"", "b0", "min(a0, 20MB/s) and min(b0, 5MB/s)"},                                        // formula names a removed ID
		{"", "", "max(zz, 1Mbps)"},                                                              // formula names an unknown ID
		{"foreach (s,d) in cross(hosts,hosts): .*", "", ""},                                     // foreach add
		{"]; x := {h1_0}; y := {h2_0}; [foreach (s,d) in cross(x,y): .* at max(1Mbps)", "", ""}, // foreach expanding once
		{"p : true -> h1_0" + strings.Repeat("+", 30), "", ""},                                  // the '+' bomb
		{"c0 : true -> .*], max(a0, 1Mbps) [", "", ""},                                          // a formula written into an add
		{"c0 : true -> .*", "", "true"},                                                         // formula cleared
	} {
		f.Add(seed.adds, seed.remove, seed.formula)
	}
	f.Fuzz(func(t *testing.T, adds, remove, formula string) {
		w := WireDelta{Remove: strings.Fields(remove), Formula: formula}
		if adds != "" {
			w.Add = strings.Split(adds, "\n")
		}
		got, gotErr := c.DecodeDelta(w)
		want, wantErr := reparseDecodeDelta(c, w)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%+v: err %v, reference err %v", w, gotErr, wantErr)
		case gotErr == nil:
			if err := sameDecodedDelta(got, want); err != nil {
				t.Fatalf("%+v: %v", w, err)
			}
		}
	})
}

// TestDecodeDeltaErrorPositions: a parse error in Add[k] is reported on
// line k+1 of the delta's own text, whatever the number of kept
// statements; the column is the error's column within the add plus one.
func TestDecodeDeltaErrorPositions(t *testing.T) {
	tp := Ring(8, 1, 100*MBps)
	c := NewCompiler(tp, nil, Options{NoDefault: true})
	if _, err := c.Compile(tenantRingPolicy(t, tp, "10MB/s")); err != nil {
		t.Fatal(err)
	}
	good := "c0 : true -> .*"
	bad := "c9 : true -> ) " // ')' at column 14 of the add
	for k := 0; k < 3; k++ {
		adds := []string{good + "1", good + "2", good + "3"}[:k]
		adds = append(adds, bad)
		_, err := c.DecodeDelta(WireDelta{Add: adds})
		want := fmt.Sprintf("policy:%d:15:", k+1)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("bad add at index %d: err = %v, want position %s", k, err, want)
		}
	}
}
