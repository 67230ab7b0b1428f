package regex

import "encoding/binary"

// DFA is a complete deterministic automaton: every state has exactly one
// successor per alphabet symbol (a dead state absorbs non-matches).
type DFA struct {
	Alphabet *Alphabet
	States   int
	Start    int
	Accept   []bool
	Trans    [][]int // Trans[state][symbol]
}

// Determinize performs the subset construction, producing a complete DFA.
// Each subset is stepped once per symbol class — symbols lying in the same
// NFA edge sets lead every subset to the same successor — in ascending
// least-symbol order, which discovers states in the order stepping every
// symbol would; the row entry is then copied to the class's other symbols.
func (n *NFA) Determinize() *DFA {
	size := n.Alphabet.Size()
	sc := n.symbolClasses()
	// Index NFA edges by source, each with the classes its set contains.
	type move struct {
		to      int
		classes []int32
	}
	out := make([][]move, n.States)
	for _, e := range n.Edges {
		var classes []int32
		for k, rep := range sc.reps {
			if e.Set.Has(rep) {
				classes = append(classes, int32(k))
			}
		}
		if len(classes) > 0 {
			out[e.From] = append(out[e.From], move{e.To, classes})
		}
	}
	// Subsets are state bitsets, keyed in ids by their bytes.
	accept := NewSymSet(n.States)
	for q, a := range n.Accept {
		if a {
			accept.Add(q)
		}
	}
	d := &DFA{Alphabet: n.Alphabet}
	ids := map[string]int{}
	var sets []SymSet // sets[i] = DFA state i's subset
	var key []byte
	newState := func(set SymSet) int {
		key = key[:0]
		for _, w := range set {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		if id, ok := ids[string(key)]; ok {
			return id
		}
		id := d.States
		d.States++
		ids[string(key)] = id
		sets = append(sets, set.Clone())
		acc := false
		for i, w := range set {
			if w&accept[i] != 0 {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		d.Trans = append(d.Trans, make([]int, size))
		return id
	}
	stack := make([]int, 0, n.States)
	start := NewSymSet(n.States)
	start.Add(n.Start)
	n.closure(start, stack)
	d.Start = newState(start)
	next := make([]SymSet, len(sc.reps)) // next[k] = successor subset on class k
	for k := range next {
		next[k] = NewSymSet(n.States)
	}
	target := make([]int, len(sc.reps))
	for work := 0; work < d.States; work++ {
		for _, set := range next {
			clear(set)
		}
		sets[work].each(func(q int) {
			for _, m := range out[q] {
				for _, k := range m.classes {
					next[k].Add(m.to)
				}
			}
		})
		for k, set := range next {
			n.closure(set, stack)
			target[k] = newState(set)
		}
		sc.fill(d.Trans[work], target)
	}
	return d
}

// Complement returns a DFA accepting exactly the strings d rejects.
func (d *DFA) Complement() *DFA {
	out := &DFA{
		Alphabet: d.Alphabet,
		States:   d.States,
		Start:    d.Start,
		Accept:   make([]bool, d.States),
		Trans:    d.Trans,
	}
	for q, a := range d.Accept {
		out.Accept[q] = !a
	}
	return out
}

// Intersect returns the product DFA accepting the intersection of the two
// languages. Both automata must share the same alphabet. Product states are
// discovered in the order stepping every symbol in ascending order would.
func (d *DFA) Intersect(o *DFA) *DFA {
	if d.Alphabet != o.Alphabet {
		panic("regex: intersecting DFAs over different alphabets")
	}
	size := d.Alphabet.Size()
	type pair struct{ a, b int }
	ids := map[pair]int{}
	var pairs []pair
	out := &DFA{Alphabet: d.Alphabet}
	newState := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.States
		out.States++
		ids[p] = id
		pairs = append(pairs, p)
		out.Accept = append(out.Accept, d.Accept[p.a] && o.Accept[p.b])
		out.Trans = append(out.Trans, make([]int, size))
		return id
	}
	out.Start = newState(pair{d.Start, o.Start})
	// Step once per joint column class: symbols with the same column in
	// both operands lead every pair to the same pair.
	sc := columnClasses(size, d.Trans, o.Trans)
	target := make([]int, len(sc.reps))
	for work := 0; work < out.States; work++ {
		p := pairs[work]
		for k, sym := range sc.reps {
			target[k] = newState(pair{d.Trans[p.a][sym], o.Trans[p.b][sym]})
		}
		sc.fill(out.Trans[work], target)
	}
	return out
}

// Empty reports whether the DFA accepts no string.
func (d *DFA) Empty() bool {
	seen := make([]bool, d.States)
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accept[q] {
			return false
		}
		for _, to := range d.Trans[q] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return true
}

// Witness returns a shortest accepted string, or nil if the language is
// empty. Useful in error messages ("this refinement admits path X the
// original forbids").
func (d *DFA) Witness() []string {
	type entry struct {
		state  int
		parent int // index into trail, -1 for start
		sym    int
	}
	trail := []entry{{state: d.Start, parent: -1, sym: -1}}
	seen := make([]bool, d.States)
	seen[d.Start] = true
	for i := 0; i < len(trail); i++ {
		e := trail[i]
		if d.Accept[e.state] {
			var rev []int
			for j := i; trail[j].parent != -1; j = trail[j].parent {
				rev = append(rev, trail[j].sym)
			}
			out := make([]string, len(rev))
			for k := range rev {
				out[k] = d.Alphabet.Name(rev[len(rev)-1-k])
			}
			return out
		}
		for sym := 0; sym < d.Alphabet.Size(); sym++ {
			to := d.Trans[e.state][sym]
			if !seen[to] {
				seen[to] = true
				trail = append(trail, entry{state: to, parent: i, sym: sym})
			}
		}
	}
	return nil
}

// Minimize returns an equivalent DFA with the minimum number of states,
// using Hopcroft's partition-refinement algorithm.
func (d *DFA) Minimize() *DFA {
	size := d.Alphabet.Size()
	// Restrict to reachable states first.
	reach := make([]int, d.States)
	for i := range reach {
		reach[i] = -1
	}
	order := []int{d.Start}
	reach[d.Start] = 0
	for i := 0; i < len(order); i++ {
		for _, to := range d.Trans[order[i]] {
			if reach[to] < 0 {
				reach[to] = len(order)
				order = append(order, to)
			}
		}
	}
	n := len(order)
	accept := make([]bool, n)
	trans := make([][]int, n)
	for newID, oldID := range order {
		accept[newID] = d.Accept[oldID]
		row := make([]int, size)
		for sym, to := range d.Trans[oldID] {
			row[sym] = reach[to]
		}
		trans[newID] = row
	}
	// Reverse transition lists for the refinement step, one per column
	// class: a symbol whose column equals an earlier symbol's splits
	// exactly the blocks that symbol splits, so it never needs a turn.
	sc := columnClasses(size, trans)
	rev := make([][][]int, len(sc.reps))
	for k, sym := range sc.reps {
		rev[k] = make([][]int, n)
		for q := 0; q < n; q++ {
			to := trans[q][sym]
			rev[k][to] = append(rev[k][to], q)
		}
	}
	// Initial partition: accepting vs non-accepting.
	part := make([]int, n) // state -> block id
	var blocks [][]int
	inWork := make([]bool, n) // there are never more blocks than states
	var accBlock, rejBlock []int
	for q := 0; q < n; q++ {
		if accept[q] {
			accBlock = append(accBlock, q)
		} else {
			rejBlock = append(rejBlock, q)
		}
	}
	var worklist []int
	push := func(b int) {
		worklist = append(worklist, b)
		inWork[b] = true
	}
	addBlock := func(states []int) int {
		id := len(blocks)
		blocks = append(blocks, states)
		for _, q := range states {
			part[q] = id
		}
		return id
	}
	if len(accBlock) > 0 {
		push(addBlock(accBlock))
	}
	if len(rejBlock) > 0 {
		push(addBlock(rejBlock))
	}
	inX := make([]bool, n)
	var xs, affected []int
	hits := make([]int, n) // hits[b] = states of block b in X
	for len(worklist) > 0 {
		a := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		inWork[a] = false
		splitter := append([]int(nil), blocks[a]...)
		for k := range sc.reps {
			// X = states with a transition on class k into block a.
			xs, affected = xs[:0], affected[:0]
			for _, q := range splitter {
				for _, p := range rev[k][q] {
					if !inX[p] {
						inX[p] = true
						xs = append(xs, p)
						if hits[part[p]] == 0 {
							affected = append(affected, part[p])
						}
						hits[part[p]]++
					}
				}
			}
			// Split every block X crosses.
			for _, b := range affected {
				if hits[b] < len(blocks[b]) {
					var yes, no []int
					for _, q := range blocks[b] {
						if inX[q] {
							yes = append(yes, q)
						} else {
							no = append(no, q)
						}
					}
					blocks[b] = yes
					newID := addBlock(no)
					switch {
					case inWork[b]:
						push(newID)
					case len(yes) <= len(no): // add the smaller half
						push(b)
					default:
						push(newID)
					}
				}
				hits[b] = 0
			}
			for _, p := range xs {
				inX[p] = false
			}
		}
	}
	// Build the quotient automaton, numbering its states breadth-first
	// from the start block over ascending symbols. Block ids depend on the
	// order splits happened in; the minimal DFA does not, so this
	// numbering makes the result a function of the language alone.
	canon := make([]int, len(blocks))
	for i := range canon {
		canon[i] = -1
	}
	canon[part[0]] = 0 // state 0 is the renumbered start
	queue := []int{part[0]}
	for i := 0; i < len(queue); i++ {
		q := blocks[queue[i]][0]
		for _, sym := range sc.reps {
			if b := part[trans[q][sym]]; canon[b] < 0 {
				canon[b] = len(queue)
				queue = append(queue, b)
			}
		}
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		States:   len(blocks),
		Start:    0,
		Accept:   make([]bool, len(blocks)),
		Trans:    make([][]int, len(blocks)),
	}
	target := make([]int, len(sc.reps))
	for id, b := range queue {
		q := blocks[b][0]
		out.Accept[id] = accept[q]
		for k, sym := range sc.reps {
			target[k] = canon[part[trans[q][sym]]]
		}
		out.Trans[id] = make([]int, size)
		sc.fill(out.Trans[id], target)
	}
	return out
}

// EpsFree converts the DFA into the epsilon-free NFA form the
// logical-topology construction consumes, trimming states that cannot
// reach an accepting state (the dead state of the completion). Function
// tags are absent — determinization discards them; callers recover tags
// against the original NFA with the tag-recovery simulation.
func (d *DFA) EpsFree() *EpsFree {
	// Co-reachability: which states reach an accepting state?
	rev := make([][]int, d.States)
	last := make([]int, d.States) // last[to] = 1 + the state last listed in rev[to]
	for q, row := range d.Trans {
		for _, to := range row {
			if last[to] != q+1 {
				last[to] = q + 1
				rev[to] = append(rev[to], q)
			}
		}
	}
	live := make([]bool, d.States)
	var stack []int
	for q, acc := range d.Accept {
		if acc {
			live[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	// Renumber live states (keep the start state even if dead so the
	// automaton stays well-formed for empty languages).
	id := make([]int, d.States)
	for i := range id {
		id[i] = -1
	}
	count := 0
	for q := 0; q < d.States; q++ {
		if live[q] || q == d.Start {
			id[q] = count
			count++
		}
	}
	kept := func(q int) bool { return id[q] >= 0 }
	scratch := make([]SymSet, d.States)
	ef := &EpsFree{
		Alphabet: d.Alphabet,
		States:   count,
		Start:    id[d.Start],
		Accept:   make([]bool, count),
		Out:      make([][]Edge, count),
	}
	for q := 0; q < d.States; q++ {
		if id[q] < 0 {
			continue
		}
		ef.Accept[id[q]] = d.Accept[q]
		for _, e := range groupRow(d.Trans[q], scratch, kept) {
			ef.Out[id[q]] = append(ef.Out[id[q]], Edge{From: id[q], Set: e.Set, To: id[e.To]})
		}
	}
	return ef
}

// HasTags reports whether the expression contains function groups whose
// placements must be recovered after routing.
func HasTags(e Expr) bool {
	switch x := e.(type) {
	case Group:
		return x.Tag != ""
	case Concat:
		return HasTags(x.L) || HasTags(x.R)
	case Alt:
		return HasTags(x.L) || HasTags(x.R)
	case Star:
		return HasTags(x.X)
	case Not:
		return HasTags(x.X)
	default:
		return false
	}
}

// Matches reports whether the sequence of location names is accepted.
func (d *DFA) Matches(path []string) bool {
	q := d.Start
	for _, name := range path {
		sym := d.Alphabet.Symbol(name)
		if sym < 0 {
			return false
		}
		q = d.Trans[q][sym]
	}
	return d.Accept[q]
}

// Options configure the inclusion decision procedure.
type Options struct {
	// Minimize runs Hopcroft minimization on both operands before the
	// product construction. Smaller products, but extra up-front cost.
	Minimize bool
}

// Includes reports whether L(a) ⊆ L(b), given two expressions over a shared
// location vocabulary. This is the verification primitive negotiators use
// to check that a refined path constraint stays within the original (§4.2).
// The optional witness names a path in L(a)\L(b) when inclusion fails.
func Includes(a, b Expr, opts Options) (bool, []string, error) {
	alpha := NewAlphabet(nil)
	for _, s := range Symbols(a) {
		alpha.Intern(s)
	}
	for _, s := range Symbols(b) {
		alpha.Intern(s)
	}
	// A fresh symbol stands in for "every location neither side mentions":
	// "." must be able to match locations outside both vocabularies, or
	// inclusions like "log ⊆ .*" would hold vacuously for the wrong reason
	// while ". ⊆ log|dpi" would wrongly hold.
	alpha.Intern("\x00other")
	na, err := Compile(a, alpha)
	if err != nil {
		return false, nil, err
	}
	nb, err := Compile(b, alpha)
	if err != nil {
		return false, nil, err
	}
	da, db := na.Determinize(), nb.Determinize()
	if opts.Minimize {
		da, db = da.Minimize(), db.Minimize()
	}
	diff := da.Intersect(db.Complement())
	if diff.Empty() {
		return true, nil, nil
	}
	return false, diff.Witness(), nil
}

// Equivalent reports whether the two expressions denote the same language.
func Equivalent(a, b Expr) (bool, error) {
	ab, _, err := Includes(a, b, Options{})
	if err != nil || !ab {
		return false, err
	}
	ba, _, err := Includes(b, a, Options{})
	return ab && ba, err
}

// EmptyLanguage reports whether e denotes the empty language over the
// vocabulary it mentions (plus the implicit "other" symbol).
func EmptyLanguage(e Expr) (bool, error) {
	alpha := NewAlphabet(Symbols(e))
	alpha.Intern("\x00other")
	n, err := Compile(e, alpha)
	if err != nil {
		return false, err
	}
	return n.Determinize().Empty(), nil
}
