package regex

import "sort"

// symbolClasses partitions an alphabet into classes of symbols that no
// automaton step can tell apart, so a construction steps once per class
// instead of once per symbol. Classes are numbered in ascending order of
// their least symbol, which is also the class representative: stepping the
// representatives in class order reaches successors in the same order as
// stepping every symbol in ascending order.
type symbolClasses struct {
	of   []int32 // of[sym] = class of sym
	reps []int   // reps[k] = least symbol of class k
}

// numberClasses renumbers raw class ids (below count) in ascending order of
// their least symbol.
func numberClasses(raw []int32, count int) symbolClasses {
	id := make([]int32, count)
	for i := range id {
		id[i] = -1
	}
	sc := symbolClasses{of: make([]int32, len(raw))}
	for s, c := range raw {
		if id[c] < 0 {
			id[c] = int32(len(sc.reps))
			sc.reps = append(sc.reps, s)
		}
		sc.of[s] = id[c]
	}
	return sc
}

// symbolClasses partitions the alphabet into classes of symbols that lie in
// exactly the same edge sets. Each edge set refines the partition: every
// class it cuts loses its members inside the set to a fresh class.
func (n *NFA) symbolClasses() symbolClasses {
	raw := make([]int32, n.Alphabet.Size())
	members := []int{len(raw)} // members[c] = symbols in raw class c
	hits := []int{0}           // hits[c] = symbols of c in the current set
	moveTo := []int32{0}       // moveTo[c] = where c's symbols in the set go
	var touched []int32
	for _, e := range n.Edges {
		touched = touched[:0]
		e.Set.each(func(s int) {
			c := raw[s]
			if hits[c] == 0 {
				touched = append(touched, c)
			}
			hits[c]++
		})
		for _, c := range touched {
			moveTo[c] = c
			if hits[c] < members[c] {
				moveTo[c] = int32(len(members))
				members = append(members, 0)
				hits = append(hits, 0)
				moveTo = append(moveTo, 0)
			}
		}
		e.Set.each(func(s int) {
			c := raw[s]
			if to := moveTo[c]; to != c {
				raw[s] = to
				members[c]--
				members[to]++
			}
		})
		for _, c := range touched {
			hits[c] = 0
		}
	}
	return numberClasses(raw, len(members))
}

// columnClasses partitions the alphabet into classes of symbols whose
// columns agree in every table: no row of any table tells two symbols of
// one class apart. Columns are grouped by a hash and compared exactly.
func columnClasses(size int, tables ...[][]int) symbolClasses {
	hash := make([]uint64, size)
	for _, tab := range tables {
		for _, row := range tab {
			for s, to := range row {
				hash[s] = (hash[s] ^ uint64(to)) * 0x100000001b3
			}
		}
	}
	sameColumn := func(a, b int) bool {
		for _, tab := range tables {
			for _, row := range tab {
				if row[a] != row[b] {
					return false
				}
			}
		}
		return true
	}
	sc := symbolClasses{of: make([]int32, size)}
	byHash := make(map[uint64][]int32)
	for s := 0; s < size; s++ {
		k := int32(-1)
		for _, c := range byHash[hash[s]] {
			if sameColumn(sc.reps[c], s) {
				k = c
				break
			}
		}
		if k < 0 {
			k = int32(len(sc.reps))
			sc.reps = append(sc.reps, s)
			byHash[hash[s]] = append(byHash[hash[s]], k)
		}
		sc.of[s] = k
	}
	return sc
}

// fill sets row[s] to target[class of s] for every symbol.
func (sc symbolClasses) fill(row, target []int) {
	for s, k := range sc.of {
		row[s] = target[k]
	}
}

// groupRow splits a DFA row's symbols by target state, returning one edge
// (From unset) per target in ascending target order, labeled with the
// symbols leading there; targets keep rejects are skipped (keep may be
// nil). scratch is indexed by state and all nil; groupRow leaves it so.
func groupRow(row []int, scratch []SymSet, keep func(to int) bool) []Edge {
	var out []Edge
	for sym, to := range row {
		if keep != nil && !keep(to) {
			continue
		}
		if scratch[to] == nil {
			scratch[to] = NewSymSet(len(row))
			out = append(out, Edge{To: to})
		}
		scratch[to].Add(sym)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	for i := range out {
		out[i].Set = scratch[out[i].To]
		scratch[out[i].To] = nil
	}
	return out
}
