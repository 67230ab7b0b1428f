package codegen

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// resumeStats counts what the resume checks exercised.
type resumeStats struct {
	// restored counts rollbacks that restored ops an undone retag had
	// rewritten on a kept rule; rewritten, resumed suffixes whose retags
	// rewrote a kept rule; queuesMoved, resumes that re-reserved a kept
	// rule's queue.
	restored, rewritten, queuesMoved int
}

// inLowerOrder returns plans sorted the way Lower visits them.
func inLowerOrder(plans []Plan) []Plan {
	out := slices.Clone(plans)
	slices.SortStableFunc(out, func(a, b Plan) int { return cmp.Compare(b.Priority, a.Priority) })
	return out
}

// ratesOf returns the guaranteed rates Lower reserves plans' queues at.
func ratesOf(plans []Plan) map[string]float64 {
	rates := map[string]float64{}
	for _, p := range plans {
		if p.Path != nil {
			rates[p.ID] = p.Alloc.Min
		}
	}
	return rates
}

// checkResume resumes l, whose last list is last and was handed out as
// prev, past its first keep plans with suffix, and holds the result to a
// cold Lower of the whole list: deeply equal, prev unwritten, the kept
// rules not reported moved sharing prev's op slices, and prev's OpenFlow
// artifact patched to the Emit of the result. It returns the whole list
// and its Program, nil when lowering it fails.
func checkResume(t *testing.T, name string, tp *topo.Topology, l *Lowering, last []Plan, prev *Program, keep int, suffix []Plan, st *resumeStats) ([]Plan, *Program) {
	t.Helper()
	whole := append(slices.Clone(last[:keep]), suffix...)
	want, werr := Lower(tp, whole)
	var before *Program
	if prev != nil {
		before = cloneProgram(prev)
	}
	if keep < l.Len() {
		cp := l.g.checkpoints[keep]
		for _, e := range l.g.edits[cp.edits:] {
			if e.rule >= 0 && e.rule < cp.rules {
				st.restored++
				break
			}
		}
	}
	got, kept, moved, gerr := l.Resume(prev, keep, slices.Clone(suffix), ratesOf(whole))
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: resumed at %d of %d plans: error %v, cold Lower %v", name, keep, len(last), gerr, werr)
	}
	if gerr != nil {
		return nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got.Rules), len(want.Rules)) {
			if !reflect.DeepEqual(got.Rules[i], want.Rules[i]) {
				t.Errorf("rule %d: resumed %v, cold %v", i, got.Rules[i], want.Rules[i])
				break
			}
		}
		t.Fatalf("%s: resumed at %d of %d plans with %d more: %d rules, %d queues, %d functions, tags equal %v; cold Lower %d, %d, %d",
			name, keep, len(last), len(suffix), len(got.Rules), len(got.Queues), len(got.Fns), reflect.DeepEqual(got.Tags, want.Tags),
			len(want.Rules), len(want.Queues), len(want.Fns))
	}
	if prev == nil {
		return whole, got
	}
	if !reflect.DeepEqual(prev, before) {
		t.Fatalf("%s: resuming at %d wrote the previous Program", name, keep)
	}
	if keep < l.Len() {
		cp := l.g.checkpoints[keep]
		for _, e := range l.g.edits[cp.edits:] {
			if e.rule >= 0 && e.rule < int32(kept) {
				st.rewritten++
				break
			}
		}
	}
	if !slices.IsSorted(moved) || len(moved) > 0 && moved[len(moved)-1] >= kept {
		t.Fatalf("%s: moved %v is not ascending below kept %d", name, moved, kept)
	}
	for i := range kept {
		if slices.Contains(moved, i) {
			if !slices.Equal(got.Rules[i].Ops, prev.Rules[i].Ops) {
				continue
			}
			if len(got.Rules[i].Ops) > 0 && &got.Rules[i].Ops[0] == &prev.Rules[i].Ops[0] {
				t.Fatalf("%s: rule %d is reported moved but shares prev's ops", name, i)
			}
			continue
		}
		r, p := got.Rules[i], prev.Rules[i]
		if !reflect.DeepEqual(r, p) || len(r.Ops) > 0 && &r.Ops[0] != &p.Ops[0] {
			t.Fatalf("%s: kept rule %d is not reported moved but is not prev's: %v vs %v", name, i, r, p)
		}
	}
	for _, i := range moved {
		if !slices.Equal(got.Rules[i].Ops, prev.Rules[i].Ops) && got.Rules[i].Match == prev.Rules[i].Match &&
			slices.EqualFunc(got.Rules[i].Ops, prev.Rules[i].Ops, func(a, b Op) bool { a.Queue, b.Queue = 0, 0; return a == b }) {
			st.queuesMoved++
			break
		}
	}
	b, _ := Lookup(TargetOpenFlow)
	prevArt, _ := b.Emit(tp, prev)
	wantArt, _ := b.Emit(tp, got)
	if patched := PatchOpenFlow(prevArt.(*OpenFlowArtifact), got, kept, moved); !reflect.DeepEqual(patched, wantArt) {
		t.Fatalf("%s: the patched OpenFlow artifact differs from Emit's", name)
	}
	return whole, got
}

// resumeRounds lowers plans from a fresh Lowering, then resumes it
// rounds times, each at a random cut of the last list with a random
// suffix drawn by next and the guaranteed rates redrawn.
func resumeRounds(t *testing.T, name string, pg *planGen, rng *rand.Rand, rounds int, st *resumeStats) {
	l := NewLowering(pg.tp)
	last := inLowerOrder(pg.plans())
	last, prev := checkResume(t, name, pg.tp, l, nil, nil, 0, last, st)
	for round := 0; round < rounds && prev != nil; round++ {
		keep := rng.Intn(len(last) + 1)
		suffix := inLowerOrder(pg.plans())
		for i := range suffix {
			// Priorities must not rise past the kept plans'; a suffix
			// statement takes a fresh ID half the time.
			if keep > 0 {
				suffix[i].Priority = min(suffix[i].Priority, last[keep-1].Priority)
			}
			if round%2 == 0 {
				suffix[i].ID = fmt.Sprintf("r%d.%s", round, suffix[i].ID)
			}
		}
		whole := append(slices.Clone(last[:keep]), suffix...)
		for i := range whole {
			if whole[i].Path != nil && rng.Intn(2) == 0 {
				whole[i].Alloc.Min = pg.rate()
			}
		}
		last, prev = checkResume(t, fmt.Sprintf("%s round %d", name, round), pg.tp, l, whole, prev, keep, whole[keep:], st)
	}
}

// TestLowerResumeMatchesCold holds Lowering.Resume to a cold Lower: plan
// lists drawn by randomPlanGen are lowered, then cut at random points
// and resumed with random suffixes and redrawn guaranteed rates, and
// TestLowerCutOffStopsAfterRetag's lists are cut at every point and
// resumed with their own tails, whose retags rewrite kept rules. Every
// resumed Program must deeply equal the cold one and leave the previous
// one as it was.
func TestLowerResumeMatchesCold(t *testing.T) {
	var st resumeStats
	for seed := 1; seed <= randomSeeds(); seed++ {
		if pg := randomPlanGen(t, seed); pg != nil {
			resumeRounds(t, fmt.Sprintf("seed %d", seed), pg, rand.New(rand.NewSource(int64(seed))), 4, &st)
		}
	}
	tp, lists := cutOffRetagLists(t)
	for _, plans := range lists {
		for keep := 0; keep <= len(plans); keep++ {
			l := NewLowering(tp)
			name := fmt.Sprintf("sources %v", srcHosts(plans))
			last, prev := checkResume(t, name, tp, l, nil, nil, 0, plans, &st)
			if prev != nil {
				checkResume(t, fmt.Sprintf("%s at %d", name, keep), tp, l, last, prev, keep, plans[keep:], &st)
			}
		}
	}
	if st.restored == 0 || st.rewritten == 0 || st.queuesMoved == 0 {
		t.Fatalf("resumes restored rewritten rules %d times, rewrote kept rules %d times, moved kept queues %d times; want each > 0",
			st.restored, st.rewritten, st.queuesMoved)
	}
	t.Logf("%+v", st)
}

// FuzzLowerResume is TestLowerResumeMatchesCold's random half as a fuzz
// target: the seed draws the topology and the plan lists, cut the cuts.
// Topologies over 64 hosts are passed over: their all-pairs plan lists
// (up to ≈ 15k plans) take seconds per input.
func FuzzLowerResume(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, cut uint64) {
		if pg := randomPlanGen(t, 1+int(uint64(seed)%1000)); pg != nil && len(pg.tp.Hosts()) <= 64 {
			resumeRounds(t, fmt.Sprintf("seed %d cut %d", seed, cut), pg, rand.New(rand.NewSource(int64(cut))), 3, &resumeStats{})
		}
	})
}

// BenchmarkResume times a resume that keeps the first keep% of a plan
// list and lowers the rest, rolling back what it does not keep, against
// keep=0%, which empties the state and lowers the whole list. The list
// is 16 statements of 8 destinations each on fattree-k8, every source
// to each (16,256 plans). A resume costs less than starting over when
// undoing a plan costs less than lowering one: compare keep=1% with
// keep=0%.
func BenchmarkResume(b *testing.B) {
	tp := topo.FatTree(8, topo.Gbps)
	hosts := tp.Hosts()
	trees, _, err := sinktree.BuildTrees(graphFor(b, tp, ".*", nil), hosts, false)
	if err != nil {
		b.Fatal(err)
	}
	var plans []Plan
	for s := 0; s < 16; s++ {
		for _, dst := range hosts[s*8 : s*8+8] {
			for _, src := range hosts {
				if src != dst {
					plans = append(plans, Plan{ID: fmt.Sprintf("s%d", s), Predicate: pred.TruePred{}, Priority: 100 - s,
						Alloc: policy.Unconstrained, Classify: ByDestination, SrcHost: src, DstHost: dst, Tree: trees[dst]})
				}
			}
		}
	}
	for _, pct := range []int{0, 1, 10, 50, 90} {
		keep := len(plans) * pct / 100
		b.Run(fmt.Sprintf("keep=%d%%", pct), func(b *testing.B) {
			l := NewLowering(tp)
			prev, _, _, err := l.Resume(nil, 0, plans, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if prev, _, _, err = l.Resume(prev, keep, plans[keep:], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
