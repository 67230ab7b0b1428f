package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reopen closes nothing — it opens dir fresh and fails the test on error.
func reopen(t *testing.T, dir string, p Params) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func mustAppend(t *testing.T, s *Store, kind byte, data []byte) uint64 {
	t.Helper()
	seq, err := s.Append(kind, data)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := reopen(t, dir, Params{})
	if rec.Snapshot != nil || rec.SnapshotSeq != 0 || len(rec.Records) != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh store recovered non-empty state: %+v", rec)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("payload-%d", i))
		if i%5 == 0 {
			data = nil // empty payloads must round-trip too
		}
		seq := mustAppend(t, s, byte(1+i%3), data)
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d, want %d", i, seq, i+1)
		}
		want = append(want, Record{Seq: seq, Kind: byte(1 + i%3), Data: data})
	}
	if got := s.LastSeq(); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := reopen(t, dir, Params{})
	defer s2.Close()
	if rec2.TornBytes != 0 {
		t.Fatalf("clean log recovered TornBytes = %d", rec2.TornBytes)
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if r.Seq != want[i].Seq || r.Kind != want[i].Kind || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	// Appends resume after the recovered tail.
	if seq := mustAppend(t, s2, 9, []byte("after")); seq != 21 {
		t.Fatalf("post-recovery append assigned seq %d, want 21", seq)
	}
}

func TestGroupCommitAmortizes(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	defer s.Close()

	// Stage a burst from one goroutine, then wait: while the committer is
	// inside its first fsync the rest of the burst queues up, so later
	// batches must carry many records each.
	const n = 500
	waits := make([]<-chan error, 0, n)
	for i := 0; i < n; i++ {
		_, done, err := s.AppendAsync(1, []byte("burst"))
		if err != nil {
			t.Fatalf("AppendAsync: %v", err)
		}
		waits = append(waits, done)
	}
	for i, done := range waits {
		if err := <-done; err != nil {
			t.Fatalf("append %d commit: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Appends != n {
		t.Fatalf("Stats.Appends = %d, want %d", st.Appends, n)
	}
	if st.Commits == 0 || st.Commits >= n/2 {
		t.Fatalf("group commit did not amortize: %d commits for %d appends", st.Commits, n)
	}

	// Concurrent appenders: every append durable, sequences dense.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Append(2, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("concurrent Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := reopen(t, dir, Params{})
	if len(rec.Records) != n+400 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n+400)
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — sequence not dense", i, r.Seq)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	for i := 0; i < 5; i++ {
		mustAppend(t, s, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the final record: chop 3 bytes off the segment, as a crash
	// mid-write would.
	segs, _, err := listStore(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listStore: segs=%v err=%v", segs, err)
	}
	info, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, rec := reopen(t, dir, Params{})
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(rec.Records))
	}
	if rec.TornBytes == 0 {
		t.Fatalf("TornBytes = 0, want > 0")
	}
	// The torn record's sequence is reassigned — it was never acked.
	if seq := mustAppend(t, s2, 1, []byte("retry")); seq != 5 {
		t.Fatalf("post-truncation append assigned seq %d, want 5", seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := reopen(t, dir, Params{})
	if rec2.TornBytes != 0 {
		t.Fatalf("second recovery still torn: %d bytes", rec2.TornBytes)
	}
	if len(rec2.Records) != 5 || string(rec2.Records[4].Data) != "retry" {
		t.Fatalf("recovered records after retry = %v", rec2.Records)
	}
}

func TestSnapshotRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	for i := 1; i <= 10; i++ {
		mustAppend(t, s, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := s.Snapshot(5, []byte("state@5")); err != nil {
		t.Fatalf("Snapshot(5): %v", err)
	}
	// Records 6–10 live before the rotation point, so the old segment
	// must survive the snapshot.
	segs, snaps, _ := listStore(dir)
	if len(segs) != 2 || len(snaps) != 1 {
		t.Fatalf("after Snapshot(5): %d segments, %d snapshots; want 2, 1", len(segs), len(snaps))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := reopen(t, dir, Params{})
	if rec.SnapshotSeq != 5 || string(rec.Snapshot) != "state@5" {
		t.Fatalf("recovered snapshot (%d, %q), want (5, state@5)", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 5 || rec.Records[0].Seq != 6 || rec.Records[4].Seq != 10 {
		t.Fatalf("recovered tail %v, want seqs 6..10", rec.Records)
	}

	// A snapshot covering the whole log prunes old segments and the old
	// snapshot.
	if err := s2.Snapshot(10, []byte("state@10")); err != nil {
		t.Fatalf("Snapshot(10): %v", err)
	}
	segs, snaps, _ = listStore(dir)
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after Snapshot(10): %d segments, %d snapshots; want 1, 1", len(segs), len(snaps))
	}
	if snaps[0].seq != 10 {
		t.Fatalf("surviving snapshot covers seq %d, want 10", snaps[0].seq)
	}
	if seq := mustAppend(t, s2, 1, []byte("rec-11")); seq != 11 {
		t.Fatalf("post-snapshot append assigned seq %d, want 11", seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := reopen(t, dir, Params{})
	if rec2.SnapshotSeq != 10 || len(rec2.Records) != 1 || rec2.Records[0].Seq != 11 {
		t.Fatalf("final recovery = snap %d + %d records, want snap 10 + [seq 11]", rec2.SnapshotSeq, len(rec2.Records))
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	for i := 1; i <= 6; i++ {
		mustAppend(t, s, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := s.Snapshot(3, []byte("state@3")); err != nil {
		t.Fatalf("Snapshot(3): %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-Snapshot can leave a newer snapshot file with a bad
	// frame; recovery must skip it and use the previous one.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(6)), []byte("garbage, not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := reopen(t, dir, Params{})
	if rec.SnapshotSeq != 3 || string(rec.Snapshot) != "state@3" {
		t.Fatalf("recovered snapshot (%d, %q), want fallback to (3, state@3)", rec.SnapshotSeq, rec.Snapshot)
	}
	if len(rec.Records) != 3 || rec.Records[0].Seq != 4 {
		t.Fatalf("recovered tail %v, want seqs 4..6", rec.Records)
	}
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	for i := 1; i <= 5; i++ {
		mustAppend(t, s, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	// Rotate so the first segment is no longer final.
	if err := s.Snapshot(2, []byte("state@2")); err != nil {
		t.Fatalf("Snapshot(2): %v", err)
	}
	for i := 6; i <= 8; i++ {
		mustAppend(t, s, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _, _ := listStore(dir)
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %d", len(segs))
	}
	// Flip a byte mid-way through the first (non-final) segment: that is
	// acknowledged history, so recovery must refuse rather than repair.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Params{}); err == nil {
		t.Fatalf("Open succeeded on mid-log corruption; want error")
	}
}

func TestSequenceGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = appendFrame(buf, 1, 1, []byte("one"))
	buf = appendFrame(buf, 3, 1, []byte("three")) // skipped seq 2
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Params{}); err == nil {
		t.Fatalf("Open succeeded on a sequence gap; want error")
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, Params{})
	mustAppend(t, s, 1, []byte("rec"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Append(1, []byte("late")); err == nil {
		t.Fatalf("Append on closed store succeeded")
	}
	if err := s.Snapshot(1, []byte("late")); err == nil {
		t.Fatalf("Snapshot on closed store succeeded")
	}
}
