// Package journal is the controller's durable memory: an append-only,
// CRC-framed record log with fsync-batched group commits, plus atomic
// point-in-time snapshots — the persistence substrate behind merlind's
// warm restarts. The package knows nothing about policies or topologies;
// records are opaque (kind, payload) pairs stamped with a monotonically
// increasing sequence number, and snapshots are opaque payloads tagged
// with the sequence they cover. Layering the compiler's record codec on
// top lives in the root package (merlin.ApplyJournalRecord).
//
// Durability contract: Append returns only after the record (and, by
// write order, every record sequenced before it) has been fsynced to the
// log — the caller may acknowledge the operation to its client. A crash
// can lose operations that were applied but not yet acknowledged (the
// client retries), and can leave a torn final record from a commit that
// never completed; recovery truncates the torn tail, so the recovered
// log is exactly the acknowledged prefix (plus, possibly, fully-written
// records whose fsync raced the crash — never a partial record).
//
// Group commit: concurrent Appends are drained into one buffered write
// and one fsync by a single committer goroutine, so the fsync cost
// amortizes across the batch — the classic group-commit trade
// (throughput scales with concurrency, latency stays one disk flush).
// Stats reports the records-per-fsync ratio the batching achieved.
//
// On-disk layout, one directory per store:
//
//	wal-<firstSeq>.log   record segments, rotated at snapshots
//	snap-<seq>.snap      snapshot payloads, atomically written
//
// Every record and snapshot is framed identically:
//
//	[4B LE body length][4B CRC32-C of body][body]
//	body = [8B LE seq][1B kind][payload]
//
// Recovery loads the newest snapshot whose frame validates (a torn
// snapshot falls back to the previous one), then replays every record
// with seq beyond it, truncating a torn tail in the final segment.
// Corruption anywhere other than the final segment's tail is reported as
// an error rather than repaired: it means history already acknowledged
// was lost, and silently dropping it would be worse than refusing to
// start.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	headerSize = 8        // 4B length + 4B crc
	bodyMeta   = 9        // 8B seq + 1B kind
	maxRecord  = 64 << 20 // guards recovery against garbage record lengths
	maxBatch   = 4096     // bounds the records drained into one group commit
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Params tune a Store.
type Params struct {
	// NoSync skips fsync entirely. Tests only: a crash loses
	// acknowledged records.
	NoSync bool
}

// Record is one recovered journal entry.
type Record struct {
	Seq  uint64
	Kind byte
	Data []byte
}

// Recovery is what Open found on disk: the newest valid snapshot (nil
// payload if none) and every durable record sequenced after it, in order.
type Recovery struct {
	// SnapshotSeq is the sequence the snapshot covers; 0 with no snapshot.
	SnapshotSeq uint64
	// Snapshot is the snapshot payload, nil if none was recovered.
	Snapshot []byte
	// Records are the records with Seq > SnapshotSeq, in sequence order.
	Records []Record
	// TornBytes counts bytes truncated from the final segment's tail — a
	// record a crash left half-written. 0 on a clean log.
	TornBytes int64
}

// Stats is a snapshot of the store's commit counters.
type Stats struct {
	// Appends counts records durably appended; Commits counts the fsync
	// batches that carried them. Appends/Commits is the group-commit
	// amortization ratio.
	Appends uint64
	Commits uint64
}

type appendReq struct {
	seq  uint64
	kind byte
	data []byte
	done chan error
}

// Store is an open journal directory. Methods are safe for concurrent
// use.
type Store struct {
	dir    string
	params Params

	mu      sync.Mutex
	f       *os.File
	nextSeq uint64
	snapSeq uint64
	queue   []appendReq
	closed  bool
	stats   Stats

	kick chan struct{}
	done chan struct{}
}

// Open opens (or creates) the store directory, recovers its durable
// state, and readies it for appends. The returned Recovery holds the
// newest valid snapshot and the record tail to replay after it.
func Open(dir string, params Params) (*Store, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, lastSeq, activePath, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:     dir,
		params:  params,
		nextSeq: lastSeq + 1,
		snapSeq: rec.SnapshotSeq,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if activePath == "" {
		activePath = filepath.Join(dir, segmentName(s.nextSeq))
	}
	f, err := os.OpenFile(activePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s.f = f
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	go s.committer()
	return s, rec, nil
}

// Append durably appends one record and returns its sequence number. It
// returns only after the record is fsynced (see the package durability
// contract); concurrent Appends are group-committed.
func (s *Store) Append(kind byte, data []byte) (uint64, error) {
	seq, done, err := s.AppendAsync(kind, data)
	if err != nil {
		return 0, err
	}
	return seq, <-done
}

// AppendAsync stages one record for the next group commit and returns
// its assigned sequence number immediately; the channel delivers the
// commit outcome. Sequence numbers are assigned in call order, so a
// single-threaded caller that must keep its journal order equal to its
// apply order can stage records inline and wait for durability later
// (merlind's apply loop does exactly this).
func (s *Store) AppendAsync(kind byte, data []byte) (uint64, <-chan error, error) {
	if len(data) > maxRecord-bodyMeta {
		return 0, nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(data), maxRecord-bodyMeta)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("journal: store is closed")
	}
	seq := s.nextSeq
	s.nextSeq++
	done := make(chan error, 1)
	s.queue = append(s.queue, appendReq{seq: seq, kind: kind, data: data, done: done})
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return seq, done, nil
}

// committer drains staged appends into one write + one fsync per batch.
func (s *Store) committer() {
	defer close(s.done)
	for {
		<-s.kick
		for {
			s.mu.Lock()
			if len(s.queue) == 0 {
				closed := s.closed
				s.mu.Unlock()
				if closed {
					return
				}
				break
			}
			n := len(s.queue)
			if n > maxBatch {
				n = maxBatch
			}
			batch := s.queue[:n:n]
			s.queue = append([]appendReq(nil), s.queue[n:]...)
			err := s.writeLocked(batch)
			s.mu.Unlock()
			for _, r := range batch {
				r.done <- err
			}
		}
	}
}

// writeLocked frames and writes a batch (sequences assigned at stage
// time), then fsyncs once. Callers hold s.mu.
func (s *Store) writeLocked(batch []appendReq) error {
	var buf []byte
	for _, r := range batch {
		buf = appendFrame(buf, r.seq, r.kind, r.data)
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if !s.params.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	s.stats.Appends += uint64(len(batch))
	s.stats.Commits++
	return nil
}

// Snapshot atomically persists a snapshot payload covering every record
// with sequence ≤ seq, rotates the live segment, and prunes segments the
// snapshot fully covers. After a successful Snapshot, recovery starts
// from this payload and replays only records sequenced after seq.
func (s *Store) Snapshot(seq uint64, payload []byte) error {
	if len(payload) > maxRecord-bodyMeta {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds the %d-byte limit", len(payload), maxRecord-bodyMeta)
	}
	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendFrame(nil, seq, 0, payload)); err != nil {
		f.Close()
		return err
	}
	if !s.params.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapshotName(seq))
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("journal: store is closed")
	}
	if seq > s.snapSeq {
		s.snapSeq = seq
	}
	// Rotate: start a fresh segment at the next sequence so prior
	// segments become immutable and prunable.
	if err := s.f.Close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(filepath.Join(s.dir, segmentName(s.nextSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = nf
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.pruneLocked()
	return nil
}

// pruneLocked removes segments whose every record the latest snapshot
// covers, and snapshots older than the latest. A segment is covered when
// the next segment starts at or before snapSeq+1 — every record in it is
// then ≤ snapSeq. Callers hold s.mu.
func (s *Store) pruneLocked() {
	segs, snaps, _ := listStore(s.dir)
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= s.snapSeq+1 {
			os.Remove(segs[i].path)
		}
	}
	for _, sn := range snaps {
		if sn.seq < s.snapSeq {
			os.Remove(sn.path)
		}
	}
	syncDir(s.dir)
}

// LastSeq returns the highest assigned sequence number.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// Stats returns the commit counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes staged appends and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, seq uint64, kind byte, data []byte) []byte {
	body := make([]byte, bodyMeta+len(data))
	binary.LittleEndian.PutUint64(body, seq)
	body[8] = kind
	copy(body[bodyMeta:], data)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// scanSegment reads every valid record frame from a segment. It returns
// the records, the offset of the first invalid byte (== file size on a
// clean segment), and whether the scan stopped early on a bad frame.
func scanSegment(path string) (recs []Record, validEnd int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	off := int64(0)
	for int64(len(data))-off >= headerSize {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < bodyMeta || n > maxRecord || off+headerSize+n > int64(len(data)) {
			return recs, off, true, nil
		}
		body := data[off+headerSize : off+headerSize+n]
		if crc32.Checksum(body, crcTable) != crc {
			return recs, off, true, nil
		}
		recs = append(recs, Record{
			Seq:  binary.LittleEndian.Uint64(body[0:8]),
			Kind: body[8],
			Data: append([]byte(nil), body[bodyMeta:]...),
		})
		off += headerSize + n
	}
	return recs, off, off != int64(len(data)), nil
}

type storeFile struct {
	seq  uint64
	path string
}

// listStore enumerates segments and snapshots, each sorted by sequence.
func listStore(dir string) (segs, snaps []storeFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, err := strconv.ParseUint(name[4:len(name)-4], 16, 64); err == nil {
				segs = append(segs, storeFile{seq, filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if seq, err := strconv.ParseUint(name[5:len(name)-5], 16, 64); err == nil {
				snaps = append(snaps, storeFile{seq, filepath.Join(dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return segs, snaps, nil
}

// recoverDir loads the newest valid snapshot and the record tail after it.
func recoverDir(dir string) (*Recovery, uint64, string, error) {
	segs, snaps, err := listStore(dir)
	if err != nil {
		return nil, 0, "", err
	}
	rec := &Recovery{}
	// Newest snapshot whose frame validates wins; torn or corrupt
	// snapshots (a crash mid-Snapshot before the rename was durable can
	// leave one) fall back to the previous.
	for i := len(snaps) - 1; i >= 0; i-- {
		frames, _, torn, err := scanSegment(snaps[i].path)
		if err != nil {
			return nil, 0, "", err
		}
		if torn || len(frames) != 1 || frames[0].Seq != snaps[i].seq {
			continue
		}
		rec.SnapshotSeq = frames[0].Seq
		rec.Snapshot = frames[0].Data
		break
	}
	lastSeq := rec.SnapshotSeq
	for i, seg := range segs {
		recs, validEnd, torn, err := scanSegment(seg.path)
		if err != nil {
			return nil, 0, "", err
		}
		if torn {
			if i != len(segs)-1 {
				return nil, 0, "", fmt.Errorf("journal: segment %s is corrupt mid-log (acknowledged history lost)", seg.path)
			}
			// Torn tail of the final segment: a half-written record from
			// the commit the crash interrupted. Truncate so appends
			// resume at a clean frame boundary.
			info, err := os.Stat(seg.path)
			if err != nil {
				return nil, 0, "", err
			}
			rec.TornBytes = info.Size() - validEnd
			if err := os.Truncate(seg.path, validEnd); err != nil {
				return nil, 0, "", err
			}
		}
		for _, r := range recs {
			if r.Seq <= rec.SnapshotSeq {
				continue
			}
			if r.Seq != lastSeq+1 {
				return nil, 0, "", fmt.Errorf("journal: sequence gap: record %d follows %d in %s", r.Seq, lastSeq, seg.path)
			}
			lastSeq = r.Seq
			rec.Records = append(rec.Records, r)
		}
	}
	active := ""
	if len(segs) > 0 {
		active = segs[len(segs)-1].path
	}
	return rec, lastSeq, active, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }
