package storage

import (
	"bytes"
	"fmt"
	"path"
	"strings"
	"testing"
)

// Unit tests for the shared-log multiplexer: stream isolation, reopen demux,
// truncation floors, deferred barriers, and torn-tail recovery. They run on
// the crashFS vfs so durability (what a power loss keeps) is modeled exactly.

// openLogAt opens a group's physical log alone in dir (a fresh one holds 8
// buckets), serially.
func openLogAt(fsys vfs, dir string, opts diskOpts) (*diskLog, error) {
	if err := prepareShardDir(fsys, dir); err != nil {
		return nil, err
	}
	nb, trunc, err := openMeta(fsys, dir, 8)
	if err != nil {
		return nil, err
	}
	opts.workers = max(opts.workers, 1)
	return openDiskLog(fsys, dir, nb, trunc, opts, nil)
}

func openTestLog(t *testing.T, fsys vfs, dir string, opts diskOpts) *diskLog {
	t.Helper()
	l, err := openLogAt(fsys, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logAppend appends rec to stream 0 of l and stands on its barrier.
func logAppend(t *testing.T, l *diskLog, rec string) uint64 {
	t.Helper()
	res, err := l.appendRecord(0, []byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	must(t, l.barrier(res.seq))
	return res.seq
}

// logRecords returns the bodies of l's records from sequence from on.
func logRecords(t *testing.T, l *diskLog, from uint64) []string {
	t.Helper()
	var out []string
	must(t, l.scan(from, func(_, _ uint64, _ int64, rec []byte) error {
		_, body, err := splitSharedRecord(rec)
		out = append(out, string(body))
		return err
	}))
	return out
}

func openSharedOwner(t *testing.T, fsys vfs, dir string, streams int) (*diskLog, *SharedLog) {
	t.Helper()
	owner := openTestLog(t, fsys, dir, diskOpts{})
	s, err := newSharedLog(owner, streams, nil)
	if err != nil {
		owner.Close()
		t.Fatal(err)
	}
	return owner, s
}

func scanStrings(t *testing.T, v *LogView, from uint64) []string {
	t.Helper()
	recs, err := v.Scan(from)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func wantStrings(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSharedLogStreamIsolation(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 3)
	defer owner.Close()

	// Interleave appends across streams; each stream must see only its own
	// records, densely numbered from 1.
	views := []*LogView{s.View(0), s.View(1), s.View(2)}
	for round := 1; round <= 4; round++ {
		for i, v := range views {
			seq, err := v.Append([]byte(fmt.Sprintf("s%d-r%d", i, round)))
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(round) {
				t.Fatalf("stream %d round %d seq = %d, want %d", i, round, seq, round)
			}
		}
	}
	for i, v := range views {
		wantStrings(t, scanStrings(t, v, 0),
			fmt.Sprintf("s%d-r1", i), fmt.Sprintf("s%d-r2", i),
			fmt.Sprintf("s%d-r3", i), fmt.Sprintf("s%d-r4", i))
		wantStrings(t, scanStrings(t, v, 3), fmt.Sprintf("s%d-r3", i), fmt.Sprintf("s%d-r4", i))
		last, err := v.LastSeq()
		if err != nil {
			t.Fatal(err)
		}
		if last != 4 {
			t.Fatalf("stream %d LastSeq = %d, want 4", i, last)
		}
	}
}

func TestSharedLogReopenRebuildsStreams(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 2)
	if _, err := s.View(0).Append([]byte("a0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(1).Append([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(0).Append([]byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}

	owner, s = openSharedOwner(t, fsys, "data", 2)
	defer owner.Close()
	wantStrings(t, scanStrings(t, s.View(0), 0), "a0", "a1")
	wantStrings(t, scanStrings(t, s.View(1), 0), "b0")
	// Sequence numbers restart dense from the surviving count (the WAL layer
	// persists none, so renumbering is invisible to every consumer).
	seq, err := s.View(1).Append([]byte("b1"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("stream 1 post-reopen seq = %d, want 2", seq)
	}
	wantStrings(t, scanStrings(t, s.View(1), 0), "b0", "b1")
}

func TestSharedLogTruncateIsolatesStreams(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 2)
	defer owner.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.View(0).Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.View(1).Append([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Stream 0 drops its first two records; stream 1 must be untouched even
	// though its records interleave physically with the dropped ones.
	if err := s.View(0).Truncate(3); err != nil {
		t.Fatal(err)
	}
	wantStrings(t, scanStrings(t, s.View(0), 0), "a2")
	wantStrings(t, scanStrings(t, s.View(1), 0), "b0", "b1", "b2")
	last, err := s.View(0).LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("stream 0 LastSeq after truncate = %d, want 3", last)
	}
	// Truncating the already-truncated prefix (or beyond the tail) is a
	// bounded no-op, not an error.
	if err := s.View(0).Truncate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.View(1).Truncate(99); err != nil {
		t.Fatal(err)
	}
	wantStrings(t, scanStrings(t, s.View(1), 0))
	wantStrings(t, scanStrings(t, s.View(0), 0), "a2")
}

// One SyncLog from ANY view must make every stream's deferred appends
// durable (they share a physical file); deferred appends never synced must
// vanish at a crash without tearing the surviving prefix.
func TestSharedLogDeferredBarrier(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 2)
	defer owner.Close()
	if _, err := s.View(0).Append([]byte("a-durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(0).AppendNoSync([]byte("a-deferred")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(1).AppendNoSync([]byte("b-deferred")); err != nil {
		t.Fatal(err)
	}
	// Before any SyncLog: a crash now must keep only the synced record.
	crash := fsys.snapshot()
	rOwner, rs := openSharedOwner(t, crash, "data", 2)
	wantStrings(t, scanStrings(t, rs.View(0), 0), "a-durable")
	wantStrings(t, scanStrings(t, rs.View(1), 0))
	rOwner.Close()

	// Stream 1's barrier covers stream 0's deferred record too.
	if err := s.View(1).SyncLog(); err != nil {
		t.Fatal(err)
	}
	crash = fsys.snapshot()
	rOwner, rs = openSharedOwner(t, crash, "data", 2)
	wantStrings(t, scanStrings(t, rs.View(0), 0), "a-durable", "a-deferred")
	wantStrings(t, scanStrings(t, rs.View(1), 0), "b-deferred")
	rOwner.Close()
}

// An Append's ack must cover the deferred appends before it in an older
// segment: a rotation does not flush the outgoing segment, and an open drops
// every segment after one whose tail tore, so a flush of the Append's own
// segment alone would ack a record that a crash then takes with it.
func TestSharedLogAppendCoversOlderSegments(t *testing.T) {
	fsys := newCrashFS(nil)
	owner := openTestLog(t, fsys, "data", diskOpts{DiskOptions: DiskOptions{SegMaxBytes: 128}})
	defer owner.Close()
	s, err := newSharedLog(owner, 2, nil)
	must(t, err)
	var deferred []string
	for len(owner.segs) < 2 {
		rec := fmt.Sprintf("deferred-%02d", len(deferred))
		if _, err := s.View(1).AppendNoSync([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		deferred = append(deferred, rec)
	}
	if _, err := s.View(0).Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	rOwner, rs := openSharedOwner(t, fsys.snapshot(), "data", 2)
	defer rOwner.Close()
	wantStrings(t, scanStrings(t, rs.View(0), 0), "acked")
	wantStrings(t, scanStrings(t, rs.View(1), 0), deferred...)
}

// A torn physical tail (power loss mid-write) must truncate to a prefix of
// EACH stream: the physical suffix that is lost is a suffix of every stream
// in append order.
func TestSharedLogTornTailRecoversStreamPrefixes(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 2)
	order := []struct {
		stream int
		rec    string
	}{{0, "a0"}, {1, "b0"}, {0, "a1"}, {1, "b1"}}
	for _, op := range order {
		if _, err := s.View(op.stream).Append([]byte(op.rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest segment: chop a few bytes off its tail, leaving the
	// final physical record (stream 1's "b1") half-written.
	fsys.mu.Lock()
	var segNode *crashNode
	var segPath string
	for name, n := range fsys.nodes {
		if strings.HasPrefix(path.Base(name), segPrefix) && name > segPath {
			segPath, segNode = name, n
		}
	}
	if segNode == nil {
		fsys.mu.Unlock()
		t.Fatal("no log segment found")
	}
	if len(segNode.data) < 3 {
		fsys.mu.Unlock()
		t.Fatalf("segment %s too short to tear (%d bytes)", segPath, len(segNode.data))
	}
	segNode.data = segNode.data[:len(segNode.data)-3]
	segNode.durable = segNode.durable[:len(segNode.durable)-3]
	fsys.mu.Unlock()

	owner, s = openSharedOwner(t, fsys, "data", 2)
	defer owner.Close()
	wantStrings(t, scanStrings(t, s.View(0), 0), "a0", "a1")
	wantStrings(t, scanStrings(t, s.View(1), 0), "b0")
	// The log stays appendable after truncating the torn record.
	seq, err := s.View(1).Append([]byte("b1-retry"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("stream 1 retry seq = %d, want 2", seq)
	}
}

// A physical log written in the old per-shard raw format (records with no
// stream header) must fail loudly at open — silently misparsing stream ids
// would corrupt recovery.
func TestSharedLogRejectsUnwrappedRecords(t *testing.T) {
	t.Run("short-record", func(t *testing.T) {
		owner := openTestLog(t, newCrashFS(nil), "data", diskOpts{})
		defer owner.Close()
		if _, err := owner.appendFramed(encodeRecord(nil, []byte("x"))); err != nil { // 1 byte < stream header
			t.Fatal(err)
		}
		if _, err := newSharedLog(owner, 2, nil); err == nil {
			t.Fatal("newSharedLog accepted a record shorter than its stream header")
		}
	})
	t.Run("stream-out-of-range", func(t *testing.T) {
		owner := openTestLog(t, newCrashFS(nil), "data", diskOpts{})
		defer owner.Close()
		// An old-format raw record: its first 4 bytes decode to a stream id
		// far beyond the opened stream count.
		if _, err := owner.appendFramed(encodeRecord(nil, []byte("epoch=7 commit"))); err != nil {
			t.Fatal(err)
		}
		if _, err := newSharedLog(owner, 2, nil); err == nil {
			t.Fatal("newSharedLog accepted a record for an out-of-range stream")
		}
	})
}

// The shared log's physical floor tracks the minimum across streams: one
// stream truncating everything must not strand another stream's records,
// and the truncated state must survive reopen.
func TestSharedLogTruncateThenReopen(t *testing.T) {
	fsys := newCrashFS(nil)
	owner, s := openSharedOwner(t, fsys, "data", 2)
	for i := 0; i < 4; i++ {
		if _, err := s.View(0).Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.View(1).Append([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := s.View(0).Truncate(5); err != nil { // drop all of stream 0
		t.Fatal(err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}

	owner, s = openSharedOwner(t, fsys, "data", 2)
	defer owner.Close()
	wantStrings(t, scanStrings(t, s.View(0), 0))
	wantStrings(t, scanStrings(t, s.View(1), 0), "b0")
	recs, err := s.View(1).Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("b0")) {
		t.Fatalf("stream 1 after reopen = %q", recs)
	}
}
