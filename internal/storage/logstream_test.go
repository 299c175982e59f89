package storage

import (
	"bytes"
	"fmt"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Unit tests for the log's streams: isolation, the open-time demux,
// truncation floors, deferred barriers, and torn-tail recovery, each driven
// through the LogHeap methods the proxy calls. They run on the crashFS
// vfs so durability (what a power loss keeps) is modeled exactly.

// openLogAt opens a group's physical log alone in dir (a fresh one holds 8
// buckets), serially, with one WAL stream.
func openLogAt(fsys vfs, dir string, opts diskOpts) (*diskLog, error) {
	if err := prepareShardDir(fsys, dir); err != nil {
		return nil, err
	}
	nb, trunc, err := openMeta(fsys, dir, 8)
	if err != nil {
		return nil, err
	}
	opts.workers = max(opts.workers, 1)
	l, err := openDiskLog(fsys, dir, nb, trunc, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := l.openStreams(1, nil); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func openTestLog(t *testing.T, fsys vfs, dir string, opts diskOpts) *diskLog {
	t.Helper()
	l, err := openLogAt(fsys, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logAppend appends rec to stream 0 of l and stands on its barrier,
// returning its physical sequence number.
func logAppend(t *testing.T, l *diskLog, rec string) uint64 {
	t.Helper()
	_, phys, err := l.appendStream(0, []byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	must(t, l.barrier(phys))
	return phys
}

// testFrame lays body out as a whole stream-record frame, the way a heap
// builds one for diskLog.appendFramed.
func testFrame(body string) []byte {
	return append(append(beginRecord(nil), make([]byte, streamHdrSize)...), body...)
}

// logRecords returns the bodies of l's records from physical sequence from
// on.
func logRecords(t *testing.T, l *diskLog, from uint64) []string {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []string
	must(t, l.scanLocked(from, func(_, _ uint64, _ int64, rec []byte) error {
		_, body, err := splitStreamRecord(rec)
		out = append(out, string(body))
		return err
	}))
	return out
}

// openStreamGroup opens an n-shard group in fsys's "data" dir (8 buckets,
// serial, no background maintenance; segMaxBytes 0 keeps the default) and
// returns it with its shards.
func openStreamGroup(t *testing.T, fsys vfs, n int, segMaxBytes int64) (*DiskGroup, []*LogHeap) {
	t.Helper()
	g, err := openDiskGroupOpts(fsys, "data", n, 8, diskOpts{workers: 1, segMaxBytes: segMaxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return g, g.shards
}

func scanStrings(t *testing.T, s *LogHeap, from uint64) []string {
	t.Helper()
	recs, err := s.Scan(from)
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
	g, shards := openStreamGroup(t, fsys, 3, 0)
	defer g.Close()

	// Interleave appends across streams; each stream must see only its own
	// records, densely numbered from 1.
	for round := 1; round <= 4; round++ {
		for i, v := range shards {
			seq, err := v.Append([]byte(fmt.Sprintf("s%d-r%d", i, round)))
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(round) {
				t.Fatalf("stream %d round %d seq = %d, want %d", i, round, seq, round)
			}
		}
	}
	for i, v := range shards {
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
	g, s := openStreamGroup(t, fsys, 2, 0)
	if _, err := s[0].Append([]byte("a0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s[1].Append([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s[0].Append([]byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g, s = openStreamGroup(t, fsys, 2, 0)
	defer g.Close()
	wantStrings(t, scanStrings(t, s[0], 0), "a0", "a1")
	wantStrings(t, scanStrings(t, s[1], 0), "b0")
	// Sequence numbers restart dense from the surviving count (the WAL layer
	// persists none, so renumbering is invisible to every consumer).
	seq, err := s[1].Append([]byte("b1"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("stream 1 post-reopen seq = %d, want 2", seq)
	}
	wantStrings(t, scanStrings(t, s[1], 0), "b0", "b1")
}

func TestSharedLogTruncateIsolatesStreams(t *testing.T) {
	fsys := newCrashFS(nil)
	g, s := openStreamGroup(t, fsys, 2, 0)
	defer g.Close()
	for i := 0; i < 3; i++ {
		if _, err := s[0].Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s[1].Append([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Stream 0 drops its first two records; stream 1 must be untouched even
	// though its records interleave physically with the dropped ones.
	if err := s[0].Truncate(3); err != nil {
		t.Fatal(err)
	}
	wantStrings(t, scanStrings(t, s[0], 0), "a2")
	wantStrings(t, scanStrings(t, s[1], 0), "b0", "b1", "b2")
	last, err := s[0].LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("stream 0 LastSeq after truncate = %d, want 3", last)
	}
	// Truncating the already-truncated prefix (or beyond the tail) is a
	// bounded no-op, not an error.
	if err := s[0].Truncate(1); err != nil {
		t.Fatal(err)
	}
	if err := s[1].Truncate(99); err != nil {
		t.Fatal(err)
	}
	wantStrings(t, scanStrings(t, s[1], 0))
	wantStrings(t, scanStrings(t, s[0], 0), "a2")
}

// One SyncLog from ANY shard must make every stream's deferred appends
// durable (they share a physical file); deferred appends never synced must
// vanish at a crash without tearing the surviving prefix.
func TestSharedLogDeferredBarrier(t *testing.T) {
	fsys := newCrashFS(nil)
	g, s := openStreamGroup(t, fsys, 2, 0)
	defer g.Close()
	if _, err := s[0].Append([]byte("a-durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := s[0].AppendNoSync([]byte("a-deferred")); err != nil {
		t.Fatal(err)
	}
	if _, err := s[1].AppendNoSync([]byte("b-deferred")); err != nil {
		t.Fatal(err)
	}
	// Before any SyncLog: a crash now must keep only the synced record.
	crash := fsys.snapshot()
	rg, rs := openStreamGroup(t, crash, 2, 0)
	wantStrings(t, scanStrings(t, rs[0], 0), "a-durable")
	wantStrings(t, scanStrings(t, rs[1], 0))
	rg.Close()

	// Stream 1's barrier covers stream 0's deferred record too.
	if err := s[1].SyncLog(); err != nil {
		t.Fatal(err)
	}
	crash = fsys.snapshot()
	rg, rs = openStreamGroup(t, crash, 2, 0)
	wantStrings(t, scanStrings(t, rs[0], 0), "a-durable", "a-deferred")
	wantStrings(t, scanStrings(t, rs[1], 0), "b-deferred")
	rg.Close()
}

// An Append's ack must cover the deferred appends before it in an older
// segment: a rotation does not flush the outgoing segment, and an open drops
// every segment after one whose tail tore, so a flush of the Append's own
// segment alone would ack a record that a crash then takes with it.
func TestSharedLogAppendCoversOlderSegments(t *testing.T) {
	fsys := newCrashFS(nil)
	g, s := openStreamGroup(t, fsys, 2, 128)
	defer g.Close()
	var deferred []string
	for len(g.log.segs) < 2 {
		rec := fmt.Sprintf("deferred-%02d", len(deferred))
		if _, err := s[1].AppendNoSync([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		deferred = append(deferred, rec)
	}
	if _, err := s[0].Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	rg, rs := openStreamGroup(t, fsys.snapshot(), 2, 0)
	defer rg.Close()
	wantStrings(t, scanStrings(t, rs[0], 0), "acked")
	wantStrings(t, scanStrings(t, rs[1], 0), deferred...)
}

// A torn physical tail (power loss mid-write) must truncate to a prefix of
// EACH stream: the physical suffix that is lost is a suffix of every stream
// in append order.
func TestSharedLogTornTailRecoversStreamPrefixes(t *testing.T) {
	fsys := newCrashFS(nil)
	g, s := openStreamGroup(t, fsys, 2, 0)
	order := []struct {
		stream int
		rec    string
	}{{0, "a0"}, {1, "b0"}, {0, "a1"}, {1, "b1"}}
	for _, op := range order {
		if _, err := s[op.stream].Append([]byte(op.rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
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

	g, s = openStreamGroup(t, fsys, 2, 0)
	defer g.Close()
	wantStrings(t, scanStrings(t, s[0], 0), "a0", "a1")
	wantStrings(t, scanStrings(t, s[1], 0), "b0")
	// The log stays appendable after truncating the torn record.
	seq, err := s[1].Append([]byte("b1-retry"))
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
	// appendRaw writes a frame as it is, with no stream id stamped into it.
	appendRaw := func(l *diskLog, frame []byte) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		_, err := l.appendFramedLocked(frame)
		return err
	}
	t.Run("short-record", func(t *testing.T) {
		l := openTestLog(t, newCrashFS(nil), "data", diskOpts{})
		defer l.Close()
		if err := appendRaw(l, encodeRecord(nil, []byte("x"))); err != nil { // 1 byte < stream header
			t.Fatal(err)
		}
		if err := l.openStreams(2, nil); err == nil {
			t.Fatal("the open accepted a record shorter than its stream header")
		}
	})
	t.Run("stream-out-of-range", func(t *testing.T) {
		l := openTestLog(t, newCrashFS(nil), "data", diskOpts{})
		defer l.Close()
		// An old-format raw record: its first 4 bytes decode to a stream id
		// far beyond the opened stream count.
		if err := appendRaw(l, encodeRecord(nil, []byte("epoch=7 commit"))); err != nil {
			t.Fatal(err)
		}
		if err := l.openStreams(2, nil); err == nil {
			t.Fatal("the open accepted a record for an out-of-range stream")
		}
	})
}

// The log's truncation point tracks the minimum across streams: one
// stream truncating everything must not strand another stream's records,
// and the truncated state must survive reopen.
func TestSharedLogTruncateThenReopen(t *testing.T) {
	fsys := newCrashFS(nil)
	g, s := openStreamGroup(t, fsys, 2, 0)
	for i := 0; i < 4; i++ {
		if _, err := s[0].Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s[1].Append([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := s[0].Truncate(5); err != nil { // drop all of stream 0
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g, s = openStreamGroup(t, fsys, 2, 0)
	defer g.Close()
	wantStrings(t, scanStrings(t, s[0], 0))
	wantStrings(t, scanStrings(t, s[1], 0), "b0")
	recs, err := s[1].Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("b0")) {
		t.Fatalf("stream 1 after reopen = %q", recs)
	}
}

// TestLogStreamConcurrentCrashOrder drives every shard of a group from its
// own goroutine — numbered deferred appends closed by SyncLog, inline
// Appends, bucket writes and deferred commits on the same log, and now and
// then a Truncate — while the log rolls small segments and maintenance
// passes copy bucket versions and drop segments. Power-loss snapshots taken
// meanwhile must each reopen to, for every shard, a gap-free, in-order run
// of that shard's own records holding every record whose Append or SyncLog
// had returned before the snapshot, unless the shard had truncated it. Both
// rest on a record and its stream entry changing under one hold of the
// log's lock.
func TestLogStreamConcurrentCrashOrder(t *testing.T) {
	const (
		shards     = 3
		numBuckets = 8
		rounds     = 240
		snapshots  = 12
	)
	fsys := newCrashFS(nil)
	g, err := openDiskGroupOpts(fsys, "data", shards, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec := func(shard, n int) string { return fmt.Sprintf("s%d-%06d", shard, n) }

	// acked[i] is the newest record of shard i a returned Append or SyncLog
	// covers; truncated[i] the highest bound a Truncate of it was called
	// with. Both are stored only once the call's effect can have reached the
	// disk, or before it starts, respectively.
	var acked, truncated [shards]atomic.Int64
	var progress atomic.Int64
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(call string, err error) bool {
				if err != nil {
					t.Errorf("shard %d %s: %v", i, call, err)
				}
				return err != nil
			}
			n := 0
			for r := 1; r <= rounds; r++ {
				for k := 0; k < 1+r%3; k++ {
					n++
					if _, err := s.AppendNoSync([]byte(rec(i, n))); fail("AppendNoSync", err) {
						return
					}
				}
				if r%2 == 0 {
					if fail("SyncLog", s.SyncLog()) {
						return
					}
					acked[i].Store(int64(n))
				}
				w := BucketWrite{Bucket: r % numBuckets, Epoch: uint64(r), Slots: [][]byte{[]byte(rec(i, r))}}
				if fail("WriteBuckets", s.WriteBuckets([]BucketWrite{w})) ||
					fail("CommitEpochNoSync", logHeapShard{s}.CommitEpochNoSync(uint64(r))) {
					return
				}
				if r%5 == 0 {
					n++
					if _, err := s.Append([]byte(rec(i, n))); fail("Append", err) {
						return
					}
					acked[i].Store(int64(n))
				}
				if r%10 == 0 {
					// Every record so far: the log's truncation point is then
					// set by the other shards' streams alone.
					truncated[i].Store(int64(n + 1))
					if fail("Truncate", s.Truncate(uint64(n+1))) {
						return
					}
				}
				progress.Add(1)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	type crash struct {
		fsys             *crashFS
		acked, truncated [shards]int64
	}
	var crashes []crash
	for c := 1; c <= snapshots; c++ {
	wait:
		for progress.Load() < int64(c*shards*rounds/(snapshots+1)) {
			select {
			case <-done: // a shard failed and stopped early
				break wait
			default:
				runtime.Gosched()
			}
		}
		g.maintainOnce()
		var cr crash
		for i := range cr.acked {
			cr.acked[i] = acked[i].Load()
		}
		cr.fsys = fsys.snapshot()
		for i := range cr.truncated {
			cr.truncated[i] = truncated[i].Load()
		}
		crashes = append(crashes, cr)
	}
	<-done

	for c, cr := range crashes {
		rg, err := openDiskGroupOpts(cr.fsys, "data", shards, numBuckets, diskOpts{workers: 1})
		if err != nil {
			t.Fatalf("snapshot %d: reopen: %v", c, err)
		}
		for i, s := range rg.shards {
			recs := scanStrings(t, s, 0)
			first, last := 0, 0
			for k, r := range recs {
				var shard, n int
				if _, err := fmt.Sscanf(r, "s%d-%d", &shard, &n); err != nil || shard != i {
					t.Fatalf("snapshot %d shard %d: record %d is %q, not one of its own", c, i, k, r)
				}
				if k == 0 {
					first = n
				} else if n != last+1 {
					t.Fatalf("snapshot %d shard %d: record %d follows %d", c, i, n, last)
				}
				last = n
			}
			// Every acked record at or above the truncation bound is there.
			if lo, hi := max(cr.truncated[i], 1), cr.acked[i]; lo <= hi && (len(recs) == 0 || int64(first) > lo || int64(last) < hi) {
				t.Fatalf("snapshot %d shard %d: recovered records %d..%d (%d), want every acked record %d..%d", c, i, first, last, len(recs), lo, hi)
			}
		}
		must(t, rg.Close())
	}
}
