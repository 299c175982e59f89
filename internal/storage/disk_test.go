package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diskStore is a one-shard disk group as one Backend: the shard and, for the
// tests that reach past it, the group. Closing it closes the group. The
// crash sweeps set the shard's barrier oracle.
type diskStore struct {
	checkedShard
	g *DiskGroup
}

func (d *diskStore) Close() error { return d.g.Close() }

// openDiskStore opens a one-shard group in dir.
func openDiskStore(fsys vfs, dir string, buckets int, opts diskOpts) (*diskStore, error) {
	g, err := openDiskGroupOpts(fsys, dir, 1, buckets, opts)
	if err != nil {
		return nil, err
	}
	return &diskStore{checkedShard: checkedShard{LogHeap: g.shards[0]}, g: g}, nil
}

// openLoneDisk opens a one-shard group on the real filesystem with a
// deployment's settings: background maintenance on, default recovery
// workers.
func openLoneDisk(dir string, buckets int) (*diskStore, error) {
	return openDiskStore(osFS{}, dir, buckets, diskOpts{autoMaintain: true})
}

func openDisk(t *testing.T, dir string, buckets int) *diskStore {
	t.Helper()
	b, err := openLoneDisk(dir, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDiskReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 8)
	for e := uint64(1); e <= 3; e++ {
		var writes []BucketWrite
		for bucket := 0; bucket < 4; bucket++ {
			writes = append(writes, BucketWrite{
				Bucket: bucket, Epoch: e,
				Slots: [][]byte{[]byte(fmt.Sprintf("e%d-b%d", e, bucket))},
			})
		}
		if err := b.WriteBuckets(writes); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append([]byte(fmt.Sprintf("log-%d", e))); err != nil {
			t.Fatal(err)
		}
		if err := b.CommitEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDisk(t, dir, 8)
	defer r.Close()
	if got := r.CommittedEpoch(); got != 3 {
		t.Fatalf("recovered committed epoch = %d, want 3", got)
	}
	for bucket := 0; bucket < 4; bucket++ {
		got, err := r.ReadSlot(bucket, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("e3-b%d", bucket)
		if string(got) != want {
			t.Fatalf("bucket %d = %q, want %q", bucket, got, want)
		}
	}
	recs, err := r.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2]) != "log-3" {
		t.Fatalf("recovered log = %q", recs)
	}
	if seq, _ := r.LastSeq(); seq != 3 {
		t.Fatalf("recovered LastSeq = %d", seq)
	}
}

func TestDiskUncommittedVersionsSurviveReopenUntilRollback(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 2)
	must(t, b.WriteBucket(0, 1, [][]byte{[]byte("e1")}))
	must(t, b.CommitEpoch(1))
	must(t, b.WriteBucket(0, 2, [][]byte{[]byte("e2-uncommitted")}))
	// The uncommitted version is not fsynced, but closing cleanly does not
	// crash the process; a reopen may or may not see it. Force durability by
	// committing a *different* epoch? No — instead exercise the documented
	// recovery path: reopen, then roll back to the committed frontier.
	must(t, b.Close())

	r := openDisk(t, dir, 2)
	defer r.Close()
	if got := r.CommittedEpoch(); got != 1 {
		t.Fatalf("committed = %d, want 1", got)
	}
	must(t, r.RollbackTo(r.CommittedEpoch()))
	got, err := r.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e1" {
		t.Fatalf("after rollback: %q", got)
	}
}

func TestDiskRollbackSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 2)
	must(t, b.WriteBucket(0, 1, [][]byte{[]byte("e1")}))
	must(t, b.CommitEpoch(1))
	must(t, b.WriteBucket(0, 2, [][]byte{[]byte("e2")}))
	must(t, b.RollbackTo(1))
	// Epochs may be reused after a rollback (recovery replay does this).
	must(t, b.WriteBucket(0, 2, [][]byte{[]byte("e2-replayed")}))
	must(t, b.CommitEpoch(2))
	must(t, b.Close())

	r := openDisk(t, dir, 2)
	defer r.Close()
	if got := r.CommittedEpoch(); got != 2 {
		t.Fatalf("committed = %d, want 2", got)
	}
	got, err := r.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e2-replayed" {
		t.Fatalf("replayed epoch lost: %q", got)
	}
}

// lastSegment returns the path of the store's newest log segment and where
// its records end.
func lastSegment(b *diskStore, dir string) (string, int64) {
	b.log.mu.RLock()
	defer b.log.mu.RUnlock()
	seg := b.log.segs[len(b.log.segs)-1]
	return filepath.Join(dir, "shard-000", seg.name), seg.size
}

// TestDiskTornHeapTailTruncated: the bucket heap's records are the log's, so
// its torn tail is the log's. A torn record behind the last barrier is cut
// at reopen, and what is appended after it survives the next one.
func TestDiskTornHeapTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 2)
	must(t, b.WriteBucket(0, 1, [][]byte{[]byte("survives")}))
	must(t, b.CommitEpoch(1))
	path, end := lastSegment(b, dir)
	must(t, b.Close())

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: a plausible length prefix with garbage behind it.
	if _, err := f.WriteAt([]byte{0, 0, 0, 40, 1, 2, 3}, end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openDisk(t, dir, 2)
	defer r.Close()
	got, err := r.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives" {
		t.Fatalf("state after torn tail: %q", got)
	}
	// The tail must be physically gone so new appends extend a valid file.
	must(t, r.WriteBucket(1, 2, [][]byte{[]byte("after")}))
	must(t, r.CommitEpoch(2))
	must(t, r.Close())
	r2 := openDisk(t, dir, 2)
	defer r2.Close()
	if got, _ := r2.ReadSlot(1, 0); string(got) != "after" {
		t.Fatalf("append after torn-tail repair lost: %q", got)
	}
}

func TestDiskStructuralCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 2)
	must(t, b.WriteBucket(0, 1, [][]byte{[]byte("x")}))
	must(t, b.CommitEpoch(1))
	path, _ := lastSegment(b, dir)
	must(t, b.Close())

	// Rewrite the version record's kind byte to garbage and fix up the
	// checksum: a structurally invalid body under a valid crc is corruption,
	// not a torn write, and must refuse to open.

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first record is the version record, on the bucket stream.
	n := int(binary.BigEndian.Uint32(data[fileHeaderSize:]))
	body := bytes.Clone(data[fileHeaderSize+recordFrameSize : fileHeaderSize+recordFrameSize+n])
	body[streamHdrSize] = 99
	copy(data[fileHeaderSize:], encodeRecord(nil, body))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openLoneDisk(dir, 2); err == nil {
		t.Fatal("open succeeded on a structurally corrupt heap")
	}
}

func TestDiskNumBucketsMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 8)
	must(t, b.Close())
	if _, err := openLoneDisk(dir, 16); err == nil {
		t.Fatal("reopen with a different bucket count succeeded")
	}
	// Zero adopts the stored geometry.
	r := openDisk(t, dir, 0)
	defer r.Close()
	if n, _ := r.NumBuckets(); n != 8 {
		t.Fatalf("adopted bucket count = %d", n)
	}
}

// TestGroupOpenRefusesOtherLayouts opens data dirs written in the two
// layouts no build serves any more: a single-directory store (one shard's
// files at the top level) and a per-shard-file group (each shard's buckets in
// its own buckets.heap, no group marker). Both are refused under either
// DiskOptions.LogHeap value with an error naming the layout and a file of
// it, and neither dir gains or loses a file.
func TestGroupOpenRefusesOtherLayouts(t *testing.T) {
	tmp := t.TempDir()
	b := openDisk(t, tmp, 8)
	must(t, b.WriteBucket(0, 1, slots("live")))
	must(t, b.CommitEpoch(1))
	if _, err := b.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	must(t, b.Close())
	single := filepath.Join(tmp, "shard-000")
	perShard := t.TempDir()
	for i := 0; i < 2; i++ {
		shard := filepath.Join(perShard, fmt.Sprintf("shard-%03d", i))
		must(t, os.MkdirAll(shard, 0o755))
		must(t, os.WriteFile(filepath.Join(shard, heapFileName), encodeFileHeader("OBHEAP01", 8, 0), 0o644))
	}

	names := func(dir string) string {
		var out []string
		must(t, filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
			out = append(out, path)
			return err
		}))
		return strings.Join(out, " ")
	}
	for _, c := range []struct{ dir, layout, file string }{
		{single, "single-directory", metaFileName},
		{perShard, "per-shard-file", heapFileName},
	} {
		before := names(c.dir)
		for _, logHeap := range []bool{false, true} {
			for _, shards := range []int{1, 2} {
				g, err := OpenDiskGroupOpts(c.dir, shards, 8, DiskOptions{LogHeap: logHeap})
				if err == nil {
					g.Close()
					t.Fatalf("%d-shard open (LogHeap %v) of a %s dir succeeded", shards, logHeap, c.layout)
				}
				if !strings.Contains(err.Error(), c.layout) || !strings.Contains(err.Error(), c.file) {
					t.Fatalf("%d-shard open (LogHeap %v) of a %s dir: %v; want the layout and %s named", shards, logHeap, c.layout, err, c.file)
				}
			}
		}
		if after := names(c.dir); after != before {
			t.Fatalf("refused open of a %s dir changed it: [%s] -> [%s]", c.layout, before, after)
		}
	}
}

// TestDiskLogSegmentsRollAndTruncate drives the physical log underneath the
// streams: its sequence numbers, segment rolls and truncation point, which
// (unlike a stream's numbering) persist across a reopen. The log has one
// stream, whose numbering equals the physical one until the reopen.
func TestDiskLogSegmentsRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, osFS{}, dir, diskOpts{segMaxBytes: 256})
	var seqs []uint64
	for i := 0; i < 40; i++ {
		seqs = append(seqs, logAppend(t, l, fmt.Sprintf("record-%02d-%s", i, bytes.Repeat([]byte("x"), 32))))
	}
	if seqs[39] != 40 {
		t.Fatalf("last seq = %d", seqs[39])
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(l.segs))
	}
	segsBefore := len(l.segs)
	must(t, l.truncateStream(0, 30))
	if len(l.segs) >= segsBefore {
		t.Fatalf("truncate dropped no segments (%d -> %d)", segsBefore, len(l.segs))
	}
	recs := logRecords(t, l, l.truncBefore)
	if len(recs) != 11 || !strings.HasPrefix(recs[0], "record-29") {
		t.Fatalf("after truncate: %d records, first %q", len(recs), recs[0])
	}
	must(t, l.Close())

	r := openTestLog(t, osFS{}, dir, diskOpts{segMaxBytes: 256})
	if seq, _ := r.last(); seq != 40 {
		t.Fatalf("reopened last seq = %d", seq)
	}
	if r.truncBefore != 30 {
		t.Fatalf("reopened truncation point = %d, want 30", r.truncBefore)
	}
	recs = logRecords(t, r, 35)
	if len(recs) != 6 || !strings.HasPrefix(recs[0], "record-34") {
		t.Fatalf("reopened scan from 35: %d records, first %q", len(recs), recs[0])
	}
	// Truncating everything keeps the sequence counter across a reopen. The
	// reopen renumbered the stream from 1 at physical record 30, so its 11
	// records end at 11.
	must(t, r.truncateStream(0, 12))
	if r.truncBefore != 41 {
		t.Fatalf("truncation point after truncating every record = %d, want 41", r.truncBefore)
	}
	must(t, r.Close())
	r2 := openTestLog(t, osFS{}, dir, diskOpts{})
	defer r2.Close()
	if seq, _ := r2.last(); seq != 40 {
		t.Fatalf("last seq after truncate-all reopen = %d", seq)
	}
	if seq := logAppend(t, r2, "fresh"); seq != 41 {
		t.Fatalf("append after truncate-all reopen = %d, want 41", seq)
	}
}

// TestDiskRefusesKVJournalRecords: a shard directory an older disk store
// wrote holds kv.log, the journal its key-value namespace lived in. A
// header-only journal — all a proxy's data dir ever held — opens and is left
// as it is; one holding a record is refused with ErrNoKV, because no store
// serves that namespace now.
func TestDiskRefusesKVJournalRecords(t *testing.T) {
	header := encodeFileHeader("OBKV0001", 0, 0)
	put := []byte{1} // put: u32 key length | key | u32 value length | value
	put = binary.BigEndian.AppendUint32(put, 3)
	put = append(put, "key"...)
	put = binary.BigEndian.AppendUint32(put, 5)
	put = append(put, "value"...)
	for _, c := range []struct {
		name    string
		journal []byte
		refused bool
	}{
		{"header-only", header, false},
		{"one-record", encodeRecord(bytes.Clone(header), put), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			g, err := OpenDiskGroupOpts(dir, 2, 8, DiskOptions{LogHeap: true})
			if err != nil {
				t.Fatal(err)
			}
			must(t, g.Backends()[1].WriteBucket(0, 1, slots("live")))
			must(t, g.Backends()[1].CommitEpoch(1))
			must(t, g.Close())
			journal := filepath.Join(dir, "shard-001", kvFileName)
			must(t, os.WriteFile(journal, c.journal, 0o644))
			g, err = OpenDiskGroupOpts(dir, 2, 8, DiskOptions{LogHeap: true})
			if c.refused {
				if !errors.Is(err, ErrNoKV) {
					if err == nil {
						g.Close()
					}
					t.Fatalf("open over a kv.log holding a record = %v, want ErrNoKV", err)
				}
			} else {
				if err != nil {
					t.Fatalf("open over a header-only kv.log: %v", err)
				}
				got, err := g.Backends()[1].ReadSlot(0, 0)
				if err != nil || string(got) != "live" {
					t.Fatalf("bucket 0 after reopen = %q, %v", got, err)
				}
				must(t, g.Close())
			}
			if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, c.journal) {
				t.Fatalf("open changed kv.log: %x, %v", after, err)
			}
		})
	}
}

func TestDiskReadSlotsCoalescesAndHandlesDuplicates(t *testing.T) {
	b := openDisk(t, t.TempDir(), 8)
	defer b.Close()
	for bucket := 0; bucket < 8; bucket++ {
		slots := make([][]byte, 4)
		for s := range slots {
			slots[s] = []byte(fmt.Sprintf("b%d-s%d", bucket, s))
		}
		must(t, b.WriteBucket(bucket, 1, slots))
	}
	refs := []SlotRef{
		{Bucket: 7, Slot: 3}, {Bucket: 0, Slot: 0}, {Bucket: 3, Slot: 2},
		{Bucket: 0, Slot: 0}, // duplicate ref
		{Bucket: 7, Slot: 0}, {Bucket: 1, Slot: 1},
	}
	got, err := b.ReadSlots(refs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b7-s3", "b0-s0", "b3-s2", "b0-s0", "b7-s0", "b1-s1"}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("ReadSlots[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDiskWedgesAfterIOError(t *testing.T) {
	dir := t.TempDir()
	b := openDisk(t, dir, 2)
	defer b.Close()
	must(t, b.WriteBucket(0, 1, [][]byte{[]byte("x")}))
	must(t, b.CommitEpoch(1))
	// Close the log's segment behind the store's back; the next write must
	// fail and wedge the store (fail-stop beats acking into the void).
	b.log.mu.RLock()
	b.log.segs[len(b.log.segs)-1].f.Close()
	b.log.mu.RUnlock()
	if err := b.CommitEpoch(2); err == nil {
		t.Fatal("commit succeeded on a closed file")
	}
	if err := b.Put("k", []byte("v")); err == nil {
		t.Fatal("kv write succeeded on a wedged backend")
	}
	if _, err := b.ReadSlot(0, 0); err == nil {
		t.Fatal("read succeeded on a wedged backend")
	}
}
