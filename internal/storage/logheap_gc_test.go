package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestEvacuateSegmentAllocatesPerPassNotPerVersion pins what keeps a
// maintenance pass from showing up in the process's heap: segment GC reads
// each live version into one buffer, edits it there and sends the same bytes
// back to the log head, so a pass costs a handful of allocations however
// many versions it moves. Per-version buffers would be tens of megabytes of
// garbage per pass at the benchmark's parameters, produced on a background
// goroutine whenever it happens to run.
func TestEvacuateSegmentAllocatesPerPassNotPerVersion(t *testing.T) {
	const numBuckets, slotsPer, slotSize = 96, 8, 96
	dir := t.TempDir()
	g, err := openDiskGroupOpts(osFS{}, dir, 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lh, v := g.shards[0], g.shards[0]

	slots := func(bucket int) [][]byte {
		out := make([][]byte, slotsPer)
		for i := range out {
			out[i] = bytes.Repeat([]byte{byte(bucket), byte(i), 0xab}, slotSize/3)
		}
		return out
	}
	var writes []BucketWrite
	for b := 0; b < numBuckets; b++ {
		writes = append(writes, BucketWrite{Bucket: b, Epoch: 1, Slots: slots(b)})
	}
	if err := v.WriteBuckets(writes); err != nil {
		t.Fatal(err)
	}
	if err := v.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	base := g.log.segs[0].base

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	moved, err := lh.EvacuateSegment(base)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != numBuckets {
		t.Fatalf("moved %d versions, want %d", moved, numBuckets)
	}
	mallocs, size := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("%d versions moved: %d allocations, %d bytes", moved, mallocs, size)
	if mallocs >= uint64(moved)/2 {
		t.Errorf("%d allocations to move %d versions: evacuation allocates per version", mallocs, moved)
	}
	recLen := uint64(slotsPer * (slotSize + 4))
	if size >= uint64(moved)*recLen/4 {
		t.Errorf("%d bytes allocated to move %d versions of ~%d bytes: evacuation copies per version", size, moved, recLen)
	}

	// The copies are what the index points at now: a reopened group has no
	// write-through cache and serves them from their new place in the log.
	if err := g.Close(); err != nil {

		t.Fatal(err)
	}
	g, err = openDiskGroupOpts(osFS{}, dir, 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for b := 0; b < numBuckets; b++ {
		got, err := g.shards[0].ReadBucket(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range slots(b) {
			if !bytes.Equal(got[i], want) {
				t.Fatalf("bucket %d slot %d differs after evacuation", b, i)
			}
		}
	}
}

// TestReplayPlacesGCCopyAtItsEpoch pins how an open replays a segment GC
// copy whose original lay in a segment dropped since: the copy takes its
// epoch's place in its bucket's stack. Bucket 1's committed epoch-1 version
// is copied after its uncommitted epoch-5 version was written, so the copy
// goes under it, not on top; bucket 0's copy is its only version. A replay
// that pushed the copy on top would refuse the open, and one that only
// relocated an entry it found would lose both versions.
func TestReplayPlacesGCCopyAtItsEpoch(t *testing.T) {
	fsys := newCrashFS(nil)
	g, models := maintenanceWorkload(t, fsys)
	originals := map[uint64]bool{}
	for _, lh := range g.shards {
		for _, b := range []int{0, 1} {
			originals[lh.ix.buckets[b][0].seg] = true
		}
	}
	g.maintainOnce()
	for _, seg := range g.log.segs {
		if originals[seg.base] {
			t.Fatalf("segment %d, holding an evacuated original, survived the pass", seg.base)
		}
	}
	must(t, g.Close())

	g, err := openLogHeapSweepGroup(fsys)
	must(t, err)
	defer g.Close()
	for i, lh := range g.shards {
		var epochs []uint64
		for _, v := range lh.ix.buckets[1] {
			epochs = append(epochs, v.epoch)
		}
		if !slices.Equal(epochs, []uint64{1, 5}) {
			t.Fatalf("shard %d bucket 1 reopened with versions of epochs %v, want [1 5]", i, epochs)
		}
		if got, want := heapImage(lh), memImage(models[i]); got != want {
			t.Fatalf("shard %d reopened to\n%swant\n%s", i, got, want)
		}
		// Recovery's revert exposes the copy as bucket 1's newest version.
		must(t, lh.RollbackTo(4))
		for _, b := range []int{0, 1} {
			got, err := lh.ReadSlot(b, 0)
			must(t, err)
			if want := fmt.Sprintf("s%d-e1-b%d", i, b); string(got) != want {
				t.Fatalf("shard %d bucket %d reads %q after the rollback, want %q", i, b, got, want)
			}
		}
	}
}

// TestOpenKeepsSegmentsUntilReplaySetsFloors reopens a group whose sealed
// segments lie wholly below the WAL truncation point but still hold live
// versions: nothing but the heaps' floors keeps them, and the floors exist
// only once replay has rebuilt the indexes. An open that dropped dead
// segments before replay would delete them and the versions with them.
func TestOpenKeepsSegmentsUntilReplaySetsFloors(t *testing.T) {
	fsys := newCrashFS(nil)
	g, models := maintenanceWorkload(t, fsys)
	first, segs := g.log.segs[0].base, g.SegmentCount()
	must(t, g.Close())

	g, err := openLogHeapSweepGroup(fsys)
	must(t, err)
	defer g.Close()
	if got := g.log.segs[0].base; got != first || g.SegmentCount() != segs {
		t.Fatalf("open left %d segments from base %d, want all %d from base %d", g.SegmentCount(), got, segs, first)
	}
	for i, lh := range g.shards {
		if got, want := heapImage(lh), memImage(models[i]); got != want {
			t.Fatalf("shard %d reopened to\n%swant\n%s", i, got, want)
		}
	}
	// The floors replay set are live: a pass frees the segments.
	g.maintainOnce()
	if g.SegmentCount() >= segs {
		t.Fatalf("a maintenance pass after the open freed no segment (%d -> %d)", segs, g.SegmentCount())
	}
}

// TestTruncationKicksMaintenance pins when a truncation starts a
// maintenance pass: once a sealed segment it leaves behind was wholly below
// the previous truncation point too, so the live versions keeping it had a
// whole truncation interval to be rewritten. The first truncation past a
// segment leaves it be.
func TestTruncationKicksMaintenance(t *testing.T) {
	g, err := openDiskGroupOpts(newCrashFS(nil), "data", 1, 4, diskOpts{workers: 1, segMaxBytes: 128})
	must(t, err)
	defer g.Close()
	kicks := 0
	g.log.kick = func() { kicks++ }
	lh := g.shards[0]
	must(t, lh.WriteBucket(0, 1, slots("kept across truncations")))
	must(t, lh.CommitEpoch(1))
	truncate := func() {
		t.Helper()
		for segs := g.SegmentCount(); g.SegmentCount() < segs+2; {
			_, err := lh.Append([]byte("wal record"))
			must(t, err)
		}
		last, err := lh.LastSeq()
		must(t, err)
		must(t, lh.Truncate(last))
	}
	truncate()
	if len(g.log.gcCandidates()) == 0 || kicks != 0 {
		t.Fatalf("first truncation: %d candidates, %d kicks; want some candidates and no kick", len(g.log.gcCandidates()), kicks)
	}
	truncate()
	if kicks != 1 {
		t.Fatalf("second truncation: %d kicks, want 1", kicks)
	}
	g.MaintainOnce()
	if got, err := lh.ReadSlot(0, 0); err != nil || string(got) != "kept across truncations" {
		t.Fatalf("bucket 0 after the pass: %q, %v", got, err)
	}
	if n := len(g.log.gcCandidates()); n != 0 {
		t.Fatalf("%d candidates left after the pass", n)
	}
}

// TestNewestCommitRecordIsRetained pins that a heap's newest commit record
// is part of what its floor keeps: replay learns the committed frontier from
// it alone. Here it is the heap's only record, in the log's one segment,
// which truncation has left wholly dead otherwise; maintenance must not
// drop it, and a reopen reports the epoch it committed.
func TestNewestCommitRecordIsRetained(t *testing.T) {
	fsys := newCrashFS(nil)
	g, err := openDiskGroupOpts(fsys, "data", 1, 4, diskOpts{workers: 1})
	must(t, err)
	lh := g.shards[0]
	must(t, lh.CommitEpoch(1))
	last, err := lh.Append([]byte("wal record"))
	must(t, err)
	must(t, lh.Truncate(last+1))
	g.MaintainOnce()
	must(t, g.Close())

	g, err = openDiskGroupOpts(fsys, "data", 1, 4, diskOpts{workers: 1})
	must(t, err)
	defer g.Close()
	if c := g.shards[0].CommittedEpoch(); c != 1 {
		t.Fatalf("reopened heap committed through epoch %d, want 1", c)
	}
}
