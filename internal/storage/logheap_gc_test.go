package storage

import (
	"bytes"
	"runtime"
	"runtime/debug"
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
	g, err := openDiskGroupOpts(osFS{}, dir, 1, numBuckets, diskOpts{workers: 1, logHeap: true, segMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lh, v := g.heaps[0], g.views[0]

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
	base := g.shards[0].segs[0].base

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
	if err := lh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g, err = openDiskGroupOpts(osFS{}, dir, 1, numBuckets, diskOpts{workers: 1, logHeap: true, segMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for b := 0; b < numBuckets; b++ {
		got, err := g.views[0].ReadBucket(b)
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
