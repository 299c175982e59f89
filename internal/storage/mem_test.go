package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"obladi/internal/allocgate"
)

func slots(vals ...string) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = []byte(v)
	}
	return out
}

func TestMemBackendReadWrite(t *testing.T) {
	m := NewMemBackend(3)
	if err := m.WriteBucket(1, 1, slots("a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadSlot(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "c" {
		t.Fatalf("ReadSlot = %q, want %q", got, "c")
	}
	all, err := m.ReadBucket(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || string(all[0]) != "a" {
		t.Fatalf("ReadBucket = %q", all)
	}
}

func TestMemBackendBucketBounds(t *testing.T) {
	m := NewMemBackend(2)
	if _, err := m.ReadSlot(5, 0); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("out-of-range bucket: %v", err)
	}
	if _, err := m.ReadSlot(-1, 0); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("negative bucket: %v", err)
	}
	if err := m.WriteBucket(2, 1, nil); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("write out-of-range: %v", err)
	}
	if err := m.WriteBucket(0, 1, slots("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadSlot(0, 1); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("out-of-range slot: %v", err)
	}
	if _, err := m.ReadSlot(1, 0); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("never-written bucket should have no slots: %v", err)
	}
}

func TestMemBackendNewestVersionWins(t *testing.T) {
	m := NewMemBackend(1)
	if err := m.WriteBucket(0, 1, slots("old")); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBucket(0, 2, slots("new")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("read %q, want newest version", got)
	}
}

func TestMemBackendSameEpochSupersedes(t *testing.T) {
	m := NewMemBackend(1)
	must(t, m.WriteBucket(0, 3, slots("a")))
	must(t, m.WriteBucket(0, 3, slots("b")))
	if n := m.VersionCount(0); n != 1 {
		t.Fatalf("same-epoch rewrite kept %d versions, want 1", n)
	}
	got, _ := m.ReadSlot(0, 0)
	if string(got) != "b" {
		t.Fatalf("read %q", got)
	}
}

func TestMemBackendRollback(t *testing.T) {
	m := NewMemBackend(1)
	must(t, m.WriteBucket(0, 1, slots("committed")))
	must(t, m.CommitEpoch(1))
	must(t, m.WriteBucket(0, 2, slots("aborted")))
	must(t, m.RollbackTo(1))
	got, err := m.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed" {
		t.Fatalf("after rollback read %q, want committed version", got)
	}
	if m.CommittedEpoch() != 1 {
		t.Fatalf("committed epoch = %d", m.CommittedEpoch())
	}
}

func TestMemBackendRollbackAllVersions(t *testing.T) {
	m := NewMemBackend(1)
	must(t, m.WriteBucket(0, 5, slots("x")))
	must(t, m.RollbackTo(2))
	if _, err := m.ReadSlot(0, 0); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("bucket should be empty after full rollback, got %v", err)
	}
}

func TestMemBackendCommitGarbageCollects(t *testing.T) {
	m := NewMemBackend(1)
	for e := uint64(1); e <= 5; e++ {
		must(t, m.WriteBucket(0, e, slots(fmt.Sprintf("v%d", e))))
	}
	if n := m.VersionCount(0); n != 5 {
		t.Fatalf("have %d versions before commit", n)
	}
	must(t, m.CommitEpoch(4))
	// Versions 1..3 are superseded by 4 within the committed prefix;
	// version 5 is uncommitted and must survive.
	if n := m.VersionCount(0); n != 2 {
		t.Fatalf("have %d versions after commit, want 2", n)
	}
	must(t, m.RollbackTo(4))
	got, _ := m.ReadSlot(0, 0)
	if string(got) != "v4" {
		t.Fatalf("read %q after rollback, want v4", got)
	}
}

func TestMemBackendLog(t *testing.T) {
	m := NewMemBackend(0)
	if last, err := m.LastSeq(); err != nil || last != 0 {
		t.Fatalf("empty log LastSeq = %d, %v", last, err)
	}
	for i := 1; i <= 5; i++ {
		seq, err := m.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	recs, err := m.Scan(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != 3 {
		t.Fatalf("Scan(3) = %v", recs)
	}
	must(t, m.Truncate(4))
	recs, err = m.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0][0] != 4 {
		t.Fatalf("after truncate Scan = %v", recs)
	}
	seq, err := m.Append([]byte{9})
	if err != nil || seq != 6 {
		t.Fatalf("Append after truncate: seq=%d err=%v", seq, err)
	}
	if last, _ := m.LastSeq(); last != 6 {
		t.Fatalf("LastSeq = %d", last)
	}
}

func TestMemBackendTruncateBeyondEnd(t *testing.T) {
	m := NewMemBackend(0)
	m.Append([]byte{1})
	must(t, m.Truncate(100))
	recs, _ := m.Scan(0)
	if len(recs) != 0 {
		t.Fatalf("log not empty: %v", recs)
	}
	if seq, _ := m.Append([]byte{2}); seq != 2 {
		t.Fatalf("seq after over-truncate = %d", seq)
	}
}

func TestMemBackendClosed(t *testing.T) {
	m := NewMemBackend(1)
	must(t, m.Close())
	if _, err := m.ReadSlot(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadSlot after close: %v", err)
	}
	if err := m.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := m.Append(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
}

func TestMemBackendConcurrent(t *testing.T) {
	m := NewMemBackend(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Each goroutine owns two buckets so its epoch tags stay
				// monotone per bucket (the shadow-paging write order the
				// backend enforces); the log is shared by all.
				b := g*2 + i%2
				if err := m.WriteBucket(b, uint64(i+1), slots("x", "y")); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.ReadSlot(b, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Append([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if last, _ := m.LastSeq(); last != 8*200 {
		t.Fatalf("LastSeq = %d, want %d", last, 8*200)
	}
}

// TestTwoLiveEpochsShadowPaging models the pipelined boundary's storage
// footprint: the sealed epoch's flush and the next epoch's writes coexist as
// uncommitted shadow versions, rollback discards both, commit in epoch order
// garbage-collects superseded prefixes, and an out-of-order (lower-epoch)
// write that would bury a newer version is rejected.
func TestTwoLiveEpochsShadowPaging(t *testing.T) {
	m := NewMemBackend(2)
	must(t, m.WriteBucket(0, 1, slots("e1")))
	must(t, m.CommitEpoch(1))

	// Two live (uncommitted) epochs on the same bucket, flushed in order.
	must(t, m.WriteBucket(0, 2, slots("e2")))
	must(t, m.WriteBucket(0, 3, slots("e3")))
	if got, _ := m.ReadSlot(0, 0); string(got) != "e3" {
		t.Fatalf("newest version = %q, want e3", got)
	}
	if n := m.VersionCount(0); n != 3 {
		t.Fatalf("version count = %d, want 3 (committed + two live epochs)", n)
	}

	// A write for an older epoch arriving after a newer one is a pipelining
	// bug: the version stack would no longer be epoch-ordered.
	if err := m.WriteBucket(0, 2, slots("stale")); err == nil {
		t.Fatal("out-of-order shadow-page write accepted")
	}

	// Crash before either commit: both live epochs disappear.
	must(t, m.RollbackTo(1))
	if got, _ := m.ReadSlot(0, 0); string(got) != "e1" {
		t.Fatalf("after rollback = %q, want e1", got)
	}

	// Same shape again, this time committing in epoch order.
	must(t, m.WriteBucket(0, 2, slots("e2")))
	must(t, m.WriteBucket(0, 3, slots("e3")))
	must(t, m.CommitEpoch(2))
	must(t, m.CommitEpoch(3))
	if got, _ := m.ReadSlot(0, 0); string(got) != "e3" {
		t.Fatalf("after commits = %q, want e3", got)
	}
	if n := m.VersionCount(0); n != 1 {
		t.Fatalf("version count after GC = %d, want 1", n)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommitRetiresWhatTheEpochWrote drives the proxy's pattern — epoch e+1
// written before e commits — over a store whose commit visits only the
// buckets written since the last one: after each commit every bucket holds
// exactly one version, except those the uncommitted epoch rewrote, which hold
// two; after the last commit none is left multi-versioned.
func TestCommitRetiresWhatTheEpochWrote(t *testing.T) {
	const numBuckets, epochs = 64, 24
	type versioned interface {
		Backend
		VersionCount(bucket int) int
	}
	run := func(t *testing.T, b versioned, multi func() int) {
		rng := rand.New(rand.NewPCG(3, 5))
		written := make([][]int, epochs+2)
		write := func(e int) {
			var vec []BucketWrite
			for bucket := 0; bucket < numBuckets; bucket++ {
				if e == 1 || rng.IntN(3) == 0 {
					written[e] = append(written[e], bucket)
					vec = append(vec, BucketWrite{Bucket: bucket, Epoch: uint64(e), Slots: conformSlots(fmt.Sprintf("e%d", e), 4)})
				}
			}
			if err := b.WriteBuckets(vec); err != nil {
				t.Fatal(err)
			}
		}
		write(1)
		for e := 1; e <= epochs; e++ {
			write(e + 1)
			if err := b.CommitEpoch(uint64(e)); err != nil {
				t.Fatal(err)
			}
			pending := map[int]bool{}
			for _, bucket := range written[e+1] {
				pending[bucket] = true
			}
			for bucket := 0; bucket < numBuckets; bucket++ {
				want := 1
				if pending[bucket] {
					want = 2
				}
				if got := b.VersionCount(bucket); got != want {
					t.Fatalf("after commit %d: bucket %d holds %d versions, want %d", e, bucket, got, want)
				}
			}
		}
		if err := b.CommitEpoch(epochs + 1); err != nil {
			t.Fatal(err)
		}
		for bucket := 0; bucket < numBuckets; bucket++ {
			if got := b.VersionCount(bucket); got != 1 {
				t.Fatalf("after the last commit: bucket %d holds %d versions", bucket, got)
			}
		}
		if n := multi(); n != 0 {
			t.Fatalf("after the last commit %d buckets are still listed as multi-versioned", n)
		}
	}
	t.Run("mem", func(t *testing.T) {
		m := NewMemBackend(numBuckets)
		run(t, m, func() int { return len(m.ix.multi) })
	})
	t.Run("logheap", func(t *testing.T) {
		g, err := OpenDiskGroupOpts(t.TempDir(), 1, numBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		run(t, g.shards[0], func() int { return len(g.shards[0].ix.multi) })
	})
	t.Run("disk", func(t *testing.T) {
		b := openDisk(t, t.TempDir(), numBuckets)
		defer b.Close()
		run(t, b, func() int { return len(b.LogHeap.ix.multi) })
	})
}

// TestMemBackendEpochAllocBudget pins the store's side of a write-back: once
// warm, writing an epoch's buckets and committing it allocates nothing — each
// version's slab is one a commit retired.
func TestMemBackendEpochAllocBudget(t *testing.T) {
	gate := allocgate.Begin(t)
	const numBuckets, slotsPer, slotSize = 32, 40, 300
	m := NewMemBackend(numBuckets)
	vec := make([]BucketWrite, numBuckets/2)
	for i := range vec {
		slots := make([][]byte, slotsPer)
		for j := range slots {
			slots[j] = bytes.Repeat([]byte{byte(i)}, slotSize)
		}
		vec[i] = BucketWrite{Bucket: 2 * i, Slots: slots}
	}
	epoch := uint64(0)
	run := func() {
		epoch++
		for i := range vec {
			vec[i].Epoch = epoch
		}
		if err := m.WriteBuckets(vec); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	gate.Settle()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%.1f allocations per written and committed epoch of %d buckets, want 0", allocs, len(vec))
	}
}

// TestMemBackendReadSlotsAllocBudget: a MemBackend copies each slot into its
// ref's destination, as every product reader gives one, in a result vector
// carved from a 48 KiB chunk, so a warm read of a benchmark-sized vector (192
// refs, 4.5 KiB of headers) allocates a tenth of a chunk (0.1 measured), not a
// vector or a buffer of its own.
func TestMemBackendReadSlotsAllocBudget(t *testing.T) {
	const numBuckets, slotsPer, budget = 48, 4, 0.15
	gate := allocgate.Begin(t)
	m := NewMemBackend(numBuckets)
	var refs []SlotRef
	for b := 0; b < numBuckets; b++ {
		must(t, m.WriteBucket(b, 1, slots("a", "b", "c", "d")))
		for i := 0; i < slotsPer; i++ {
			refs = append(refs, SlotRef{Bucket: b, Slot: i})
		}
	}
	refs = withDestinations(refs, 1)
	read := func() {
		if got, err := m.ReadSlots(refs); err != nil || len(got) != len(refs) {
			t.Fatalf("ReadSlots: %d slots, err %v", len(got), err)
		}
	}
	read()
	gate.Settle()
	allocs := mallocsPerCall(t, 2000, read)
	t.Logf("ReadSlots of %d slots: %.3f allocations a call", len(refs), allocs)
	if allocs > budget {
		t.Errorf("%.3f allocations per ReadSlots of %d slots, budget %.2f (a tenth of a carved chunk): the result vector is allocated per call again", allocs, len(refs), budget)
	}
}

// TestMemBackendLogAllocBudget: a MemBackend copies each record it is
// appended into a chunk it carves records from, so an epoch of the
// benchmark's in-memory records — three 1.5 KB batch records, a 0.9 KB write
// batch record and a 20 KB delta checkpoint, cut every sixteenth epoch —
// allocates the delta's own copy (it is longer than a chunk) and a share of
// a 16 KiB chunk for the rest: 1.44 measured, none per short record.
func TestMemBackendLogAllocBudget(t *testing.T) {
	const budget = 1.5
	gate := allocgate.Begin(t)
	m := NewMemBackend(1)
	var records [][]byte
	for _, n := range []int{1540, 1540, 1540, 914, 20 << 10} {
		records = append(records, bytes.Repeat([]byte{byte(n)}, n))
	}
	epochs := 0
	epoch := func() {
		var seq uint64
		for _, rec := range records {
			var err error
			if seq, err = m.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if epochs++; epochs%16 == 0 {
			if err := m.Truncate(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 32 {
		epoch()
	}
	gate.Settle()
	allocgate.OneP(t)
	const runs = 160
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		epoch()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("an epoch of %d records: %.2f allocations", len(records), allocs)
	if allocs > budget {
		t.Errorf("an epoch of %d records took %.2f allocations, budget %.1f", len(records), allocs, budget)
	}
}
