package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"obladi/internal/allocgate"
)

// The three functions every version record used to pass through on its way
// to a file — body, stream wrap, frame: three buffers and three copies of the
// same slots — kept here, unchanged, as the oracle for the in-place framer
// that replaced them (and for the decode fuzzer's re-encode checks). Nothing
// outside the tests calls them.

// encodeRecord appends the framed record to dst and returns the extended
// slice.
func encodeRecord(dst, body []byte) []byte {
	at := len(dst)
	dst = append(beginRecord(dst), body...)
	sealRecord(dst[at:])
	return dst
}

func encodeVersionBody(bucket int, epoch uint64, slots [][]byte) []byte {
	return encodeVersionBodyKind(heapKindVersion, bucket, epoch, slots)
}

func encodeVersionBodyKind(kind byte, bucket int, epoch uint64, slots [][]byte) []byte {
	n := heapVersionDataStart
	for _, s := range slots {
		n += 4 + len(s)
	}
	body := make([]byte, 0, n)
	body = append(body, kind)
	body = binary.BigEndian.AppendUint32(body, uint32(bucket))
	body = binary.BigEndian.AppendUint64(body, epoch)
	body = binary.BigEndian.AppendUint32(body, uint32(len(slots)))
	for _, s := range slots {
		body = binary.BigEndian.AppendUint32(body, uint32(len(s)))
		body = append(body, s...)
	}
	return body
}

func wrapSharedRecord(id uint32, rec []byte) []byte {
	out := make([]byte, streamHdrSize+len(rec))
	binary.BigEndian.PutUint32(out, id)
	copy(out[streamHdrSize:], rec)
	return out
}

func goldenEncodeRecord(dst, body []byte) []byte {
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(body)))
	dst = append(dst, lenb[:]...)
	dst = binary.BigEndian.AppendUint32(dst, recordCRC(lenb[:], body))
	return append(dst, body...)
}

// randomSlots draws one bucket's slots: a few of them empty, now and then a
// bucket with no slots at all.
func randomSlots(rng *rand.Rand) [][]byte {
	slots := make([][]byte, rng.Intn(7))
	n := rng.Intn(4) * rng.Intn(40)
	for i := range slots {
		slots[i] = make([]byte, n)
		rng.Read(slots[i])
	}
	return slots
}

// logBytes returns what a group's physical log holds, file headers
// stripped, segments in order.
func logBytes(t *testing.T, l *diskLog) []byte {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []byte
	for _, seg := range l.segs {
		out = append(out, seg.mapped[fileHeaderSize:seg.size]...)
	}

	return out
}

// TestInPlaceFramerGoldenBytesLogHeap drives a logheap group — bucket
// vectors, WAL-stream appends of both kinds, epoch commits, on two shards,
// over segments small enough that vectors straddle a roll — and requires the
// segment files to hold exactly the bytes the old body → wrap → frame chain
// produces for the same operations in the same order.
func TestInPlaceFramerGoldenBytesLogHeap(t *testing.T) {
	const shards, numBuckets = 2, 12
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g, err := openDiskGroupOpts(newCrashFS(nil), "data", shards, numBuckets,
				diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			owner := g.log
			var want []byte
			expect := func(stream int, body []byte) {
				want = goldenEncodeRecord(want, wrapSharedRecord(uint32(stream), body))
			}
			straddled := false
			for epoch := uint64(1); epoch <= 12; epoch++ {
				for sh := 0; sh < shards; sh++ {
					var writes []BucketWrite
					for _, b := range rng.Perm(numBuckets)[:1+rng.Intn(6)] {
						w := BucketWrite{Bucket: b, Epoch: epoch, Slots: randomSlots(rng)}
						writes = append(writes, w)
						expect(shards+sh, encodeVersionBody(w.Bucket, w.Epoch, w.Slots))
					}
					segsBefore := len(owner.segs)
					if err := g.shards[sh].WriteBuckets(writes); err != nil {
						t.Fatal(err)
					}
					// A roll between two records of one vector.
					if first, last := g.shards[sh].ix.buckets[writes[0].Bucket], g.shards[sh].ix.buckets[writes[len(writes)-1].Bucket]; len(owner.segs) > segsBefore &&
						first[len(first)-1].seg != last[len(last)-1].seg {
						straddled = true
					}
					rec := make([]byte, rng.Intn(3)*rng.Intn(300))
					rng.Read(rec)
					expect(sh, rec)
					if rng.Intn(2) == 0 {
						_, err = g.shards[sh].Append(rec)
					} else {
						_, err = g.shards[sh].AppendNoSync(rec)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				for sh := 0; sh < shards; sh++ {
					expect(shards+sh, encodeEpochBody(heapKindCommit, epoch))
					if err := g.shards[sh].CommitEpoch(epoch); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !straddled {
				t.Fatal("no vector straddled a segment roll: the test lost its coverage")
			}
			if got := logBytes(t, owner); !bytes.Equal(got, want) {
				t.Fatalf("physical log holds %d bytes that differ from the old chain's %d", len(got), len(want))
			}
		})
	}
}

// TestInPlaceFramerGoldenBytesRaw is the same requirement for a one-shard
// group opened without DiskOptions.LogHeap, whose shard commits through its
// own barriers: the version records of its bucket stream and the records of
// its log stream, interleaved on the one log.
func TestInPlaceFramerGoldenBytesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, err := openDiskStore(newCrashFS(nil), "data", 8, diskOpts{workers: 1, segMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wantLog []byte
	for epoch := uint64(1); epoch <= 8; epoch++ {
		var writes []BucketWrite
		for _, bucket := range rng.Perm(8)[:1+rng.Intn(5)] {
			w := BucketWrite{Bucket: bucket, Epoch: epoch, Slots: randomSlots(rng)}
			writes = append(writes, w)
			wantLog = goldenEncodeRecord(wantLog, wrapSharedRecord(1, encodeVersionBody(w.Bucket, w.Epoch, w.Slots)))
		}
		if err := b.WriteBuckets(writes); err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, rng.Intn(3)*rng.Intn(300))
		rng.Read(rec)
		wantLog = goldenEncodeRecord(wantLog, wrapSharedRecord(0, rec))
		if _, err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := logBytes(t, b.log); !bytes.Equal(got, wantLog) {
		t.Fatalf("log holds %d bytes that differ from the old chain's %d", len(got), len(wantLog))
	}
	if len(b.log.segs) < 2 {
		t.Fatal("the log never rolled a segment")
	}
}

// TestLogHeapWriteBucketsAllocBudget pins the write-back path's shape: in
// the steady state a vector of n buckets allocates nothing, however many
// bytes it writes — no body, no wrap, no frame buffer per bucket.
func TestLogHeapWriteBucketsAllocBudget(t *testing.T) {
	gate := allocgate.Begin(t)
	const numBuckets, slotsPer, slotSize = 32, 16, 256
	g, err := openDiskGroupOpts(osFS{}, t.TempDir(), 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	writes := make([]BucketWrite, numBuckets)
	for b := range writes {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
		}
		writes[b] = BucketWrite{Bucket: b, Epoch: 1, Slots: slots}
	}
	// Same-epoch rewrites replace index entries in place, so from the second
	// run on the write is the steady state: the framer, the log and the
	// index reuse what they have.
	write := func() {
		if err := g.shards[0].WriteBuckets(writes); err != nil {
			t.Fatal(err)
		}
	}
	write()
	write()
	gate.Settle()
	allocs := testing.AllocsPerRun(20, write)
	t.Logf("WriteBuckets of %d buckets (%d KB): %.1f allocations", numBuckets, numBuckets*slotsPer*slotSize>>10, allocs)
	if allocs > 0 {
		t.Errorf("%.1f allocations for %d buckets, want 0: the write-back path allocates per bucket again", allocs, numBuckets)
	}
}

// TestLogHeapEpochAllocBudget is the allocation gate of a whole epoch on a
// two-shard LogHeap group, the store the proxy's disk deployments run on.
// Each shard logs and reads epochReads batches (a batch record, the round's
// barrier, one vectored read), logs its write batch, writes its buckets back
// and appends a delta checkpoint; both commit their epoch and one SyncLog
// makes the round durable. Every epochsPerTruncate epochs the log is cut at
// a checkpoint, and segments are small enough that the log rolls to a new
// one every eight epochs or so. The records are written from two buffers
// reused for every record, as the recovery log writes them, and the slots
// are read into one buffer reused for every read (SlotRef.Into), as the
// executor reads them.
//
// An epoch measured 9.9 allocations: one result vector per ReadSlots call, 6,
// and 3.9 amortized — a roll's new segment (its file, header and mapping, and
// its record index, sized once) and a truncation's meta file rewrite. The
// budget's amortized share lost the reads' result chunks (about 0.04 an
// epoch) when reads began to fill their destinations. Maintenance does not
// run. A record or a bucket that allocated again would add ten or thirty-two
// an epoch, and a read that ignored its destinations six.
func TestLogHeapEpochAllocBudget(t *testing.T) {
	gate := allocgate.Begin(t)
	const (
		amortizedBudget                          = 4.45
		shards, numBuckets, slotsPer, slotSize   = 2, 64, 8, 100
		epochReads, refsPerRead, bucketsPerEpoch = 3, 16, 16
		epochsPerTruncate, epochs                = 16, 80
		batchRecord, checkpointRecord            = 600, 6 << 10
	)
	g, err := openDiskGroupOpts(osFS{}, t.TempDir(), shards, numBuckets, diskOpts{workers: 1, segMaxBytes: 384 << 10, DiskOptions: DiskOptions{LogHeap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	backends := g.Backends()
	slots := make([][]byte, slotsPer)
	for i := range slots {
		slots[i] = bytes.Repeat([]byte{byte(i)}, slotSize)
	}
	writes := make([]BucketWrite, bucketsPerEpoch)
	refs := make([]SlotRef, refsPerRead)
	reads := make([]byte, refsPerRead*slotSize)
	batch, checkpoint := make([]byte, batchRecord), make([]byte, checkpointRecord)
	truncateAt := make([]uint64, shards)
	rng := rand.New(rand.NewSource(1))
	epoch := func(e uint64) {
		for s, b := range backends {
			lb, ecb := b.(LogBatcher), b.(EpochCommitBatcher)
			for range epochReads {
				batch[0] = byte(e)
				if _, err := lb.AppendNoSync(batch); err != nil {
					t.Fatal(err)
				}
				if err := lb.SyncLog(); err != nil {
					t.Fatal(err)
				}
				for i := range refs {
					refs[i] = SlotRef{Bucket: rng.Intn(numBuckets), Slot: rng.Intn(slotsPer), Into: reads[i*slotSize : (i+1)*slotSize]}
				}
				if _, err := b.ReadSlots(refs); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := lb.AppendNoSync(batch); err != nil {
				t.Fatal(err)
			}
			for i := range writes {
				writes[i] = BucketWrite{Bucket: rng.Intn(numBuckets), Epoch: e, Slots: slots}
			}
			if err := b.WriteBuckets(writes); err != nil {
				t.Fatal(err)
			}
			seq, err := lb.AppendNoSync(checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if e%epochsPerTruncate == 0 {
				truncateAt[s] = seq
			}
			if err := ecb.CommitEpochNoSync(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := backends[0].(LogBatcher).SyncLog(); err != nil {
			t.Fatal(err)
		}
		if e%epochsPerTruncate == 1 && e > 1 {
			for s, b := range backends {
				if err := b.Truncate(truncateAt[s]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Every bucket written in two epochs, so each holds a committed version
	// under a new one once, then epochs up to a first truncation.
	for _, b := range backends {
		for e := uint64(1); e <= 2; e++ {
			for bucket := range numBuckets {
				if err := b.WriteBucket(bucket, e, slots); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.CommitEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for e := uint64(3); e <= 2*epochsPerTruncate; e++ {
		epoch(e)
	}
	segsBefore := len(g.log.segs)
	gate.Settle()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.OneP(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := uint64(2*epochsPerTruncate + 1); e <= epochs; e++ {
		epoch(e)
	}
	runtime.ReadMemStats(&after)
	perEpoch := float64(after.Mallocs-before.Mallocs) / float64(epochs-2*epochsPerTruncate)
	rolls := len(g.log.segs) - segsBefore
	t.Logf("%.2f allocations an epoch over %d epochs, %d segment rolls", perEpoch, epochs-2*epochsPerTruncate, rolls)
	if rolls < 4 {
		t.Fatalf("the log rolled %d segments: the gate covers no roll", rolls)
	}
	if budget := shards*epochReads + amortizedBudget; perEpoch > budget {
		t.Errorf("an epoch took %.2f allocations, budget %.1f: %d result vectors and %.1f amortized", perEpoch, budget, shards*epochReads, amortizedBudget)
	}
}

// TestLogKeepsNoLongFrame: the log frames a WAL record in a buffer it reuses,
// but not one longer than frameKeep (a full checkpoint's), which it lets go
// once the record is written; the record still reads back whole.
func TestLogKeepsNoLongFrame(t *testing.T) {
	g, err := openDiskGroupOpts(osFS{}, t.TempDir(), 1, 8, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	b := g.Backends()[0]
	short, long := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, frameKeep+1)
	for i, rec := range [][]byte{short, long, short} {
		if _, err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
		if kept := cap(g.log.frame); kept > frameKeep || (len(rec) <= frameKeep && kept == 0) {
			t.Fatalf("after a %d-byte record the log keeps a %d-byte frame", len(rec), kept)
		}
		if recs, err := b.Scan(0); err != nil || len(recs) != i+1 || !bytes.Equal(recs[i], rec) {
			t.Fatalf("record %d does not read back (%v)", i, err)
		}
	}
}
