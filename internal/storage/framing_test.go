package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
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
	for i := range slots {
		slots[i] = make([]byte, rng.Intn(4)*rng.Intn(40))
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
// the steady state a vector of n buckets costs the n slot-length tables the
// index keeps and nothing proportional to the bytes written — no body, no
// wrap, no frame buffer per bucket.
func TestLogHeapWriteBucketsAllocBudget(t *testing.T) {
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
	// index reuse what they have, and a version with one slot size keeps no
	// slot-length table.
	write := func() {
		if err := g.shards[0].WriteBuckets(writes); err != nil {
			t.Fatal(err)
		}
	}
	write()
	write()
	allocs := testing.AllocsPerRun(20, write)
	t.Logf("WriteBuckets of %d buckets (%d KB): %.1f allocations", numBuckets, numBuckets*slotsPer*slotSize>>10, allocs)
	if allocs > 0 {
		t.Errorf("%.1f allocations for %d buckets, want 0: the write-back path allocates per bucket again", allocs, numBuckets)
	}
}
