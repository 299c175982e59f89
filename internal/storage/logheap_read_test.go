package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// A LogHeap keeps no copy of its versions: every read copies out of the log.
// These tests hold that read path to the log's own bytes, and to its lock
// discipline against segment drops.

// readBackSlots is version epoch of bucket b: slotsPer slots whose bytes name
// their bucket, epoch and slot, of one length, or of lengths that differ in
// every third epoch (a version with a slot-length table).
func readBackSlots(b int, epoch uint64, slotsPer int) [][]byte {
	out := make([][]byte, slotsPer)
	for i := range out {
		n := 48
		if epoch%3 == 0 {
			n += i
		}
		out[i] = bytes.Repeat([]byte{byte(b), byte(epoch), byte(i)}, n/3+1)[:n]
	}
	return out
}

// logVersions is every version record of lh's stream, as the log's own scan
// reads it (each frame's crc32c checked again), keyed by its location.
func logVersions(t *testing.T, g *DiskGroup, lh *LogHeap) map[[2]int64][][]byte {
	t.Helper()
	out := map[[2]int64][][]byte{}
	g.log.mu.RLock()
	defer g.log.mu.RUnlock()
	err := g.log.scanLocked(0, func(_, segBase uint64, off int64, rec []byte) error {
		id, body, err := splitStreamRecord(rec)
		if err != nil || id != lh.stream {
			return err
		}
		hr, err := parseHeapBody(body)
		if err != nil || (hr.kind != heapKindVersion && hr.kind != heapKindGCCopy) {
			return err
		}
		slots := make([][]byte, len(hr.slotLens))
		at := heapVersionDataStart
		for i, n := range hr.slotLens {
			at += 4
			slots[i] = bytes.Clone(body[at : at+int(n)])
			at += int(n)
		}
		out[[2]int64{int64(segBase), off}] = slots
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkReadBack reads every slot of every written bucket through each of
// lh's read paths — ReadSlots in a shuffled vector, ReadBucket, and the
// server's encodeSlots — and requires the bytes the log's
// scan finds at the newest version's location, which must be model's. It
// returns the segment each bucket's newest version lies in.
func checkReadBack(t *testing.T, g *DiskGroup, lh *LogHeap, model map[int][][]byte, rng *rand.Rand) map[int]uint64 {
	t.Helper()
	scanned := logVersions(t, g, lh)
	where := map[int]uint64{}
	var refs []SlotRef
	want := map[SlotRef][]byte{}
	for b, slots := range model {
		lh.mu.RLock()
		v, err := lh.ix.newest(b)
		var loc [2]int64
		if v != nil {
			loc, where[b] = [2]int64{int64(v.seg), v.off}, v.seg
		}
		lh.mu.RUnlock()
		if err != nil || v == nil {
			t.Fatalf("bucket %d: newest version %v, %v", b, v, err)
		}
		logged, ok := scanned[loc]
		if !ok {
			t.Fatalf("bucket %d: no version record of the log's scan lies at segment %d offset %d", b, loc[0], loc[1])
		}
		if len(logged) != len(slots) {
			t.Fatalf("bucket %d: the log holds %d slots, %d written", b, len(logged), len(slots))
		}
		for i := range slots {
			if !bytes.Equal(logged[i], slots[i]) {
				t.Fatalf("bucket %d slot %d: the log holds %x, %x written", b, i, logged[i], slots[i])
			}
			r := SlotRef{Bucket: b, Slot: i}
			refs = append(refs, r)
			want[r] = logged[i]
		}
		got, err := lh.ReadBucket(b)
		if err != nil || len(got) != len(logged) {
			t.Fatalf("ReadBucket(%d): %d slots, %v; the log holds %d", b, len(got), err, len(logged))
		}
		for i := range logged {
			if !bytes.Equal(got[i], logged[i]) {
				t.Fatalf("bucket %d slot %d: ReadBucket %x, the log %x", b, i, got[i], logged[i])
			}
		}
	}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	got, err := lh.ReadSlots(refs)
	if err != nil || len(got) != len(refs) {
		t.Fatalf("ReadSlots: %d slots, %v", len(got), err)
	}
	enc, err := lh.encodeSlots(nil, refs)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{buf: enc}
	encoded := d.fields()
	if d.err != nil || len(d.buf) != 0 || len(encoded) != len(refs) {
		t.Fatalf("encodeSlots: %d fields, %d bytes left, %v", len(encoded), len(d.buf), d.err)
	}
	for i, r := range refs {
		if !bytes.Equal(got[i], want[r]) || !bytes.Equal(encoded[i], want[r]) {
			t.Fatalf("bucket %d slot %d: ReadSlots %x, encodeSlots %x, the log %x", r.Bucket, r.Slot, got[i], encoded[i], want[r])
		}
	}
	return where
}

// TestLogHeapReadsBackFromLog writes and commits on a one-shard group and
// reads back without a restart, then after one, then after segment GC moved
// versions: in every case each slot is the bytes the log's own scan finds at
// the version's location. On the real file system and on the crash
// harness's alike, every segment is mapped and covers every record it holds:
// the reads the crash sweeps check are the ones production makes.
func TestLogHeapReadsBackFromLog(t *testing.T) {
	const numBuckets, slotsPer = 12, 6
	for _, fsName := range []string{"os", "crash"} {
		t.Run(fsName, func(t *testing.T) {
			var fsys vfs = osFS{}
			dir := t.TempDir()
			if fsName == "crash" {
				fsys, dir = newCrashFS(nil), "data"
			}
			// Small segments, so versions spread over several and a record
			// regularly ends past segMaxBytes (beyond a new segment's mapping).
			open := func() *DiskGroup {
				g, err := openDiskGroupOpts(fsys, dir, 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 2048})
				if err != nil {
					t.Fatal(err)
				}
				checkMapped(t, g.log)
				return g
			}
			rng := rand.New(rand.NewPCG(1, 2))
			model := map[int][][]byte{}
			epoch := uint64(0)
			// write writes a new epoch of buckets, which is committed by the
			// next write's commit or by commit.
			commit := func(g *DiskGroup) {
				if err := g.shards[0].CommitEpoch(epoch); err != nil {
					t.Fatal(err)
				}
			}
			write := func(g *DiskGroup, buckets ...int) {
				if epoch > 0 {
					commit(g)
				}
				epoch++
				var writes []BucketWrite
				for _, b := range buckets {
					model[b] = readBackSlots(b, epoch, slotsPer)
					writes = append(writes, BucketWrite{Bucket: b, Epoch: epoch, Slots: model[b]})
				}
				if err := g.shards[0].WriteBuckets(writes); err != nil {
					t.Fatal(err)
				}
			}
			all := make([]int, numBuckets)
			for b := range all {
				all[b] = b
			}

			g := open()
			write(g, all...)
			write(g, all[:numBuckets/2]...)
			write(g, 1, 3, 5)
			lh := g.shards[0]
			// Active: bucket 5's version is the log's newest record, written
			// and not yet synced.
			where := checkReadBack(t, g, lh, model, rng)
			g.log.mu.RLock()
			tail := g.log.segs[len(g.log.segs)-1].base
			g.log.mu.RUnlock()
			if where[5] != tail {
				t.Fatalf("bucket 5's newest version lies in segment %d, not the active one (%d)", where[5], tail)
			}
			commit(g)
			checkReadBack(t, g, lh, model, rng)
			checkMapped(t, g.log)

			// Replayed: every version now lies in a segment opened at start;
			// then more land in the reopened tail, past its size at open.
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			g = open()
			lh = g.shards[0]
			checkReadBack(t, g, lh, model, rng)
			write(g, 0, 2, 4, 6)
			commit(g)
			where = checkReadBack(t, g, lh, model, rng)

			// Evacuated: the live versions of the segment holding the last
			// bucket's, written in the first epoch, move to the log's head.
			old := where[numBuckets-1]
			moved, err := lh.EvacuateSegment(old)
			if err != nil || moved == 0 {
				t.Fatalf("EvacuateSegment(%d) moved %d versions, %v; want some", old, moved, err)
			}
			for b, seg := range checkReadBack(t, g, lh, model, rng) {
				if seg == old {
					t.Fatalf("bucket %d still reads from evacuated segment %d", b, old)
				}
			}
			checkMapped(t, g.log)
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkMapped requires every segment of l mapped over at least the bytes it
// holds.
func checkMapped(t *testing.T, l *diskLog) {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, seg := range l.segs {
		if int64(len(seg.mapped)) < seg.size {
			t.Fatalf("segment %s holds %d bytes, %d of them mapped", seg.name, seg.size, len(seg.mapped))
		}
	}
}

// TestLogReadsOnlyThroughMappings drives a two-shard group on the real file
// system and on the crash harness's through every read of its log — ReadSlots,
// a WAL stream's Scan, replay at reopen, segment GC — with segments small
// enough that records cross segMaxBytes and their segments are remapped, and
// requires every segment mapped over all it holds, with a concurrent reader
// seeing whole slots throughout. A file has no read but its mapping (vfile
// has no ReadAt). Run it under -race: a remap runs under the log's write lock
// while the readers hold its read lock.
func TestLogReadsOnlyThroughMappings(t *testing.T) {
	const numBuckets, slotsPer, segMax = 8, 6, 1024
	for _, fsName := range []string{"os", "crash"} {
		t.Run(fsName, func(t *testing.T) {
			var fsys vfs = osFS{}
			dir := t.TempDir()
			if fsName == "crash" {
				fsys, dir = newCrashFS(nil), "data"
			}
			open := func() *DiskGroup {
				g, err := openDiskGroupOpts(fsys, dir, 2, numBuckets, diskOpts{workers: 2, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: segMax})
				if err != nil {
					t.Fatal(err)
				}
				checkMapped(t, g.log)
				return g
			}
			model := make([]map[int][][]byte, 2)
			var wal [2][][]byte
			rng := rand.New(rand.NewPCG(5, 6))
			// check reads every shard's buckets and WAL stream back.
			check := func(g *DiskGroup) {
				t.Helper()
				for i, lh := range g.shards {
					checkReadBack(t, g, lh, model[i], rng)
					got, err := lh.Scan(0)
					if err != nil || len(got) != len(wal[i]) {
						t.Fatalf("shard %d: Scan returned %d records, %v; %d appended", i, len(got), err, len(wal[i]))
					}
					for j := range got {
						if !bytes.Equal(got[j], wal[i][j]) {
							t.Fatalf("shard %d record %d: Scan %q, appended %q", i, j, got[j], wal[i][j])
						}
					}
				}
			}
			epoch := uint64(0)
			write := func(g *DiskGroup, buckets ...int) {
				epoch++
				for i, lh := range g.shards {
					if model[i] == nil {
						model[i] = map[int][][]byte{}
					}
					var writes []BucketWrite
					for _, b := range buckets {
						model[i][b] = readBackSlots(b+8*i, epoch, slotsPer)
						writes = append(writes, BucketWrite{Bucket: b, Epoch: epoch, Slots: model[i][b]})
					}
					rec := []byte(fmt.Sprintf("shard %d epoch %d", i, epoch))
					wal[i] = append(wal[i], rec)
					if _, err := lh.Append(rec); err != nil {
						t.Fatal(err)
					}
					if err := lh.WriteBuckets(writes); err != nil {
						t.Fatal(err)
					}
					if err := lh.CommitEpoch(epoch); err != nil {
						t.Fatal(err)
					}
				}
			}

			g := open()
			write(g, 0, 1, 2, 3, 4, 5, 6, 7)
			// A reader loops over every slot and stream while the next epochs
			// append, and remap the segments their records cross into.
			var refs []SlotRef
			for b := 0; b < numBuckets; b++ {
				for j := 0; j < slotsPer; j++ {
					refs = append(refs, SlotRef{Bucket: b, Slot: j})
				}
			}
			done, readErr := make(chan struct{}), make(chan error, 1)
			go func() {
				for {
					for i, lh := range g.shards {
						got, err := lh.ReadSlots(refs)
						for k := 0; err == nil && k < len(got); k++ {
							if r := refs[k]; len(got[k]) < 3 || got[k][0] != byte(r.Bucket+8*i) || got[k][2] != byte(r.Slot) {
								err = fmt.Errorf("shard %d bucket %d slot %d read %x", i, r.Bucket, r.Slot, got[k])
							}
						}
						if err == nil {
							_, err = lh.Scan(0)
						}
						if err != nil {
							readErr <- err
							return
						}
					}
					select {
					case <-done:
						readErr <- nil
						return
					default:
					}
				}
			}()
			write(g, 1, 3, 5)
			write(g, 2, 4, 6)
			write(g, 1, 3)
			close(done)
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			check(g)
			crossed := false
			g.log.mu.RLock()
			for _, seg := range g.log.segs {
				crossed = crossed || seg.size > segMax
			}
			g.log.mu.RUnlock()
			if !crossed {
				t.Fatalf("no record crossed segMaxBytes (%d): no segment was remapped", segMax)
			}
			checkMapped(t, g.log)
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			g = open() // replays every heap's records
			defer g.Close()
			check(g)
			write(g, 0, 2)
			// Segment GC moves the versions of the segment holding shard 0's
			// bucket 7, written in the first epoch only.
			lh := g.shards[0]
			lh.mu.RLock()
			v, err := lh.ix.newest(7)
			lh.mu.RUnlock()
			if err != nil || v == nil {
				t.Fatalf("bucket 7: newest version %v, %v", v, err)
			}
			old, moved := v.seg, 0
			for _, lh := range g.shards {
				n, err := lh.EvacuateSegment(old)
				if err != nil {
					t.Fatal(err)
				}
				moved += n
			}
			if moved == 0 {
				t.Fatalf("segment GC moved no version out of segment %d", old)
			}
			check(g)
			checkMapped(t, g.log)
		})
	}
}

// TestLogHeapMappedReadsRaceSegmentDrops loops every read path against a
// writer whose truncation, segment GC and floor raises drop and unmap segments
// under it (small segments, so a drop is frequent). A read copies out of a
// mapping only under the log's read lock, so every slot it returns is whole;
// a read left holding a mapped byte past the drop would fault or return
// bytes that are not any version's. Run it under -race.
func TestLogHeapMappedReadsRaceSegmentDrops(t *testing.T) {
	const numBuckets, slotsPer, slotSize, epochs = 8, 8, 64, 120
	g, err := openDiskGroupOpts(osFS{}, t.TempDir(), 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	lh := g.shards[0]
	write := func(e uint64, buckets func(b int) bool) {
		var writes []BucketWrite
		for b := 0; b < numBuckets; b++ {
			if buckets(b) {
				slots := make([][]byte, slotsPer)
				for i := range slots {
					slots[i] = bytes.Repeat([]byte{byte(b<<4) | byte(e&15)}, slotSize)
				}
				writes = append(writes, BucketWrite{Bucket: b, Epoch: e, Slots: slots})
			}
		}
		if err := lh.WriteBuckets(writes); err != nil {
			t.Error(err)
		}
		if err := lh.CommitEpoch(e); err != nil {
			t.Error(err)
		}
	}
	write(1, func(int) bool { return true })
	var refs []SlotRef
	for b := 0; b < numBuckets; b++ {
		for i := 0; i < slotsPer; i++ {
			refs = append(refs, SlotRef{Bucket: b, Slot: i})
		}
	}
	whole := func(what string, slots [][]byte) error {
		if len(slots) != len(refs) {
			return fmt.Errorf("%s: %d slots, want %d", what, len(slots), len(refs))
		}
		for i, sl := range slots {
			if len(sl) != slotSize || !bytes.Equal(sl, bytes.Repeat(sl[:1], slotSize)) || int(sl[0]>>4) != refs[i].Bucket {
				return fmt.Errorf("%s: bucket %d slot %d torn or foreign: %x", what, refs[i].Bucket, refs[i].Slot, sl)
			}
		}
		return nil
	}

	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc []byte
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				got, err := lh.ReadSlots(refs)
				if err == nil {
					err = whole("ReadSlots", got)
				}
				if err == nil {
					enc, err = lh.encodeSlots(enc[:0], refs)
				}
				if err == nil {
					d := decoder{buf: enc}
					err = whole("encodeSlots", d.fields())
				}
				if err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
	}

	g.log.mu.RLock()
	first := g.log.segs[0].base
	g.log.mu.RUnlock()
	moved := 0
	for e := uint64(2); e <= epochs; e++ {
		// Buckets 0 and 1 are rewritten rarely, so their versions sit in old
		// segments until segment GC moves them.
		write(e, func(b int) bool { return b > 1 || e%40 == 0 })
		seq, err := lh.Append([]byte("wal record"))
		if err == nil {
			err = lh.Truncate(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
		if e%4 == 0 {
			for _, base := range g.log.gcCandidates() {
				n, err := lh.EvacuateSegment(base)
				if err != nil {
					t.Fatal(err)
				}
				moved += n
			}
			if err := lh.raiseFloor(); err != nil {
				t.Fatal(err)
			}
			g.log.dropDeadSegments()

		}
	}
	stop()
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	g.log.mu.RLock()
	last, segs := g.log.segs[0].base, len(g.log.segs)
	g.log.mu.RUnlock()
	t.Logf("%d epochs: oldest segment base %d → %d, %d segments left, %d versions evacuated", epochs, first, last, segs, moved)
	if last == first || moved == 0 {
		t.Fatalf("no segment dropped (oldest base %d → %d) or no version evacuated (%d): the race was not exercised", first, last, moved)
	}
}

// TestLogHeapReadSlotsAllocBudget pins a warm ReadSlots at the result vector
// plus an amortized share of a result chunk: a vector mixing versions this
// process wrote with versions replayed at open, read in shuffled order,
// costs at most 1.1 allocations a call. Per-run read buffers, or a sort of
// the vector by file position, would cost more.
func TestLogHeapReadSlotsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const numBuckets, slotsPer, slotSize, calls = 64, 8, 96, 2000
	dir := t.TempDir()
	open := func() *DiskGroup {
		g, err := openDiskGroupOpts(osFS{}, dir, 1, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	write := func(g *DiskGroup, epoch uint64, from int) {
		var writes []BucketWrite
		for b := from; b < numBuckets; b += 2 {
			slots := make([][]byte, slotsPer)
			for i := range slots {
				slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
			}
			writes = append(writes, BucketWrite{Bucket: b, Epoch: epoch, Slots: slots})
		}
		if err := g.shards[0].WriteBuckets(writes); err != nil {
			t.Fatal(err)
		}
		if err := g.shards[0].CommitEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	g := open()
	write(g, 1, 0)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g = open() // the even buckets are replayed, the odd ones written after
	defer g.Close()
	write(g, 2, 1)
	rng := rand.New(rand.NewPCG(3, 4))
	refs := make([]SlotRef, 48) // 4.5 KiB of slots
	for i := range refs {
		refs[i] = SlotRef{Bucket: rng.IntN(numBuckets), Slot: rng.IntN(slotsPer)}
	}
	lh := g.shards[0]
	read := func() {
		if _, err := lh.ReadSlots(refs); err != nil {
			t.Fatal(err)
		}
	}
	read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / calls
	t.Logf("ReadSlots of %d slots: %.3f allocations a call", len(refs), per)
	if per > 1.1 {
		t.Errorf("%.3f allocations per ReadSlots, budget 1.1 (the result vector and a share of a chunk)", per)
	}
}
