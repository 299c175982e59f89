package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// LogHeap is one shard of a DiskGroup, as the proxy consumes it: a Backend
// whose recovery log is its WAL stream on the group's physical log and whose
// bucket heap is log-structured on the SAME log (a dedicated bucket-data
// stream; see logStream). That is the whole point of the design — an epoch's
// bucket commit record and the WAL checkpoint that commits it land in one
// file, so the round's single deferred-barrier fsync covers both: heap commit
// and log barrier share a wave instead of each costing one.
//
// State is the version index every store keeps (versionIndex), each entry
// locating a version record in the group's log, and the log is the only copy
// of a version's bytes: a read copies its slots out of the log's mapped
// segments under the log's read lock. Nothing on disk is ever mutated in
// place:
//
//   - WriteBuckets appends a version record per bucket (no fsync — shadow
//     paging makes an unsynced version harmless) and installs its location.
//   - CommitEpoch appends one commit record; the barrier that makes the
//     epoch durable is the log's ordinary SyncLog wave. Replay only learns
//     a commit from its record, and every version record precedes it in the
//     same stream, so the one fsync covers the full FITO ordering an ack
//     stands on.
//   - RollbackTo appends a rollback record and reverts the index — the
//     shadow-page discard, as a log record.
//   - Segment GC re-appends live versions (kind heapKindGCCopy) out of old
//     segments and flips their index entries.
//
// The log is also the index's only durable form: an open replays every
// record of the heap's stream the log retains. What the log drops is a
// prefix the index no longer needs, which the retention floor (retainFloor)
// guarantees: it is the first physical sequence holding a live version or
// the heap's newest commit record, and it rises only in maintenance, after a
// barrier on the heap's last record, so no segment goes before the records
// that made its contents dead are durable. Replaying the retained suffix
// therefore rebuilds the index the whole log would: every record after a
// dropped one is retained, and a GC copy whose original went with a dropped
// segment is installed at its epoch's place in the bucket's stack.
type LogHeap struct {
	log       *diskLog // the group's physical log
	walStream uint32   // its recovery-log stream on log
	stream    uint32   // its bucket-data stream on log
	// closed marks the shard logically closed. Its files belong to the group
	// — every shard's streams ride the one physical log — so Close cannot
	// close them; the flag keeps the per-shard ErrClosed contract (every
	// Backend call on a closed shard fails, the siblings keep working), and
	// the files close with the group. The group's own work on the heap —
	// replay, maintenance — ignores it.
	closed atomic.Bool

	numBuckets int

	mu        sync.RWMutex
	ix        versionIndex
	lastPhys  uint64 // physical seq of this stream's newest record
	commitSeg uint64 // segment base of its newest commit record (0: none)
	frame     []byte // framing buffer: one stream record at a time
	// results is what reads copy their slots into; reads run concurrently
	// under mu's read lock, so it has a lock of its own.
	resultsMu sync.Mutex
	results   slabs

	// gcMu serializes segment evacuations, whose buffers it guards: a
	// maintenance pass reuses them rather than allocating per pass.
	gcMu    sync.Mutex
	gcRefs  []gcRef
	gcFrame []byte

	// retainFloor is the segment retention gate's input: the first physical
	// sequence this heap still needs on disk, as raiseFloor last published
	// it. Atomic because the gate reads it while holding the log's mu, which
	// is *below* mu in the lock order.
	retainFloor atomic.Uint64
}

// logHeapDataStart is how far past its frame a version record's first
// slot-length prefix lies: the stream-id header and the version-body header.
const logHeapDataStart = recordFrameSize + streamHdrSize + heapVersionDataStart

var (
	_ Backend     = (*LogHeap)(nil)
	_ LogBatcher  = (*LogHeap)(nil)
	_ readEncoder = (*LogHeap)(nil)
)

// newLogHeap returns shard i of a group of shards on log, empty until the
// log's open-time scan replays its stream (diskLog.openStreams).
func newLogHeap(log *diskLog, i, shards, numBuckets int) *LogHeap {
	return &LogHeap{
		log:        log,
		walStream:  uint32(i),
		stream:     uint32(shards + i),
		numBuckets: numBuckets,
		ix:         newVersionIndex(numBuckets, logHeapDataStart),
	}
}

// replayRecord applies one own-stream record during the open-time demux
// scan; body is only valid for the duration of the call. Record order
// equals the original mutation order (appends and index mutations happen
// under one lock at runtime), so replay reproduces the index the retained
// records describe.
func (lh *LogHeap) replayRecord(seq, segBase uint64, off int64, body []byte) error {
	rec, err := parseHeapBody(body)
	if err != nil {
		return fmt.Errorf("storage: bucket stream %d at physical seq %d: %w", lh.stream, seq, err)
	}
	switch rec.kind {
	case heapKindVersion, heapKindGCCopy:
		if rec.bucket < 0 || rec.bucket >= lh.numBuckets {
			return fmt.Errorf("storage: bucket stream %d references bucket %d of %d", lh.stream, rec.bucket, lh.numBuckets)
		}
		v := version{epoch: rec.epoch, layout: layoutFromLens(rec.slotLens), seg: segBase, off: off}
		if rec.kind == heapKindGCCopy {
			// At runtime a copy is appended only while the version it copies
			// is the bucket's entry for its epoch, so it relocates that entry;
			// or, its original gone with a dropped segment, takes its place.
			lh.ix.relocate(rec.bucket, v)
		} else if err := lh.ix.install(rec.bucket, v); err != nil {
			return fmt.Errorf("storage: bucket stream %d replay: %w", lh.stream, err)
		}
	case heapKindCommit:
		lh.ix.commit(rec.epoch)
		lh.commitSeg = segBase
	case heapKindRollback:
		lh.ix.rollback(rec.epoch)
	}
	lh.lastPhys = seq
	return nil
}

// raiseFloor publishes the heap's retention floor: the lowest segment base
// holding a live version or its newest commit record (replay learns the
// committed frontier from it), or, past both, the first record not yet
// appended. The floor is taken together with the heap's last record under
// the lock, and published only once a barrier makes that record durable:
// the records that made a segment's versions dead — a commit, a rollback, a
// GC copy — are durable before the segment can go. Records appended after
// the snapshot lie above any floor it yields, so a floor published late is
// still safe, only lower than it could be.
func (lh *LogHeap) raiseFloor() error {
	lh.mu.RLock()
	last := lh.lastPhys
	floor := lh.log.lastSeq.Load() + 1
	if lh.commitSeg > 0 {
		floor = min(floor, lh.commitSeg)
	}
	for _, vs := range lh.ix.buckets {
		for i := range vs {
			floor = min(floor, vs[i].seg)
		}
	}
	lh.mu.RUnlock()
	if err := lh.log.barrier(last); err != nil {
		return err
	}
	lh.retainFloor.Store(floor)
	return nil
}

// checkOpen is every Backend call's guard: ErrClosed once the shard is
// closed, else the log's fail-stop state.
func (lh *LogHeap) checkOpen() error {
	if lh.closed.Load() {
		return ErrClosed
	}
	return lh.log.checkUsable()
}

// ---- BucketStore reads ----

// NumBuckets implements BucketStore.
func (lh *LogHeap) NumBuckets() (int, error) {
	if err := lh.checkOpen(); err != nil {
		return 0, err
	}
	return lh.numBuckets, nil
}

// ReadSlot implements BucketStore.
func (lh *LogHeap) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(lh, bucket, slot) }

// ReadSlots implements BucketStore: every slot, whether this process wrote
// its version or recovery replayed it, is copied out of the log into one
// carved buffer, which stays the caller's.
func (lh *LogHeap) ReadSlots(refs []SlotRef) ([][]byte, error) {
	if err := lh.rlock(); err != nil {
		return nil, err
	}
	defer lh.runlock()
	return lh.ix.readSlots(refs, lh)
}

// ReadBucket implements BucketStore.
func (lh *LogHeap) ReadBucket(bucket int) ([][]byte, error) {
	if err := lh.rlock(); err != nil {
		return nil, err
	}
	defer lh.runlock()
	return lh.ix.readBucket(bucket, lh)
}

// encodeSlots implements readEncoder: each slot is copied out of the log
// straight into the reply.
func (lh *LogHeap) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	if err := lh.rlock(); err != nil {
		return dst, err
	}
	defer lh.runlock()
	return lh.ix.encodeSlots(dst, refs, lh)
}

// rlock takes what a read holds: the heap's read lock, for the index, then
// the log's, so no segment a version lies in is dropped and unmapped while
// the read copies from it.
func (lh *LogHeap) rlock() error {
	lh.mu.RLock()
	if err := lh.checkOpen(); err != nil {
		lh.mu.RUnlock()
		return err
	}
	lh.log.mu.RLock()
	return nil
}

func (lh *LogHeap) runlock() {
	lh.log.mu.RUnlock()
	lh.mu.RUnlock()
}

// take and readAt implement versionFile over the log, under rlock.
func (lh *LogHeap) take(n int) []byte {
	lh.resultsMu.Lock()
	defer lh.resultsMu.Unlock()
	return lh.results.take(n)
}

func (lh *LogHeap) readAt(dst []byte, seg uint64, off int64) error {
	return lh.log.readAtLocked(dst, seg, off)
}

// ---- BucketStore writes ----

// beginFrame starts a stream record in the heap's framing buffer (mu held):
// an empty frame header and room for the stream header; the caller appends
// the body and hands the whole to diskLog.appendFramed.
func (lh *LogHeap) beginFrame() []byte {
	return append(beginRecord(lh.frame[:0]), make([]byte, streamHdrSize)...)
}

// WriteBucket implements BucketStore.
func (lh *LogHeap) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(lh, bucket, epoch, slots)
}

// WriteBuckets implements BucketStore: one version record per bucket into
// the log, no fsync (CommitEpoch's wave is the barrier; shadow paging
// makes a torn or unsynced version harmless). Each record is framed in place
// in the heap's one buffer, which is what the log writes out, and the index
// records where it landed, as replay does: the log's page cache serves its
// reads from then on, synced or not. Framing, append and index install all
// happen under the lock, so the stream's record order equals the index
// mutation order replay will reproduce — and lastPhys (what a floor raise
// barriers) never runs behind an installed record.
// Writes install in vector order and stop at the first failing entry,
// leaving the validated prefix installed.
func (lh *LogHeap) WriteBuckets(writes []BucketWrite) error {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if err := lh.checkOpen(); err != nil {
		return err
	}
	for _, w := range writes {
		if err := lh.ix.checkWrite(w.Bucket, w.Epoch); err != nil {
			return err
		}
		lh.frame = appendVersionBody(lh.beginFrame(), heapKindVersion, w.Bucket, w.Epoch, w.Slots)
		res, err := lh.log.appendFramed(lh.stream, lh.frame)
		if err != nil {
			return err
		}
		v := version{epoch: w.Epoch, layout: layoutOf(w.Slots), seg: res.segBase, off: res.off}
		if err := lh.ix.install(w.Bucket, v); err != nil {
			return err
		}
		lh.lastPhys = res.seq
	}
	return nil
}

// CommitEpoch implements BucketStore: one commit record, then the log's
// ordinary barrier. SyncLog drains every deferred obligation on the
// physical log — this epoch's version records (wherever segment rotation
// put them), the commit record, and whatever WAL records shared the round —
// in one wave; nothing is acknowledged before it returns.
func (lh *LogHeap) CommitEpoch(epoch uint64) error {
	if err := lh.appendEpochRecord(heapKindCommit, epoch); err != nil {
		return err
	}
	return lh.log.syncLog()
}

// commitEpochNoSync is logHeapShard's CommitEpochNoSync: the commit record
// is appended and applied but its durability rides the caller's next
// SyncLog — the proxy's round barrier, where N shards' commits and the
// coordinator's committing checkpoint all stand on one fsync.
func (lh *LogHeap) commitEpochNoSync(epoch uint64) error {
	return lh.appendEpochRecord(heapKindCommit, epoch)
}

// RollbackTo implements BucketStore. Rollbacks always log and always
// barrier: the index shrinks, and replay must see that before the caller
// builds on the reverted state.
func (lh *LogHeap) RollbackTo(epoch uint64) error {
	if err := lh.appendEpochRecord(heapKindRollback, epoch); err != nil {
		return err
	}
	return lh.log.syncLog()
}

// appendEpochRecord appends a commit/rollback record and applies it to the
// index in one critical section. An already-covered commit (epoch <=
// committed) appends nothing; CommitEpoch still stands on the barrier, which
// the versions written at or below the committed epoch since need. Neither
// raises the retention floor: only maintenance does (raiseFloor).
func (lh *LogHeap) appendEpochRecord(kind byte, epoch uint64) error {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if err := lh.checkOpen(); err != nil {
		return err
	}
	if kind == heapKindRollback || epoch > lh.ix.committed {
		lh.frame = append(lh.beginFrame(), encodeEpochBody(kind, epoch)...)
		res, err := lh.log.appendFramed(lh.stream, lh.frame)
		if err != nil {
			return err
		}
		lh.lastPhys = res.seq
		if kind == heapKindCommit {
			lh.commitSeg = res.segBase
		}
	}
	if kind == heapKindCommit {
		lh.ix.commit(epoch)
	} else {
		lh.ix.rollback(epoch)
	}
	return nil
}

// CommittedEpoch reports the highest committed epoch (test/recovery
// helper).
func (lh *LogHeap) CommittedEpoch() uint64 {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	return lh.ix.committed
}

// VersionCount reports how many shadow versions a bucket holds. Test
// helper.
func (lh *LogHeap) VersionCount(bucket int) int {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	return lh.ix.count(bucket)
}

// ---- LogStore, LogBatcher and KVStore ----

// Append implements LogStore: the record joins the shard's WAL stream and
// stands on a barrier, run outside the log's lock, so every stream's
// barrier waits on the same frontier and coalesces.
func (lh *LogHeap) Append(record []byte) (uint64, error) {
	if err := lh.checkOpen(); err != nil {
		return 0, err
	}
	seq, phys, err := lh.log.appendStream(lh.walStream, record)
	if err != nil {
		return 0, err
	}
	if err := lh.log.barrier(phys); err != nil {
		return 0, err
	}
	return seq, nil
}

// Scan implements LogStore.
func (lh *LogHeap) Scan(from uint64) ([][]byte, error) {
	if err := lh.checkOpen(); err != nil {
		return nil, err
	}
	return lh.log.scanStream(lh.walStream, from)
}

// Truncate implements LogStore.
func (lh *LogHeap) Truncate(before uint64) error {
	if err := lh.checkOpen(); err != nil {
		return err
	}
	return lh.log.truncateStream(lh.walStream, before)
}

// LastSeq implements LogStore.
func (lh *LogHeap) LastSeq() (uint64, error) {
	if err := lh.checkOpen(); err != nil {
		return 0, err
	}
	return lh.log.streamLast(lh.walStream)
}

// AppendNoSync and SyncLog implement LogBatcher, where the one log earns
// its keep: shards append back to back, the first SyncLog's lone fsync
// covers the whole round — every stream's deferred records, on one wave —
// and the other shards' SyncLogs ride it or find it landed.
func (lh *LogHeap) AppendNoSync(record []byte) (uint64, error) {
	if err := lh.checkOpen(); err != nil {
		return 0, err
	}
	seq, _, err := lh.log.appendStream(lh.walStream, record)
	return seq, err
}
func (lh *LogHeap) SyncLog() error {
	if err := lh.checkOpen(); err != nil {
		return err
	}
	return lh.log.syncLog()
}

// Get, Put and Delete implement KVStore: a shard keeps no namespace.
func (lh *LogHeap) Get(string) ([]byte, bool, error) { return nil, false, lh.noKV() }
func (lh *LogHeap) Put(string, []byte) error         { return lh.noKV() }
func (lh *LogHeap) Delete(string) error              { return lh.noKV() }

func (lh *LogHeap) noKV() error {
	if err := lh.checkOpen(); err != nil {
		return err
	}
	return ErrNoKV
}

// Close closes the shard logically (see closed).
func (lh *LogHeap) Close() error {
	lh.closed.Store(true)
	return nil
}

// ---- segment GC ----

// gcRef is a live version an evacuation found in its segment: the entry's
// identity, (epoch, offset) in its bucket, and its record's length.
type gcRef struct {
	bucket int
	epoch  uint64
	off    int64
	recLen int
}

// EvacuateSegment copies this heap's live versions out of the segment based
// at segBase, re-appending each as a heapKindGCCopy record at the log head
// and flipping its index entry — the only mutation, so a crash anywhere
// leaves either the old location (still on disk: the floor has not risen)
// or the new one. Each copy happens under the lock against the entry it
// copies, so a copy record in the log always reflects the entry's state at
// append time; replay leans on that to relocate exactly the current
// versions. The heap's newest commit record moves too when it lies there:
// it is re-appended as a commit of the committed frontier, applied to the
// index as replay will apply it. Returns how many versions moved. The
// segment becomes collectible only after the caller's next raiseFloor: its
// barrier makes the copies durable before the floor passes the old segment.
func (lh *LogHeap) EvacuateSegment(segBase uint64) (int, error) {
	lh.gcMu.Lock()
	defer lh.gcMu.Unlock()
	lh.mu.RLock()
	if err := lh.log.checkUsable(); err != nil {
		lh.mu.RUnlock()
		return 0, err
	}
	refs := lh.gcRefs[:0]
	for bucket, vs := range lh.ix.buckets {
		for i := range vs {
			if vs[i].seg == segBase {
				refs = append(refs, gcRef{bucket: bucket, epoch: vs[i].epoch, off: vs[i].off, recLen: int(lh.ix.recLen(&vs[i]))})
			}
		}
	}
	lh.gcRefs = refs
	lh.mu.RUnlock()

	moved := 0
	frame := lh.gcFrame // one buffer for every copy: a pass moves thousands
	defer func() { lh.gcFrame = frame }()
	for _, r := range refs {
		lh.mu.Lock()
		vs := lh.ix.buckets[r.bucket]
		// Re-find the entry: commits/rollbacks may have shifted the stack
		// since the snapshot. Identity is (epoch, location).
		cur := -1
		for j := range vs {
			if vs[j].epoch == r.epoch && vs[j].seg == segBase && vs[j].off == r.off {
				cur = j
				break
			}
		}
		if cur < 0 {
			lh.mu.Unlock()
			continue // superseded or rolled back since the snapshot
		}
		frame = slices.Grow(frame[:0], r.recLen)[:r.recLen]
		lh.log.mu.RLock()
		err := lh.log.readAtLocked(frame, segBase, r.off)
		lh.log.mu.RUnlock()
		if err != nil {
			lh.mu.Unlock()
			return moved, err
		}
		body, size, err := decodeRecord(frame)
		if err != nil {
			lh.mu.Unlock()
			return moved, fmt.Errorf("storage: GC re-reading segment %d offset %d: %w", segBase, r.off, err)
		}
		if len(body) <= streamHdrSize {
			lh.mu.Unlock()
			return moved, fmt.Errorf("storage: GC re-reading segment %d offset %d: record shorter than its stream header", segBase, r.off)
		}
		// frame is the heap's GC buffer: flip the kind in place and send
		// the same bytes back to the log head.
		body[streamHdrSize] = heapKindGCCopy
		res, err := lh.log.appendFramed(lh.stream, frame[:size])
		if err != nil {
			lh.mu.Unlock()
			return moved, err
		}
		v := &vs[cur]
		v.seg, v.off = res.segBase, res.off
		lh.lastPhys = res.seq
		lh.mu.Unlock()
		moved++
	}
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if lh.commitSeg == segBase {
		lh.frame = append(lh.beginFrame(), encodeEpochBody(heapKindCommit, lh.ix.committed)...)
		res, err := lh.log.appendFramed(lh.stream, lh.frame)
		if err != nil {
			return moved, err
		}
		lh.ix.commit(lh.ix.committed)
		lh.lastPhys, lh.commitSeg = res.seq, res.segBase
	}
	return moved, nil
}
