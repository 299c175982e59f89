package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
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
// locating a version record in the group's log. Nothing on disk is ever
// mutated in place:
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
//     segments and flips their index entries; the copy is crash-safe at
//     every point because replay relocates a copy only when the entry it
//     copied is still current.
//
// At open the index is rebuilt from an atomically-replaced checkpoint file
// (heapIndexName, watermark W) plus a replay of own-stream records above W,
// so recovery work is bounded by checkpoint cadence, not log length. The
// log's segment retention gate (retainFloor) keeps any segment holding a
// live version or an un-checkpointed record alive past WAL truncation.
type LogHeap struct {
	log       *diskLog // the group's physical log
	walStream uint32   // its recovery-log stream on log
	stream    uint32   // its bucket-data stream on log
	// closed marks the shard logically closed. Its files belong to the group
	// — every shard's streams ride the one physical log — so Close cannot
	// close them; the flag keeps the per-shard ErrClosed contract (every
	// Backend call on a closed shard fails, the siblings keep working), and
	// the files close with the group. The group's own work on the heap —
	// replay, Checkpoint, EvacuateSegment — ignores it.
	closed atomic.Bool

	fsys       vfs
	dir        string // this shard's directory; holds the index checkpoint
	numBuckets int

	// commitMu serializes the stream-order-sensitive multi-step operations
	// — commit/rollback barriers, checkpointing, segment GC — against each
	// other.
	commitMu sync.Mutex

	mu       sync.RWMutex
	ix       versionIndex
	lastPhys uint64 // physical seq of this stream's newest record
	ckptW    uint64 // watermark of the installed index checkpoint
	dirty    int    // own-stream records appended since that checkpoint
	frame    []byte // framing buffer: one stream record at a time

	// retainFloor is the segment retention gate's input: the first physical
	// sequence this heap still needs on disk (lowest live version's segment
	// base, or ckptW+1 for un-checkpointed records, whichever is lower).
	// Atomic because the gate reads it while holding the log's mu, which is
	// *below* mu in the lock order.
	retainFloor atomic.Uint64

	// kick, when set, nudges the group's background maintenance loop after
	// a commit finds the un-checkpointed backlog past maintainEvery.
	kick func()
}

// heapIndexName is the checkpoint file inside the shard directory.
const heapIndexName = "heapindex"

// maintainEvery is how many own-stream records may accumulate past the
// checkpoint watermark before a commit kicks background maintenance.
const maintainEvery = 4096

// logHeapDataStart is how far past its frame a version record's first
// slot-length prefix lies: the stream-id header and the version-body header.
const logHeapDataStart = recordFrameSize + streamHdrSize + heapVersionDataStart

var (
	_ Backend     = (*LogHeap)(nil)
	_ LogBatcher  = (*LogHeap)(nil)
	_ readEncoder = (*LogHeap)(nil)
)

// newLogHeap loads the shard's index checkpoint, before the log opens: the
// retention floor it sets is the gate the log's open collects dead segments
// under. The caller then replays own-stream records above the watermark
// through replayRecord (via diskLog.openStreams) and finally attaches
// the log.
func newLogHeap(fsys vfs, dir string, walStream, stream uint32, numBuckets int) (*LogHeap, error) {
	lh := &LogHeap{
		walStream:  walStream,
		stream:     stream,
		fsys:       fsys,
		dir:        dir,
		numBuckets: numBuckets,
		ix:         newVersionIndex(numBuckets, logHeapDataStart),
	}
	if err := lh.loadCheckpoint(); err != nil {
		return nil, err
	}
	lh.lastPhys = lh.ckptW
	lh.recomputeRetainLocked()
	return lh, nil
}

// loadCheckpoint reads the heapindex file. A missing file, or one whose
// header never became durable (lying fsync under the rename), loads as
// empty — replay from the log's start rebuilds everything still on disk. A
// torn record tail discards the whole checkpoint the same way: a partially
// loaded index with a high watermark would silently drop the missing
// buckets, and the previous checkpoint is gone (the rename replaced it), so
// full replay is the only sound fallback. A structurally invalid record
// under a valid checksum is corruption and fails loudly.
func (lh *LogHeap) loadCheckpoint() error {
	f, err := lh.fsys.OpenFile(joinPath(lh.dir, heapIndexName), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening heap index checkpoint: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size < fileHeaderSize {
		return nil // creation never durably completed
	}
	hdr, err := readFileRange(f, 0, fileHeaderSize)
	if err != nil {
		return err
	}
	nb, w, err := decodeFileHeader(hdr, lhixMagic)
	if err != nil {
		return nil // installed but never durable: pre-checkpoint state
	}
	if int(nb) != lh.numBuckets {
		return fmt.Errorf("storage: heap index checkpoint holds %d buckets but meta says %d", nb, lh.numBuckets)
	}
	ix := newVersionIndex(lh.numBuckets, logHeapDataStart)
	sc := newRecordScanner(f, fileHeaderSize, size)
	off := int64(fileHeaderSize)
	for off < size {
		body, total, err := sc.next()
		if err != nil {
			if errors.Is(err, errTornRecord) {
				return nil // discard: see doc comment
			}
			return fmt.Errorf("storage: heap index checkpoint at offset %d: %w", off, err)
		}
		rec, err := parseLhixBody(body)
		if err != nil {
			return fmt.Errorf("storage: heap index checkpoint at offset %d: %w", off, err)
		}
		switch rec.kind {
		case lhixKindState:
			ix.committed = rec.committed
		case lhixKindVersion:
			v := version{epoch: rec.epoch, layout: layoutFromLens(rec.slotLens), seg: rec.segBase, off: rec.off}
			if err := ix.install(rec.bucket, v); err != nil {
				return fmt.Errorf("storage: heap index checkpoint: %w", err)
			}
		}
		off += int64(total)
	}
	lh.ix = ix
	lh.ckptW = w
	return nil
}

// attach wires the replayed heap to the log and its maintenance hook, once
// replay is done, and recomputes the retention floor replay moved.
func (lh *LogHeap) attach(log *diskLog, kick func()) {
	lh.mu.Lock()
	lh.log, lh.kick = log, kick
	lh.recomputeRetainLocked()
	lh.mu.Unlock()
}

// replayRecord applies one own-stream record during the open-time demux
// scan; body is only valid for the duration of the call. Record order
// equals the original mutation order (appends and index mutations happen
// under one lock at runtime), so replay reproduces the exact index state as
// of the log's end.
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
			// A GC copy re-locates the version it copied, and only if that
			// version is still the bucket's entry for its epoch: at runtime
			// the copy was appended under the lock only while the entry
			// matched, so by induction a mismatch here means a later record
			// already superseded or rolled the version back — ignore.
			vs := lh.ix.buckets[rec.bucket]
			for j := len(vs) - 1; j >= 0; j-- {
				if vs[j].epoch == rec.epoch {
					vs[j] = v
					break
				}
				if vs[j].epoch < rec.epoch {
					break
				}
			}
		} else if err := lh.ix.install(rec.bucket, v); err != nil {
			return fmt.Errorf("storage: bucket stream %d replay: %w", lh.stream, err)
		}
	case heapKindCommit:
		lh.ix.commit(rec.epoch)
	case heapKindRollback:
		lh.ix.rollback(rec.epoch)
	}
	lh.lastPhys = seq
	lh.dirty++
	return nil
}

// recomputeRetainLocked refreshes the retention floor: the lowest segment
// base holding a live version, or ckptW+1 (the first record replay would
// need), whichever is lower. Any physical sequence >= the floor survives
// segment collection. Only ever called with mu held; the gate itself just
// reads the atomic.
func (lh *LogHeap) recomputeRetainLocked() {
	floor := lh.ckptW + 1
	for _, vs := range lh.ix.buckets {
		for i := range vs {
			floor = min(floor, vs[i].seg)
		}
	}
	lh.retainFloor.Store(floor)
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

// ReadSlots implements BucketStore: refs carrying the write-through mirror
// are answered from memory, the rest — only versions installed by recovery
// replay — are read back out of the log.
func (lh *LogHeap) ReadSlots(refs []SlotRef) ([][]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.checkOpen(); err != nil {
		return nil, err
	}
	return lh.ix.readSlots(refs, lh)
}

// ReadBucket implements BucketStore.
func (lh *LogHeap) ReadBucket(bucket int) ([][]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.checkOpen(); err != nil {
		return nil, err
	}
	return lh.ix.readBucket(bucket, lh)
}

// encodeSlots implements readEncoder: the vector is read as ReadSlots reads
// it and copied into the reply before the lock is released.
func (lh *LogHeap) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.checkOpen(); err != nil {
		return dst, err
	}
	return lh.ix.encodeSlots(dst, refs, lh)
}

// encodeBucket implements readEncoder.
func (lh *LogHeap) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.checkOpen(); err != nil {
		return dst, err
	}
	return lh.ix.encodeBucket(dst, bucket, lh)
}

// preadVersion implements versionFile over the log.
func (lh *LogHeap) preadVersion(seg uint64, off int64, n int) ([]byte, error) {
	return lh.log.readRangeInto(nil, seg, off, n)
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
// in the heap's one buffer, which is what the log writes out, and the slots
// are copied once more into the version's mirror slab. Framing,
// append and index install all happen under the lock, so the stream's record
// order equals the index mutation order replay will reproduce — and lastPhys
// (the checkpoint watermark source) never runs behind an installed record.
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
		if err := lh.ix.write(w.Bucket, v, w.Slots); err != nil {
			return err
		}
		lh.lastPhys = res.seq
		lh.dirty++
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
	if err := lh.log.syncLog(); err != nil {
		return err
	}
	lh.maybeKick()
	return nil
}

// commitEpochNoSync is logHeapShard's CommitEpochNoSync: the commit record
// is appended and applied but its durability rides the caller's next
// SyncLog — the proxy's round barrier, where N shards' commits and the
// coordinator's committing checkpoint all stand on one fsync.
func (lh *LogHeap) commitEpochNoSync(epoch uint64) error {
	if err := lh.appendEpochRecord(heapKindCommit, epoch); err != nil {
		return err
	}
	lh.maybeKick()
	return nil
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
// the versions written at or below the committed epoch since need.
func (lh *LogHeap) appendEpochRecord(kind byte, epoch uint64) error {
	lh.commitMu.Lock()
	defer lh.commitMu.Unlock()
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
		lh.dirty++
	}
	if kind == heapKindCommit {
		lh.ix.commit(epoch)
	} else {
		lh.ix.rollback(epoch)
		// Entries above the rollback target are gone; the floor may rise,
		// but more importantly replay must re-see the rollback record, which
		// ckptW+1 <= lastPhys already guarantees.
		lh.recomputeRetainLocked()
	}
	return nil
}

func (lh *LogHeap) maybeKick() {
	lh.mu.RLock()
	due := lh.dirty >= maintainEvery
	lh.mu.RUnlock()
	if due && lh.kick != nil {
		lh.kick()
	}
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

// ---- index checkpoint ----

// Checkpoint atomically replaces the shard's index checkpoint with the
// current index and a watermark W = lastPhys, then raises the retention
// floor so segments holding only pre-W records (and no live versions)
// become collectible. Ordering is what makes it crash-safe:
//
//  1. Snapshot index + W under the read lock — W covers exactly the
//     records the snapshot reflects, never more, because append + install
//     + lastPhys update are atomic under mu.
//  2. A barrier on W. Every record <= W is now durable, so the checkpoint
//     never points at (or bounds replay past) data a crash could still
//     tear.
//  3. Write tmp, fsync, rename, dir-sync — the install is atomic; a crash
//     before the rename leaves the old checkpoint, after it the new one,
//     and either replays to the same state (replay above the respective W
//     fills the difference).
func (lh *LogHeap) Checkpoint() error {
	lh.commitMu.Lock()
	defer lh.commitMu.Unlock()
	lh.mu.RLock()
	if err := lh.log.checkUsable(); err != nil {
		lh.mu.RUnlock()
		return err
	}
	w := lh.lastPhys
	committed := lh.ix.committed
	// One flat copy, sliced per bucket: a checkpoint runs every maintenance
	// pass and must not cost an allocation per bucket.
	total, encoded := 0, 0
	for _, vs := range lh.ix.buckets {
		total += len(vs)
		for i := range vs {
			encoded += recordFrameSize + lhixVersionDataStart + 4*vs[i].layout.n
		}
	}
	flat := make([]version, 0, total)
	snap := make([][]version, len(lh.ix.buckets))
	for i, vs := range lh.ix.buckets {
		flat = append(flat, vs...)
		snap[i] = flat[len(flat)-len(vs):]
	}
	dirtyAt := lh.dirty
	lh.mu.RUnlock()

	if err := lh.log.barrier(w); err != nil {
		return err
	}

	tmpName := joinPath(lh.dir, heapIndexName+tmpSuffix)
	tf, err := lh.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tf.Close()
		_ = lh.fsys.Remove(tmpName)
		return err
	}
	// Sized up front (to the flush threshold at most): the file is written
	// from one buffer, not from a chain of doublings.
	buf := make([]byte, 0, fileHeaderSize+32+min(encoded, 1<<20))
	buf = append(buf, encodeFileHeader(lhixMagic, uint32(lh.numBuckets), w)...)
	buf = encodeRecord(buf, encodeEpochBody(lhixKindState, committed))
	off := int64(0)
	flush := func() error {
		if _, err := tf.WriteAt(buf, off); err != nil {
			return err
		}
		off += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	var body []byte
	for bucket, vs := range snap {
		for i := range vs {
			v := &vs[i]
			body = appendLhixVersion(body[:0], bucket, v.epoch, v.seg, v.off, int(lh.ix.recLen(v)), v.layout)
			buf = encodeRecord(buf, body)
			if len(buf) >= 1<<20 {
				if err := flush(); err != nil {
					return abort(err)
				}
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return abort(err)
		}
	}
	if err := tf.Sync(); err != nil {
		return abort(err)
	}
	if err := lh.fsys.Rename(tmpName, joinPath(lh.dir, heapIndexName)); err != nil {
		return abort(err)
	}
	if err := lh.fsys.SyncDir(lh.dir); err != nil {
		tf.Close()
		return err
	}
	tf.Close()

	lh.mu.Lock()
	if w > lh.ckptW {
		lh.ckptW = w
	}
	if lh.dirty >= dirtyAt {
		lh.dirty -= dirtyAt
	} else {
		lh.dirty = 0
	}
	lh.recomputeRetainLocked()
	lh.mu.Unlock()
	return nil
}

// ---- segment GC ----

// EvacuateSegment copies this heap's live versions out of the segment based
// at segBase, re-appending each as a heapKindGCCopy record at the log head
// and flipping its index entry — the only mutation, so a crash anywhere
// leaves either the old location (still on disk: the floor has not risen)
// or the new one. Each copy happens under the lock against the entry it
// copies, so a copy record in the log always reflects the entry's state at
// append time; replay leans on that to relocate exactly the still-current
// copies. Returns how many versions moved. The segment becomes collectible
// only after the caller's next Checkpoint: that makes the copies durable and
// installs an index that no longer points into the old segment before the
// retention floor rises.
func (lh *LogHeap) EvacuateSegment(segBase uint64) (int, error) {
	lh.commitMu.Lock()
	defer lh.commitMu.Unlock()

	type ref struct {
		bucket int
		epoch  uint64
		off    int64
		recLen int
	}
	lh.mu.RLock()
	if err := lh.log.checkUsable(); err != nil {
		lh.mu.RUnlock()
		return 0, err
	}
	var refs []ref
	for bucket, vs := range lh.ix.buckets {
		for i := range vs {
			if vs[i].seg == segBase {
				refs = append(refs, ref{bucket: bucket, epoch: vs[i].epoch, off: vs[i].off, recLen: int(lh.ix.recLen(&vs[i]))})
			}
		}
	}
	lh.mu.RUnlock()

	moved := 0
	var frame []byte // one buffer for every copy: a pass moves thousands
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
		var err error
		frame, err = lh.log.readRangeInto(frame, segBase, r.off, r.recLen)
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
		// frame is this call's own buffer: flip the kind in place and send
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
		lh.dirty++
		lh.mu.Unlock()
		moved++
	}
	return moved, nil
}
