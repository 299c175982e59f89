package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// LogHeap is the log-structured bucket heap: one shard's BucketStore whose
// version records ride the SAME physical segmented log as the group's
// recovery-log streams (a dedicated bucket-data stream id on the
// SharedLog). That is the whole point of the design — an epoch's bucket
// commit record and the WAL checkpoint that commits it land in one file, so
// the round's single deferred-barrier fsync covers both: heap commit and log
// barrier share a wave instead of each costing one.
//
// State is an in-memory index (bucket → version stack, newest last, each
// entry locating a version record in the shared log) plus a committed-epoch
// frontier, exactly MemBackend's shadow-paging shape. Nothing on disk is
// ever mutated in place:
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
// owner's segment retention gate (retainFloor) keeps any segment holding a
// live version or an un-checkpointed record alive past WAL truncation.
type LogHeap struct {
	owner  *DiskBackend // shard 0's backend: owns the physical log
	shared *SharedLog
	stream int // bucket-data stream index on shared

	fsys       vfs
	dir        string // this shard's directory; holds the index checkpoint
	numBuckets int

	// commitMu serializes the stream-order-sensitive multi-step operations
	// — commit/rollback barriers, checkpointing, segment GC — against each
	// other, mirroring DiskBackend.commitMu.
	commitMu sync.Mutex

	mu        sync.RWMutex
	index     [][]logVersion // per bucket: version stack, oldest first
	committed uint64
	lastPhys  uint64 // physical seq of this stream's newest record
	ckptW     uint64 // watermark of the installed index checkpoint
	dirty     int    // own-stream records appended since that checkpoint
	frame     []byte // framing buffer: one stream record at a time

	// retainFloor is the segment retention gate's input: the first physical
	// sequence this heap still needs on disk (lowest live version's segment
	// base, or ckptW+1 for un-checkpointed records, whichever is lower).
	// Atomic because the gate reads it while holding the owner's logMu,
	// which is *below* mu in the lock order.
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

// logVersion locates one shadow-paged bucket version inside the shared
// physical log.
type logVersion struct {
	epoch    uint64
	segBase  uint64
	off      int64 // frame offset of the whole record within its segment
	recLen   int   // framed record length
	slotLens []uint32
	// cached mirrors the slot bytes in memory, write-through only (same
	// policy as diskVersion): WriteBuckets installs what it just encoded,
	// replay leaves nil and those reads fall back to preads.
	cached [][]byte
}

// dataOff is the file offset of the version's first slot-length prefix:
// past the record frame, the stream-id header and the version-body header.
func (v *logVersion) dataOff() int64 {
	return v.off + recordFrameSize + sharedLogHdrSize + heapVersionDataStart
}

func (v *logVersion) slotRange(slot int) (off int64, n int) {
	off = v.dataOff()
	for i := 0; i < slot; i++ {
		off += 4 + int64(v.slotLens[i])
	}
	return off + 4, int(v.slotLens[slot])
}

func (v *logVersion) span() (off int64, n int) {
	off = v.dataOff()
	for _, l := range v.slotLens {
		n += 4 + int(l)
	}
	return off, n
}

var _ BucketStore = (*LogHeap)(nil)

// newLogHeap loads the shard's index checkpoint; the caller then replays
// own-stream records above the returned watermark through replayRecord (via
// the SharedLog demux scan) and finally attaches the shared log.
func newLogHeap(owner *DiskBackend, fsys vfs, dir string, stream, numBuckets int) (*LogHeap, error) {
	lh := &LogHeap{
		owner:      owner,
		stream:     stream,
		fsys:       fsys,
		dir:        dir,
		numBuckets: numBuckets,
		index:      make([][]logVersion, numBuckets),
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
	index := make([][]logVersion, lh.numBuckets)
	var committed uint64
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
			committed = rec.committed
		case lhixKindVersion:
			if rec.bucket < 0 || rec.bucket >= lh.numBuckets {
				return fmt.Errorf("storage: heap index checkpoint references bucket %d of %d", rec.bucket, lh.numBuckets)
			}
			index[rec.bucket] = append(index[rec.bucket], logVersion{
				epoch:    rec.epoch,
				segBase:  rec.segBase,
				off:      rec.off,
				recLen:   rec.recLen,
				slotLens: rec.slotLens,
			})
		}
		off += int64(total)
	}
	lh.index = index
	lh.committed = committed
	lh.ckptW = w
	return nil
}

// attach wires the replayed heap to its shared log and maintenance hook.
func (lh *LogHeap) attach(shared *SharedLog, kick func()) {
	lh.shared = shared
	lh.kick = kick
}

// replayRecord applies one own-stream record during the open-time demux
// scan. Record order equals the original mutation order (appends and index
// mutations happen under one lock at runtime), so replay reproduces the
// exact index state as of the log's end.
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
		v := logVersion{
			epoch:    rec.epoch,
			segBase:  segBase,
			off:      off,
			recLen:   recordFrameSize + sharedLogHdrSize + len(body),
			slotLens: rec.slotLens,
		}
		if rec.kind == heapKindGCCopy {
			// A GC copy re-locates the version it copied, and only if that
			// version is still the bucket's entry for its epoch: at runtime
			// the copy was appended under the lock only while the entry
			// matched, so by induction a mismatch here means a later record
			// already superseded or rolled the version back — ignore.
			vs := lh.index[rec.bucket]
			for j := len(vs) - 1; j >= 0; j-- {
				if vs[j].epoch == rec.epoch {
					vs[j] = v
					break
				}
				if vs[j].epoch < rec.epoch {
					break
				}
			}
		} else if err := lh.installVersionLocked(rec.bucket, v); err != nil {
			return fmt.Errorf("storage: bucket stream %d replay: %w", lh.stream, err)
		}
	case heapKindCommit:
		lh.applyCommitLocked(rec.epoch)
	case heapKindRollback:
		lh.applyRollbackLocked(rec.epoch)
	}
	lh.lastPhys = seq
	lh.dirty++
	return nil
}

// finishOpen recomputes the retention floor once replay is done; the group
// installs the gate right after.
func (lh *LogHeap) finishOpen() {
	lh.mu.Lock()
	lh.recomputeRetainLocked()
	lh.mu.Unlock()
}

// recomputeRetainLocked refreshes the retention floor: the lowest segment
// base holding a live version, or ckptW+1 (the first record replay would
// need), whichever is lower. Any physical sequence >= the floor survives
// segment collection. Only ever called with mu held; the gate itself just
// reads the atomic.
func (lh *LogHeap) recomputeRetainLocked() {
	floor := lh.ckptW + 1
	for _, vs := range lh.index {
		for i := range vs {
			if vs[i].segBase < floor {
				floor = vs[i].segBase
			}
		}
	}
	lh.retainFloor.Store(floor)
}

// ---- shadow-paging index transitions (same rules as DiskBackend) ----

func (lh *LogHeap) installVersionLocked(bucket int, v logVersion) error {
	vs := lh.index[bucket]
	if n := len(vs); n > 0 && vs[n-1].epoch == v.epoch {
		vs[n-1] = v
		return nil
	}
	if n := len(vs); n > 0 && vs[n-1].epoch > v.epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, v.epoch, vs[n-1].epoch)
	}
	lh.index[bucket] = append(vs, v)
	return nil
}

func (lh *LogHeap) applyCommitLocked(epoch uint64) {
	if epoch > lh.committed {
		lh.committed = epoch
	}
	for i, vs := range lh.index {
		keep := -1
		for j := len(vs) - 1; j >= 0; j-- {
			if vs[j].epoch <= lh.committed {
				keep = j
				break
			}
		}
		if keep > 0 {
			lh.index[i] = append(vs[:0], vs[keep:]...)
		}
	}
}

func (lh *LogHeap) applyRollbackLocked(epoch uint64) {
	for i, vs := range lh.index {
		n := len(vs)
		for n > 0 && vs[n-1].epoch > epoch {
			n--
		}
		lh.index[i] = vs[:n]
	}
	if lh.committed > epoch {
		lh.committed = epoch
	}
}

// ---- BucketStore reads ----

// NumBuckets implements BucketStore.
func (lh *LogHeap) NumBuckets() (int, error) {
	if err := lh.owner.checkUsable(); err != nil {
		return 0, err
	}
	return lh.numBuckets, nil
}

func (lh *LogHeap) newestVersionLocked(bucket int) (*logVersion, error) {
	if err := checkBucket(bucket, lh.numBuckets); err != nil {
		return nil, err
	}
	vs := lh.index[bucket]
	if len(vs) == 0 {
		return nil, nil
	}
	return &vs[len(vs)-1], nil
}

func (lh *LogHeap) lookupSlotLocked(bucket, slot int) (*logVersion, error) {
	v, err := lh.newestVersionLocked(bucket)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, fmt.Errorf("%w: bucket %d never written", ErrNoSuchSlot, bucket)
	}
	if slot < 0 || slot >= len(v.slotLens) {
		return nil, fmt.Errorf("%w: bucket %d slot %d (have %d)", ErrNoSuchSlot, bucket, slot, len(v.slotLens))
	}
	return v, nil
}

// ReadSlot implements BucketStore.
func (lh *LogHeap) ReadSlot(bucket, slot int) ([]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.owner.checkUsable(); err != nil {
		return nil, err
	}
	v, err := lh.lookupSlotLocked(bucket, slot)
	if err != nil {
		return nil, err
	}
	if v.cached != nil {
		return v.cached[slot], nil
	}
	off, n := v.slotRange(slot)
	return lh.owner.readLogRange(v.segBase, off, n)
}

// ReadSlots implements BucketStore. The vector fails atomically (every ref
// validated before any I/O); refs carrying the write-through mirror are
// answered from memory, the rest — only versions installed by recovery
// replay — fall back to per-version preads out of the shared log.
func (lh *LogHeap) ReadSlots(refs []SlotRef) ([][]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.owner.checkUsable(); err != nil {
		return nil, err
	}
	type slotRead struct {
		resIdx  int
		segBase uint64
		off     int64
		n       int
	}
	reads := make([]slotRead, 0, len(refs))
	out := make([][]byte, len(refs))
	for i, r := range refs {
		v, err := lh.lookupSlotLocked(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		if v.cached != nil {
			out[i] = v.cached[r.Slot]
			continue
		}
		off, n := v.slotRange(r.Slot)
		reads = append(reads, slotRead{resIdx: i, segBase: v.segBase, off: off, n: n})
	}
	sort.Slice(reads, func(i, j int) bool {
		if reads[i].segBase != reads[j].segBase {
			return reads[i].segBase < reads[j].segBase
		}
		return reads[i].off < reads[j].off
	})
	for start := 0; start < len(reads); {
		end := start
		runEnd := reads[start].off + int64(reads[start].n)
		for end+1 < len(reads) && reads[end+1].segBase == reads[start].segBase &&
			reads[end+1].off <= runEnd+readCoalesceGap {
			end++
			if e := reads[end].off + int64(reads[end].n); e > runEnd {
				runEnd = e
			}
		}
		base := reads[start].off
		buf, err := lh.owner.readLogRange(reads[start].segBase, base, int(runEnd-base))
		if err != nil {
			return nil, err
		}
		for i := start; i <= end; i++ {
			lo := reads[i].off - base
			out[reads[i].resIdx] = buf[lo : lo+int64(reads[i].n)]
		}
		start = end + 1
	}
	return out, nil
}

// ReadBucket implements BucketStore.
func (lh *LogHeap) ReadBucket(bucket int) ([][]byte, error) {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if err := lh.owner.checkUsable(); err != nil {
		return nil, err
	}
	v, err := lh.newestVersionLocked(bucket)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return lh.readVersionSlotsLocked(v)
}

func (lh *LogHeap) readVersionSlotsLocked(v *logVersion) ([][]byte, error) {
	if v.cached != nil {
		return v.cached, nil
	}
	off, n := v.span()
	buf, err := lh.owner.readLogRange(v.segBase, off, n)
	if err != nil {
		return nil, err
	}
	return splitSlots(buf, v.slotLens), nil
}

// ---- BucketStore writes ----

func (lh *LogHeap) validateWriteLocked(bucket int, epoch uint64) error {
	if err := checkBucket(bucket, lh.numBuckets); err != nil {
		return err
	}
	vs := lh.index[bucket]
	if n := len(vs); n > 0 && vs[n-1].epoch > epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, epoch, vs[n-1].epoch)
	}
	return nil
}

// beginFrame starts a stream record in the heap's framing buffer (mu held):
// an empty frame header and room for the stream header; the caller appends
// the body and hands the whole to appendHeapFrame.
func (lh *LogHeap) beginFrame() []byte {
	return append(beginRecord(lh.frame[:0]), make([]byte, sharedLogHdrSize)...)
}

// WriteBucket implements BucketStore.
func (lh *LogHeap) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return lh.WriteBuckets([]BucketWrite{{Bucket: bucket, Epoch: epoch, Slots: slots}})
}

// WriteBuckets implements BucketStore: one version record per bucket into
// the shared log, no fsync (CommitEpoch's wave is the barrier; shadow paging
// makes a torn or unsynced version harmless). Each record is framed in place
// in the heap's one buffer, which is what the log writes out. Framing,
// append and index install all happen under the lock, so the stream's record
// order equals the index mutation order replay will reproduce — and lastPhys
// (the checkpoint watermark source) never runs behind an installed record.
// Writes install in vector order and stop at the first failing entry,
// leaving the validated prefix installed.
func (lh *LogHeap) WriteBuckets(writes []BucketWrite) error {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	for _, w := range writes {
		if err := lh.validateWriteLocked(w.Bucket, w.Epoch); err != nil {
			return err
		}
		lh.frame = appendVersionBody(lh.beginFrame(), heapKindVersion, w.Bucket, w.Epoch, w.Slots)
		res, err := lh.shared.appendHeapFrame(lh.stream, lh.frame)
		if err != nil {
			return err
		}
		lh.owner.notePending(res.f, res.ticket)
		v := logVersion{
			epoch:    w.Epoch,
			segBase:  res.segBase,
			off:      res.off,
			recLen:   res.n,
			slotLens: slotLengths(w.Slots),
			cached:   w.Slots, // take ownership, like MemBackend
		}
		if err := lh.installVersionLocked(w.Bucket, v); err != nil {
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
	needBarrier, err := lh.appendEpochRecord(heapKindCommit, epoch)
	if err != nil {
		return err
	}
	if needBarrier {
		if err := lh.owner.SyncLog(); err != nil {
			return err
		}
	}
	lh.maybeKick()
	return nil
}

// CommitEpochNoSync implements EpochCommitBatcher: the commit record is
// appended and applied but its durability rides the caller's next SyncLog —
// the proxy's round barrier, where N shards' commits and the coordinator's
// committing checkpoint all stand on one fsync.
func (lh *LogHeap) CommitEpochNoSync(epoch uint64) error {
	if _, err := lh.appendEpochRecord(heapKindCommit, epoch); err != nil {
		return err
	}
	lh.maybeKick()
	return nil
}

// RollbackTo implements BucketStore. Rollbacks always log and always
// barrier: the index shrinks, and replay must see that before the caller
// builds on the reverted state.
func (lh *LogHeap) RollbackTo(epoch uint64) error {
	if _, err := lh.appendEpochRecord(heapKindRollback, epoch); err != nil {
		return err
	}
	return lh.owner.SyncLog()
}

// appendEpochRecord appends a commit/rollback record and applies it to the
// index in one critical section. An already-covered commit (epoch <=
// committed) appends nothing and needs no barrier, mirroring DiskBackend.
func (lh *LogHeap) appendEpochRecord(kind byte, epoch uint64) (appended bool, err error) {
	lh.commitMu.Lock()
	defer lh.commitMu.Unlock()
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if err := lh.owner.checkUsable(); err != nil {
		return false, err
	}
	needRecord := kind == heapKindRollback || epoch > lh.committed
	if needRecord {
		lh.frame = append(lh.beginFrame(), encodeEpochBody(kind, epoch)...)
		res, err := lh.shared.appendHeapFrame(lh.stream, lh.frame)
		if err != nil {
			return false, err
		}
		lh.owner.notePending(res.f, res.ticket)
		lh.lastPhys = res.seq
		lh.dirty++
	}
	if kind == heapKindCommit {
		lh.applyCommitLocked(epoch)
	} else {
		lh.applyRollbackLocked(epoch)
		// Entries above the rollback target are gone; the floor may rise,
		// but more importantly replay must re-see the rollback record, which
		// ckptW+1 <= lastPhys already guarantees.
		lh.recomputeRetainLocked()
	}
	return needRecord, nil
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
// helper, parity with DiskBackend).
func (lh *LogHeap) CommittedEpoch() uint64 {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	return lh.committed
}

// VersionCount reports how many shadow versions a bucket holds. Test
// helper.
func (lh *LogHeap) VersionCount(bucket int) int {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	if bucket < 0 || bucket >= len(lh.index) {
		return 0
	}
	return len(lh.index[bucket])
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
//  2. SyncLog. Every own-stream record <= W is now durable, so the
//     checkpoint never points at (or bounds replay past) data a crash
//     could still tear.
//  3. Write tmp, fsync, rename, dir-sync — the install is atomic; a crash
//     before the rename leaves the old checkpoint, after it the new one,
//     and either replays to the same state (replay above the respective W
//     fills the difference).
func (lh *LogHeap) Checkpoint() error {
	lh.commitMu.Lock()
	defer lh.commitMu.Unlock()
	lh.mu.RLock()
	if err := lh.owner.checkUsable(); err != nil {
		lh.mu.RUnlock()
		return err
	}
	w := lh.lastPhys
	committed := lh.committed
	// One flat copy, sliced per bucket: a checkpoint runs every maintenance
	// pass and must not cost an allocation per bucket.
	total, encoded := 0, 0
	for _, vs := range lh.index {
		total += len(vs)
		for i := range vs {
			encoded += recordFrameSize + lhixVersionDataStart + 4*len(vs[i].slotLens)
		}
	}
	flat := make([]logVersion, 0, total)
	snap := make([][]logVersion, len(lh.index))
	for i, vs := range lh.index {
		flat = append(flat, vs...)
		snap[i] = flat[len(flat)-len(vs):]
	}
	dirtyAt := lh.dirty
	lh.mu.RUnlock()

	if err := lh.owner.SyncLog(); err != nil {
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
			body = appendLhixVersion(body[:0], bucket, v.epoch, v.segBase, v.off, v.recLen, v.slotLens)
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
		stack  int
		epoch  uint64
		off    int64
		recLen int
	}
	lh.mu.RLock()
	if err := lh.owner.checkUsable(); err != nil {
		lh.mu.RUnlock()
		return 0, err
	}
	var refs []ref
	for bucket, vs := range lh.index {
		for i := range vs {
			if vs[i].segBase == segBase {
				refs = append(refs, ref{bucket: bucket, stack: i, epoch: vs[i].epoch, off: vs[i].off, recLen: vs[i].recLen})
			}
		}
	}
	lh.mu.RUnlock()

	moved := 0
	var frame []byte // one buffer for every copy: a pass moves thousands
	for _, r := range refs {
		lh.mu.Lock()
		vs := lh.index[r.bucket]
		// Re-find the entry: commits/rollbacks may have shifted the stack
		// since the snapshot. Identity is (epoch, location).
		cur := -1
		for j := range vs {
			if vs[j].epoch == r.epoch && vs[j].segBase == segBase && vs[j].off == r.off {
				cur = j
				break
			}
		}
		if cur < 0 {
			lh.mu.Unlock()
			continue // superseded or rolled back since the snapshot
		}
		var err error
		frame, err = lh.owner.readLogRangeInto(frame, segBase, r.off, r.recLen)
		if err != nil {
			lh.mu.Unlock()
			return moved, err
		}
		body, size, err := decodeRecord(frame)
		if err != nil {
			lh.mu.Unlock()
			return moved, fmt.Errorf("storage: GC re-reading segment %d offset %d: %w", segBase, r.off, err)
		}
		if len(body) <= sharedLogHdrSize {
			lh.mu.Unlock()
			return moved, fmt.Errorf("storage: GC re-reading segment %d offset %d: record shorter than its stream header", segBase, r.off)
		}
		// frame is this call's own buffer: flip the kind in place and send
		// the same bytes back to the log head.
		body[sharedLogHdrSize] = heapKindGCCopy
		res, err := lh.shared.appendHeapFrame(lh.stream, frame[:size])
		if err != nil {
			lh.mu.Unlock()
			return moved, err
		}
		lh.owner.notePending(res.f, res.ticket)
		v := &lh.index[r.bucket][cur]
		v.segBase = res.segBase
		v.off = res.off
		v.recLen = res.n
		lh.lastPhys = res.seq
		lh.dirty++
		lh.mu.Unlock()
		moved++
	}
	return moved, nil
}
