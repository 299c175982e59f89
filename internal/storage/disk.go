package storage

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
)

// DiskBackend is one shard's bucket heap in a per-shard-file disk group: a
// durable, crash-atomic BucketStore kept in buckets.heap, a slotted heap of
// shadow-paged bucket versions in the shard's directory. WriteBuckets
// appends version records (no fsync: shadow paging makes uncommitted
// versions discardable); CommitEpoch appends a commit record and stands on
// the group's barrier for it — the durability point a commit ack stands on;
// RollbackTo appends a rollback record and does the same. The version index
// (versionIndex) retires superseded committed versions on commit; compaction
// drops their bytes. The shard's log stream rides the group's physical log
// (diskLog), not this file.
//
// Every record is length-prefixed and checksummed; replay stops at the first
// invalid record and truncates the torn tail, so reopening after a crash at
// any point recovers exactly the state of the last completed barrier. All
// I/O goes through the vfs abstraction so tests can interpose fault
// injection.
type DiskBackend struct {
	fsys vfs
	dir  string

	failStop

	numBuckets int // immutable after open

	// group is the shared fsync scheduler CommitEpoch and RollbackTo stand
	// on, so barriers from shards sharing a data dir coalesce into one flush
	// wave.
	group *CommitGroup

	// commitMu serializes the heap's durability barriers — CommitEpoch,
	// RollbackTo and the compaction swap — against each other, so the heap
	// file handle is stable across a barrier even though mu is released
	// while the fsync is in flight.
	commitMu sync.Mutex

	// Bucket heap (guarded by mu).
	mu             sync.RWMutex
	heap           vfile
	heapSize       int64
	heapReserved   int64 // preallocated frontier (>= heapSize when reserved ahead)
	ix             versionIndex
	heapCompactMin int64 // compact only past this much dead data

	// Background heap compactor (nil channels when off: tests drive
	// CompactNow explicitly for determinism).
	compactKick chan struct{}
	compactStop chan struct{}
	compactWG   sync.WaitGroup
}

var _ readEncoder = (*DiskBackend)(nil)

// diskDataStart is how far past its frame a heap version record's first
// slot-length prefix lies.
const diskDataStart = recordFrameSize + heapVersionDataStart

const (
	heapFileName = "buckets.heap"
	// kvFileName is the key-value journal older disk stores kept; an open
	// only checks that it holds no records (refuseKVJournal).
	kvFileName   = "kv.log"
	metaFileName = "meta"
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	tmpSuffix    = ".tmp"
)

const (
	defaultHeapCompactMin = 1 << 20
	defaultSegMaxBytes    = 4 << 20
	// readCoalesceGap merges vectored slot reads whose file ranges are
	// within this many bytes into one pread.
	readCoalesceGap = 4096
)

// DiskOptions tunes OpenDiskGroupOpts beyond the defaults.
type DiskOptions struct {
	// SegMaxBytes overrides the log segment roll-over size (0 = default).
	// Exposed for tests that need many segments.
	SegMaxBytes int64
	// LogHeap selects the log-structured bucket heap, the layout
	// obladi-storage serves: bucket version records ride the shared
	// physical log alongside the recovery-log streams, so an epoch's heap
	// commit and its log barrier share a single fsync wave. Without it each
	// shard keeps its own buckets.heap. A data dir is created in one mode
	// and refuses to open in the other.
	LogHeap bool
}

// diskOpts is the internal option set; crash-harness opens leave
// autoCompact off (and workers at 1) so the swept op sequence stays
// deterministic, driving CompactNow explicitly instead.
type diskOpts struct {
	DiskOptions
	// group is the shared fsync scheduler every barrier goes through (a
	// group open makes its own when none is given).
	group       *CommitGroup
	workers     int
	autoCompact bool
}

// openDiskBackend opens (or creates) the bucket heap in dir, which holds
// numBuckets buckets, with every barrier on opts.group.
func openDiskBackend(fsys vfs, dir string, numBuckets int, opts diskOpts) (*DiskBackend, error) {
	b := &DiskBackend{
		failStop:       failStop{name: "bucket heap " + dir},
		fsys:           fsys,
		dir:            dir,
		numBuckets:     numBuckets,
		group:          opts.group,
		heapCompactMin: defaultHeapCompactMin,
	}
	if err := b.openHeap(); err != nil {
		if b.heap != nil {
			b.heap.Close()
		}
		return nil, err
	}
	// Creating buckets.heap fsyncs its contents, but on ext4 a new file's
	// *directory entry* is only durable after a directory fsync; without it,
	// an acked first commit could vanish with the whole file on power loss.
	if err := fsys.SyncDir(dir); err != nil {
		b.heap.Close()
		return nil, err
	}
	if opts.autoCompact {
		b.compactKick = make(chan struct{}, 1)
		b.compactStop = make(chan struct{})
		b.compactWG.Add(1)
		go b.compactLoop()
	}
	return b, nil
}

// prepareShardDir readies one shard directory of a group for its opens: a
// crashed compaction, checkpoint or meta update leaves a stray temp file,
// never renamed into place, so it is dead weight; and a kv.log holding
// records is refused (refuseKVJournal).
func prepareShardDir(fsys vfs, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating data dir: %w", err)
	}
	names, err := fsys.List(dir)
	if err != nil {
		return fmt.Errorf("storage: listing data dir: %w", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) && len(n) > len(tmpSuffix) {
			_ = fsys.Remove(joinPath(dir, n))
		}
	}
	if slices.Contains(names, kvFileName) {
		return refuseKVJournal(fsys, dir)
	}
	return nil
}

// refuseKVJournal fails the open of a directory whose kv.log — the journal
// older disk stores kept a key-value namespace in — holds a record: no disk
// store serves that namespace any more, and opening would hide it. A
// header-only journal, which is all a proxy's data dir ever held, is left
// alone.
func refuseKVJournal(fsys vfs, dir string) error {
	name := joinPath(dir, kvFileName)
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("storage: opening %s: %w", name, err)
	}
	size, err := f.Size()
	f.Close()
	if err != nil {
		return err
	}
	if size > fileHeaderSize {
		return fmt.Errorf("storage: %s holds %d bytes of key-value records: %w", name, size-fileHeaderSize, ErrNoKV)
	}
	return nil
}

// ---- heap open / replay ----

func (b *DiskBackend) openHeap() error {
	f, err := b.fsys.OpenFile(joinPath(b.dir, heapFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening bucket heap: %w", err)
	}
	b.heap = f
	b.ix = newVersionIndex(b.numBuckets, diskDataStart)
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size < fileHeaderSize {
		// Empty, or shorter than a header: creation never durably completed
		// (the header is synced before any record can follow it), so no
		// committed data can exist — initialize fresh.
		if err := f.Truncate(0); err != nil {
			return err
		}
		hdr := encodeFileHeader(heapMagic, uint32(b.numBuckets), 0)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			return fmt.Errorf("storage: initializing bucket heap: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
		b.heapSize = fileHeaderSize
		b.heapReserved = fileHeaderSize
		return nil
	}
	hdr, err := readFileRange(f, 0, fileHeaderSize)
	if err != nil {
		return err
	}
	nb, _, err := decodeFileHeader(hdr, heapMagic)
	if err != nil {
		return fmt.Errorf("storage: bucket heap: %w", err)
	}
	if int(nb) != b.numBuckets {
		return fmt.Errorf("storage: bucket heap holds %d buckets but meta says %d", nb, b.numBuckets)
	}
	end, err := b.replayHeap(f, size)
	if err != nil {
		return err
	}
	if end < size {
		// Torn tail from a crash between the last fsync barrier and the
		// crash point; every record past end is unreachable by replay.
		if err := f.Truncate(end); err != nil {
			return fmt.Errorf("storage: truncating torn heap tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	b.heapSize = end
	b.heapReserved = end
	return nil
}

// replayHeap scans heap records from the header to the first invalid record,
// rebuilding the version index, and returns the offset replay stopped at.
func (b *DiskBackend) replayHeap(f vfile, size int64) (int64, error) {
	sc := newRecordScanner(f, fileHeaderSize, size)
	off := int64(fileHeaderSize)
	for off < size {
		body, total, err := sc.next()
		if err != nil {
			if errors.Is(err, errTornRecord) {
				return off, nil
			}
			return 0, fmt.Errorf("storage: bucket heap at offset %d: %w", off, err)
		}
		rec, err := parseHeapBody(body)
		if err != nil {
			// A structurally invalid body under a valid checksum is not a
			// torn write — it is corruption, and must fail loudly.
			return 0, fmt.Errorf("storage: bucket heap at offset %d: %w", off, err)
		}
		switch rec.kind {
		case heapKindVersion:
			v := version{epoch: rec.epoch, layout: layoutFromLens(rec.slotLens), off: off}
			if err := b.ix.install(rec.bucket, v); err != nil {
				return 0, fmt.Errorf("storage: bucket heap replay: %w", err)
			}
		case heapKindCommit:
			b.ix.commit(rec.epoch)
		case heapKindRollback:
			b.ix.rollback(rec.epoch)
		}
		off += int64(total)
	}
	return off, nil
}

// appendHeapLocked appends pre-framed bytes to the heap file (no fsync).
// heapPreallocChunk is how much backing store the heap reserves ahead of
// its append frontier, so write-backs land in preallocated blocks and the
// epoch barriers flush data without allocation-metadata journal commits.
const heapPreallocChunk = 4 << 20

func (b *DiskBackend) appendHeapLocked(framed []byte) error {
	if end := b.heapSize + int64(len(framed)); end > b.heapReserved {
		r := end + heapPreallocChunk
		preallocate(b.heap, b.heapReserved, r-b.heapReserved)
		// Advance regardless of fallocate support: on the fallback path the
		// reservation is notional and writes allocate as they always did.
		b.heapReserved = r
	}
	if _, err := b.heap.WriteAt(framed, b.heapSize); err != nil {
		return b.wedge(err)
	}
	b.heapSize += int64(len(framed))
	return nil
}

// ---- BucketStore ----

// NumBuckets implements BucketStore.
func (b *DiskBackend) NumBuckets() (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return 0, err
	}
	return b.numBuckets, nil
}

// ReadSlot implements BucketStore.
func (b *DiskBackend) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(b, bucket, slot) }

// ReadSlots implements BucketStore: the whole vector resolves under one lock
// acquisition. Refs whose version carries the in-memory mirror are answered
// from it outright; the rest (versions replayed at open) are read back from
// the heap file, so a stage's reads cost at most a handful of syscalls and
// usually none.
func (b *DiskBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	return b.ix.readSlots(refs, b)
}

// ReadBucket implements BucketStore with a single pread covering the whole
// newest version, when it has no mirror.
func (b *DiskBackend) ReadBucket(bucket int) ([][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	return b.ix.readBucket(bucket, b)
}

// encodeSlots implements readEncoder: a mirror's slab is reused once its
// version retires, so replies are encoded under the heap lock.
func (b *DiskBackend) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return dst, err
	}
	return b.ix.encodeSlots(dst, refs, b)
}

// encodeBucket implements readEncoder.
func (b *DiskBackend) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return dst, err
	}
	return b.ix.encodeBucket(dst, bucket, b)
}

// preadVersion implements versionFile over the heap file.
func (b *DiskBackend) preadVersion(_ uint64, off int64, n int) ([]byte, error) {
	return readFileRange(b.heap, off, n)
}

// WriteBucket implements BucketStore.
func (b *DiskBackend) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(b, bucket, epoch, slots)
}

// WriteBuckets implements BucketStore: the whole vector is encoded into one
// buffer and appended with a single write syscall (no fsync — CommitEpoch is
// the durability barrier; shadow paging makes an unsynced or partially
// persisted version harmless). Writes install in vector order and the call
// stops at the first failing entry, leaving the prefix installed.
func (b *DiskBackend) WriteBuckets(writes []BucketWrite) error {
	// Encode the whole vector before taking the heap lock: a record's frame
	// (crc included) is independent of its file offset, so the checksum work
	// needs no exclusivity. Only installation, with its mirror copy, and the
	// append run under mu. If an install fails mid-vector, the encoded
	// suffix is simply not appended (records concatenate in vector order).
	var buf []byte
	starts := make([]int64, len(writes))
	for i, w := range writes {
		at := len(buf)
		buf = appendVersionBody(beginRecord(buf), heapKindVersion, w.Bucket, w.Epoch, w.Slots)
		sealRecord(buf[at:])
		starts[i] = int64(at)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkUsable(); err != nil {
		return err
	}
	var firstErr error
	end := int64(len(buf))
	for i, w := range writes {
		v := version{epoch: w.Epoch, layout: layoutOf(w.Slots), off: b.heapSize + starts[i]}
		if err := b.ix.write(w.Bucket, v, w.Slots); err != nil {
			firstErr, end = err, starts[i]
			break
		}
	}
	if end > 0 {
		if err := b.appendHeapLocked(buf[:end]); err != nil {
			return err
		}
	}
	return firstErr
}

// CommitEpoch implements BucketStore. The commit record plus its covering
// fsync is the barrier that makes every version tagged <= epoch durable:
// replay only learns a commit from its record, and any record written before
// it is covered by the same fsync. The record is appended *unsynced* under
// the heap lock, which is then released for the barrier itself — reads,
// bucket writes and other shards' commits proceed while the group's fsync
// wave is in flight. commitMu keeps the heap
// handle stable and the commit/rollback record order equal to the barrier
// order.
func (b *DiskBackend) CommitEpoch(epoch uint64) error {
	return b.heapBarrierOp(heapKindCommit, epoch)
}

// RollbackTo implements BucketStore: crash recovery's shadow-paging revert.
// The rollback record is made durable before the index mutates, so a crash
// in between replays to a superset the next rollback discards again.
func (b *DiskBackend) RollbackTo(epoch uint64) error {
	return b.heapBarrierOp(heapKindRollback, epoch)
}

// heapBarrierOp appends a commit or rollback record and applies it to the
// index in one critical section (so the record order always equals the index
// mutation order replay will reproduce), then stands on the barrier with the
// heap lock released. Nothing is acknowledged before the barrier returns: a
// pre-barrier crash loses an unacked record (replay recovers the previous
// barrier's state), a post-barrier crash preserves the acked epoch. The
// swept crash windows are append-unsynced, pre-fsync and post-fsync-pre-ack.
// If the barrier fails, the in-memory index is ahead of disk — wedge.
func (b *DiskBackend) heapBarrierOp(kind byte, epoch uint64) error {
	b.commitMu.Lock()
	defer b.commitMu.Unlock()
	b.mu.Lock()
	if err := b.checkUsable(); err != nil {
		b.mu.Unlock()
		return err
	}
	// An already-covered commit needs no new record or barrier; rollbacks
	// always log (the index shrinks, and replay must see that).
	needBarrier := kind == heapKindRollback || epoch > b.ix.committed
	heap := b.heap
	var ticket uint64
	if needBarrier {
		framed := encodeRecord(nil, encodeEpochBody(kind, epoch))
		if err := b.appendHeapLocked(framed); err != nil {
			b.mu.Unlock()
			return err
		}
		ticket = b.group.Wrote(heap)
	}
	if kind == heapKindCommit {
		b.ix.commit(epoch)
	} else {
		b.ix.rollback(epoch)
	}
	b.noteCompactLocked()
	b.mu.Unlock()
	if needBarrier {
		if err := b.group.BarrierTicket(heap, ticket); err != nil {
			return b.wedge(err)
		}
	}
	return nil
}

// CommittedEpoch reports the highest committed epoch (parity with
// MemBackend's test helper; recovery uses it to pick its revert target).
func (b *DiskBackend) CommittedEpoch() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.ix.committed
}

// VersionCount reports how many shadow versions a bucket currently holds.
// Test helper.
func (b *DiskBackend) VersionCount(bucket int) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.ix.count(bucket)
}

// ---- heap compaction ----

// Compaction is incremental and runs OFF the commit path: commits and
// rollbacks only flip a kick channel; a background goroutine (or an explicit
// CompactNow in tests and the crash harness) does the rewrite, holding the
// heap lock only to snapshot the index and to swap files at the end. The
// bulk copy — every live version record, verbatim — happens without any
// lock, racing only against appends, which are safe to race: the heap file
// is append-only, so every offset below the snapshot size is immutable.

// compactDueLocked reports whether dead bytes — retired versions, commit and
// rollback records: everything but the header and the records the index
// still references — dominate live ones.
func (b *DiskBackend) compactDueLocked() bool {
	dead := b.heapSize - fileHeaderSize - b.ix.live
	return dead >= b.heapCompactMin && dead > b.ix.live
}

// noteCompactLocked kicks the background compactor when compaction is due.
// No-op when auto-compaction is off (crash-harness opens).
func (b *DiskBackend) noteCompactLocked() {
	if b.compactKick == nil || !b.compactDueLocked() {
		return
	}
	select {
	case b.compactKick <- struct{}{}:
	default:
	}
}

func (b *DiskBackend) compactLoop() {
	defer b.compactWG.Done()
	for {
		select {
		case <-b.compactStop:
			return
		case <-b.compactKick:
		}
		b.mu.RLock()
		due := b.compactDueLocked()
		b.mu.RUnlock()
		if due {
			// A failed compaction (before the rename) leaves the old file
			// intact; skip and retry at a later kick rather than wedging.
			_ = b.CompactNow()
		}
	}
}

// CompactNow rewrites the heap to its live contents synchronously. It is
// crash-atomic at every step: the new file replays to the identical logical
// state as the old one, the rename is the switch-over point, and a crashed
// attempt leaves a stray temp file the next open discards.
func (b *DiskBackend) CompactNow() error {
	b.commitMu.Lock()
	defer b.commitMu.Unlock()
	return b.compactHeap()
}

// compactHeap runs with commitMu held (no commit/rollback barrier can be in
// flight, and the heap handle cannot change under us) but takes the heap
// lock only at the edges:
//
//  1. Snapshot the index and file size under a read lock.
//  2. Copy every snapshotted live version record verbatim into a temp file,
//     unlocked: offsets below the snapshot size are stable (append-only
//     file), so concurrent bucket appends cannot disturb the copy. A
//     synthetic commit record pins the snapshot's committed frontier.
//  3. Under the write lock, copy the tail delta — everything appended since
//     the snapshot, verbatim, commits/rollbacks/rewrites included, so the
//     new file replays through the exact same logical suffix — then fsync,
//     rename, and swap the in-memory index to rebased offsets.
func (b *DiskBackend) compactHeap() error {
	b.mu.RLock()
	if err := b.checkUsable(); err != nil {
		b.mu.RUnlock()
		return err
	}
	heap := b.heap // stable: commitMu is held, and Close waits for it
	snapSize := b.heapSize
	snapCommitted := b.ix.committed
	snapIndex := make([][]version, len(b.ix.buckets))
	for i, vs := range b.ix.buckets {
		snapIndex[i] = append([]version(nil), vs...)
	}
	b.mu.RUnlock()

	tmpName := joinPath(b.dir, heapFileName+tmpSuffix)
	tf, err := b.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tf.Close()
		_ = b.fsys.Remove(tmpName)
		return err
	}
	off := int64(0)
	write := func(p []byte) error {
		if _, err := tf.WriteAt(p, off); err != nil {
			return err
		}
		off += int64(len(p))
		return nil
	}
	if err := write(encodeFileHeader(heapMagic, uint32(b.numBuckets), 0)); err != nil {
		return abort(err)
	}
	// Phase 2: verbatim copy of every snapshotted record, remembering where
	// each landed. Only records fully below the snapshot size qualify (a
	// record at or past it is part of the tail delta and is copied there).
	remap := make(map[int64]int64)
	for bucket, vs := range snapIndex {
		for i := range vs {
			v := &vs[i]
			if v.off >= snapSize {
				continue
			}
			rec, err := readFileRange(heap, v.off, int(b.ix.recLen(v)))
			if err != nil {
				return abort(fmt.Errorf("storage: compacting bucket %d: %w", bucket, err))
			}
			remap[v.off] = off
			if err := write(rec); err != nil {
				return abort(err)
			}
		}
	}
	if snapCommitted > 0 {
		framed := encodeRecord(nil, encodeEpochBody(heapKindCommit, snapCommitted))
		if err := write(framed); err != nil {
			return abort(err)
		}
	}

	// Phase 3: under the write lock, append the tail delta and swap.
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkUsable(); err != nil {
		return abort(err)
	}
	tailStart := off
	if b.heapSize > snapSize {
		tail, err := readFileRange(heap, snapSize, int(b.heapSize-snapSize))
		if err != nil {
			return abort(err)
		}
		if err := write(tail); err != nil {
			return abort(err)
		}
	}
	shift := tailStart - snapSize
	if err := tf.Sync(); err != nil {
		return abort(err)
	}
	if err := b.fsys.Rename(tmpName, joinPath(b.dir, heapFileName)); err != nil {
		return abort(err)
	}
	// Rename durability is best-effort: if the directory sync fails and the
	// rename is lost in a crash, the old heap file replays to the same
	// logical state (compaction removed only dead bytes).
	_ = b.fsys.SyncDir(b.dir)
	for bucket, vs := range b.ix.buckets {
		for i := range vs {
			v := &vs[i]
			if v.off >= snapSize {
				v.off += shift
			} else if mapped, ok := remap[v.off]; ok {
				v.off = mapped
			} else {
				// Every pre-snapshot index entry was live at snapshot time
				// (appends only ever reference fresh offsets), so a miss is
				// an invariant violation; the new file is already installed,
				// so serving stale offsets would corrupt reads. Fail stop.
				return b.wedge(fmt.Errorf("storage: compaction lost bucket %d version at offset %d", bucket, v.off))
			}
		}
	}
	b.heap.Close()
	b.group.Forget(b.heap)
	b.heap = tf
	b.heapSize = off
	b.heapReserved = off
	return nil
}

// ---- Close ----

// Close closes the heap file. Appended-but-unsynced bucket versions are not
// flushed: they are uncommitted by definition, and the durability contract
// only covers acknowledged commits. The commit group belongs to the
// DiskGroup, which closes it.
func (b *DiskBackend) Close() error {
	if b.markClosed() {
		return nil
	}
	// Stop the background compactor before taking the data locks: a running
	// compaction takes commitMu + mu itself and must finish (or abort) first.
	if b.compactStop != nil {
		close(b.compactStop)
		b.compactWG.Wait()
	}
	b.commitMu.Lock()
	defer b.commitMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.heap.Close()
}
