package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"sync"
)

// DiskBackend is a durable, crash-atomic implementation of the full Backend
// interface. Unlike MemBackend's whole-store gob snapshot, it persists
// incrementally:
//
//   - buckets.heap — a slotted heap of shadow-paged bucket versions.
//     WriteBuckets appends version records (no fsync: shadow paging makes
//     uncommitted versions discardable); CommitEpoch appends a commit record
//     and fsyncs — the durability barrier a commit ack stands on; RollbackTo
//     appends a rollback record and fsyncs. Superseded committed versions are
//     garbage-collected logically on commit and physically by compaction.
//   - wal-<base>.seg — segmented append-only log files for the recovery
//     unit. Append fsyncs before acking (the log IS the durability point for
//     the proxy's write-ahead records); Truncate drops whole dead segments.
//   - kv.log — an append-only put/delete journal for the NoPriv baseline's
//     namespace, compacted when dead entries dominate.
//   - meta — a tiny atomically-replaced file holding the bucket count and
//     the log truncation point.
//
// Every record is length-prefixed and checksummed; replay stops at the first
// invalid record and truncates the torn tail, so reopening after a crash at
// any point recovers exactly the state of the last completed fsync barrier.
// All I/O goes through the vfs abstraction so tests can interpose fault
// injection.
type DiskBackend struct {
	fsys vfs
	dir  string

	// closed/ioErr have their own tiny mutex so every path — heap, log, KV —
	// shares one wedge without sharing a data lock.
	stMu   sync.Mutex
	closed bool
	ioErr  error // sticky: a failed write may leave memory ahead of disk

	numBuckets int // immutable after open

	// group, when set, is the shared fsync scheduler: CommitEpoch,
	// RollbackTo, Append and Put append unsynced and stand on a group
	// barrier instead of issuing their own fsync, so barriers from shards
	// sharing a data dir coalesce into one flush wave.
	group *CommitGroup

	// recoveryWorkers bounds the worker pool that replays log segments (and
	// opens the heap/KV/log files concurrently) at open; 1 means serial.
	recoveryWorkers int

	// commitMu serializes the heap's durability barriers — CommitEpoch,
	// RollbackTo and the compaction swap — against each other, so the heap
	// file handle is stable across a barrier even though mu is released
	// while the fsync is in flight.
	commitMu sync.Mutex

	// Bucket heap (guarded by mu).
	mu             sync.RWMutex
	heap           vfile
	heapSize       int64
	heapReserved   int64           // preallocated frontier (>= heapSize when reserved ahead)
	index          [][]diskVersion // per bucket: version stack, oldest first
	committed      uint64
	heapLive       int64 // bytes of records still referenced by the index
	heapDead       int64 // bytes of superseded/rolled-back/control records
	heapCompactMin int64 // compact only past this much dead data

	// Background heap compactor (nil channels when off: tests drive
	// CompactNow explicitly for determinism).
	compactKick chan struct{}
	compactStop chan struct{}
	compactWG   sync.WaitGroup

	// presync, when on, schedules a best-effort background fsync of the
	// heap after bucket appends, so the epoch's write-back bytes are
	// already clean when CommitEpoch's barrier fsyncs. Purely a latency
	// optimization: the barrier's own fsync is still what acks stand on,
	// and a presync failure simply resurfaces there. presyncing (guarded
	// by mu) keeps at most one in flight.
	presync    bool
	presyncing bool

	// KV namespace (guarded by kvMu).
	kvMu         sync.RWMutex
	kvf          vfile
	kvSize       int64
	kv           map[string]kvEntry
	kvLive       int64
	kvDead       int64
	kvCompactMin int64

	// Recovery log (guarded by logMu, so log appends — and their fsyncs —
	// no longer serialize behind heap writes).
	logMu       sync.RWMutex
	segs        []*segment
	lastSeq     uint64
	truncBefore uint64 // sequence numbers below this are logically gone
	segMaxBytes int64
	// segRetain, when set (logheap mode), is the retention gate: segments
	// holding any sequence number >= segRetain() survive truncation because
	// they still carry live bucket versions or un-checkpointed index state.
	// Called under logMu; must only read atomics.
	segRetain func() uint64
	// keepDeadSegs defers open-time dead-segment collection until the
	// retention gate is installed (logheap mode).
	keepDeadSegs bool
	logFrame     []byte // appendLogRecord's framing buffer, reused by every append

	// Deferred log appends awaiting a SyncLog barrier, oldest first. Almost
	// always one entry; a second appears only when unsynced appends straddle
	// a segment rotation (rotation does not flush the outgoing tail).
	pendMu  sync.Mutex
	pendLog []fileTicket
}

// fileTicket records a deferred append's durability obligation: a flush of f
// covering ticket. One entry per file — later appends to the same file just
// advance the ticket, since a barrier on the newest ticket covers them all.
type fileTicket struct {
	f      vfile
	ticket uint64
}

// diskVersion locates one shadow-paged bucket version inside the heap file.
type diskVersion struct {
	epoch    uint64
	dataOff  int64 // file offset of the first slot's length prefix
	recSize  int64 // framed record size, for garbage accounting
	slotLens []uint32
	// cached mirrors this version's slot bytes in memory. The cache is
	// write-through only: WriteBuckets installs the bytes it just encoded,
	// recovery replay leaves it nil (those reads fall back to preads). Live
	// versions therefore keep about one store's worth of bytes resident —
	// the warm-page-cache case made explicit and deterministic — and the
	// read path skips the syscall entirely when the mirror is present.
	cached [][]byte
}

type kvEntry struct {
	value   []byte
	recSize int64
}

type segment struct {
	f    vfile
	name string
	base uint64  // sequence number of the first record
	offs []int64 // frame offset of each record
	lens []int32 // framed length of each record
	size int64
}

var _ Backend = (*DiskBackend)(nil)

const (
	heapFileName = "buckets.heap"
	kvFileName   = "kv.log"
	metaFileName = "meta"
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	tmpSuffix    = ".tmp"
)

const (
	defaultHeapCompactMin = 1 << 20
	defaultKVCompactMin   = 1 << 18
	defaultSegMaxBytes    = 4 << 20
	// readCoalesceGap merges vectored slot reads whose file ranges are
	// within this many bytes into one pread.
	readCoalesceGap = 4096
)

// DiskOptions tunes OpenDiskBackendOpts beyond the defaults.
type DiskOptions struct {
	// Group routes every durability barrier through a shared fsync
	// scheduler (nil = each barrier fsyncs inline).
	Group *CommitGroup
	// RecoveryWorkers bounds the pool that replays and crc-verifies log
	// segments (and opens the heap/KV/log files concurrently) at open.
	// 0 picks a default from GOMAXPROCS; 1 forces serial recovery.
	RecoveryWorkers int
	// SegMaxBytes overrides the log segment roll-over size (0 = default).
	// Exposed for recovery benchmarks that need many segments.
	SegMaxBytes int64
	// LogHeap selects the log-structured bucket heap for a DiskGroup:
	// bucket version records ride the shared physical log alongside the
	// recovery-log streams, so an epoch's heap commit and its log barrier
	// share a single fsync wave. Only meaningful to OpenDiskGroupOpts; a
	// data dir is created in one mode and refuses to open in the other.
	LogHeap bool
}

// OpenDiskBackend opens (or creates) a durable backend rooted at dir.
// numBuckets fixes the tree size at creation; reopening an existing store
// with a different non-zero numBuckets fails loudly (0 adopts the stored
// size).
func OpenDiskBackend(dir string, numBuckets int) (*DiskBackend, error) {
	return OpenDiskBackendOpts(dir, numBuckets, DiskOptions{})
}

// OpenDiskBackendOpts is OpenDiskBackend with options.
func OpenDiskBackendOpts(dir string, numBuckets int, opts DiskOptions) (*DiskBackend, error) {
	return openDiskBackendOpts(osFS{}, dir, numBuckets, diskOpts{
		group:       opts.Group,
		workers:     opts.RecoveryWorkers,
		segMaxBytes: opts.SegMaxBytes,
		autoCompact: true,
		presync:     false,
	})
}

// diskOpts is the internal option set; crash-harness opens leave
// autoCompact and presync off (and workers at 1) so the swept op sequence
// stays deterministic, driving CompactNow explicitly instead.
type diskOpts struct {
	group       *CommitGroup
	workers     int
	segMaxBytes int64
	autoCompact bool
	presync     bool
	// noHeap skips buckets.heap entirely: the shard's bucket data lives in
	// the shared physical log (LogHeap) and the per-shard heap file is never
	// created. Bucket ops on the raw DiskBackend are invalid in this mode —
	// the owning GroupShard routes them to the LogHeap.
	noHeap bool
	// keepSegs defers open-time dead-segment collection until the logheap
	// retention gate is installed.
	keepSegs bool
	// logHeap selects the log-structured bucket heap for group opens (see
	// DiskOptions.LogHeap); openDiskGroupOpts derives noHeap/keepSegs for
	// the per-shard opens from it.
	logHeap bool
}

func openDiskBackend(fsys vfs, dir string, numBuckets int) (*DiskBackend, error) {
	return openDiskBackendOpts(fsys, dir, numBuckets, diskOpts{workers: 1})
}

func openDiskBackendOpts(fsys vfs, dir string, numBuckets int, opts diskOpts) (*DiskBackend, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data dir: %w", err)
	}
	b := &DiskBackend{
		fsys:            fsys,
		dir:             dir,
		group:           opts.group,
		recoveryWorkers: opts.workers,
		presync:         opts.presync,
		kv:              make(map[string]kvEntry),
		heapCompactMin:  defaultHeapCompactMin,
		kvCompactMin:    defaultKVCompactMin,
		segMaxBytes:     defaultSegMaxBytes,
		truncBefore:     1,
		keepDeadSegs:    opts.keepSegs,
	}
	if opts.segMaxBytes > 0 {
		b.segMaxBytes = opts.segMaxBytes
	}
	if b.recoveryWorkers <= 0 {
		b.recoveryWorkers = defaultRecoveryWorkers()
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing data dir: %w", err)
	}
	for _, n := range names {
		// A crashed compaction or meta update leaves a stray temp file;
		// it was never renamed into place, so it is dead weight.
		if len(n) > len(tmpSuffix) && n[len(n)-len(tmpSuffix):] == tmpSuffix {
			_ = fsys.Remove(joinPath(dir, n))
		}
	}
	if err := b.openMeta(numBuckets); err != nil {
		return nil, err
	}
	// The heap, KV journal and log touch disjoint files and disjoint state:
	// with a worker budget they open (replay + crc verify) concurrently,
	// pFSCK-style. Serial order is preserved at workers == 1 so the crash
	// harness's op sequence stays deterministic.
	opens := []func() error{b.openKV, func() error { return b.openLog(names) }}
	if !opts.noHeap {
		opens = append([]func() error{b.openHeap}, opens...)
	}
	if b.recoveryWorkers > 1 {
		var wg sync.WaitGroup
		errs := make([]error, len(opens))
		for i, fn := range opens {
			wg.Add(1)
			go func(i int, fn func() error) {
				defer wg.Done()
				errs[i] = fn()
			}(i, fn)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for _, fn := range opens {
			if err := fn(); err != nil {
				return nil, err
			}
		}
	}
	// Creating buckets.heap / kv.log fsyncs their contents, but on ext4 a
	// new file's *directory entry* is only durable after a directory fsync;
	// without it, an acked first commit or Put could vanish with the whole
	// file on power loss. One barrier covers everything open created.
	if err := fsys.SyncDir(dir); err != nil {
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

// defaultRecoveryWorkers sizes the replay pool: parallel crc verification
// saturates quickly, so a small pool captures most of the win.
func defaultRecoveryWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ---- meta ----

func (b *DiskBackend) openMeta(numBuckets int) error {
	f, err := b.fsys.OpenFile(joinPath(b.dir, metaFileName), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if numBuckets <= 0 {
			return fmt.Errorf("storage: creating a disk backend needs a positive bucket count (got %d)", numBuckets)
		}
		b.numBuckets = numBuckets
		return b.writeMeta()
	}
	if err != nil {
		return fmt.Errorf("storage: opening meta: %w", err)
	}
	size, serr := f.Size()
	if serr == nil && size == 0 {
		// A crash can install the meta rename before the file's content ever
		// became durable (e.g. a dropped fsync); an empty meta is the
		// pre-creation state, not corruption.
		f.Close()
		if numBuckets <= 0 {
			return fmt.Errorf("storage: creating a disk backend needs a positive bucket count (got %d)", numBuckets)
		}
		b.numBuckets = numBuckets
		return b.writeMeta()
	}
	buf, rerr := readFileRange(f, 0, fileHeaderSize)
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	if rerr != nil {
		return fmt.Errorf("storage: reading meta: %w", rerr)
	}
	if cerr != nil {
		return cerr
	}
	stored, trunc, err := decodeFileHeader(buf, metaMagic)
	if err != nil {
		return fmt.Errorf("storage: meta file: %w", err)
	}
	if numBuckets != 0 && int(stored) != numBuckets {
		return fmt.Errorf("storage: data dir holds %d buckets but %d requested (refusing to silently resize)", stored, numBuckets)
	}
	b.numBuckets = int(stored)
	if trunc > 0 {
		b.truncBefore = trunc
	}
	return nil
}

// writeMeta atomically replaces the meta file: temp file, fsync, rename,
// directory fsync. Callers hold the write lock (or are inside open).
func (b *DiskBackend) writeMeta() error {
	tmp := joinPath(b.dir, metaFileName+tmpSuffix)
	f, err := b.fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating meta: %w", err)
	}
	hdr := encodeFileHeader(metaMagic, uint32(b.numBuckets), b.truncBefore)
	if _, err := f.WriteAt(hdr, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = b.fsys.Remove(tmp)
		return fmt.Errorf("storage: writing meta: %w", err)
	}
	if err := b.fsys.Rename(tmp, joinPath(b.dir, metaFileName)); err != nil {
		_ = b.fsys.Remove(tmp)
		return fmt.Errorf("storage: installing meta: %w", err)
	}
	return b.fsys.SyncDir(b.dir)
}

// ---- heap open / replay ----

func (b *DiskBackend) openHeap() error {
	f, err := b.fsys.OpenFile(joinPath(b.dir, heapFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening bucket heap: %w", err)
	}
	b.heap = f
	b.index = make([][]diskVersion, b.numBuckets)
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
			if rec.bucket < 0 || rec.bucket >= b.numBuckets {
				return 0, fmt.Errorf("storage: bucket heap references bucket %d of %d", rec.bucket, b.numBuckets)
			}
			v := diskVersion{
				epoch:    rec.epoch,
				dataOff:  off + recordFrameSize + heapVersionDataStart,
				recSize:  int64(total),
				slotLens: rec.slotLens,
			}
			if err := b.installVersionLocked(rec.bucket, v); err != nil {
				return 0, fmt.Errorf("storage: bucket heap replay: %w", err)
			}
		case heapKindCommit:
			b.applyCommitLocked(rec.epoch)
			b.heapDead += int64(total)
		case heapKindRollback:
			b.applyRollbackLocked(rec.epoch)
			b.heapDead += int64(total)
		}
		off += int64(total)
	}
	return off, nil
}

// installVersionLocked applies one version to the index with MemBackend's
// shadow-paging rules: same-epoch writes supersede in place, lower-epoch
// writes after a higher epoch are rejected.
func (b *DiskBackend) installVersionLocked(bucket int, v diskVersion) error {
	vs := b.index[bucket]
	if n := len(vs); n > 0 && vs[n-1].epoch == v.epoch {
		b.heapDead += vs[n-1].recSize
		b.heapLive += v.recSize - vs[n-1].recSize
		vs[n-1] = v
		return nil
	}
	if n := len(vs); n > 0 && vs[n-1].epoch > v.epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, v.epoch, vs[n-1].epoch)
	}
	b.index[bucket] = append(vs, v)
	b.heapLive += v.recSize
	return nil
}

// applyCommitLocked advances the committed frontier and garbage-collects
// superseded versions inside the committed prefix (index only; bytes become
// dead and are reclaimed by compaction).
func (b *DiskBackend) applyCommitLocked(epoch uint64) {
	if epoch > b.committed {
		b.committed = epoch
	}
	for i, vs := range b.index {
		keep := -1
		for j := len(vs) - 1; j >= 0; j-- {
			if vs[j].epoch <= b.committed {
				keep = j
				break
			}
		}
		if keep > 0 {
			for _, v := range vs[:keep] {
				b.heapDead += v.recSize
				b.heapLive -= v.recSize
			}
			b.index[i] = append(vs[:0], vs[keep:]...)
		}
	}
}

func (b *DiskBackend) applyRollbackLocked(epoch uint64) {
	for i, vs := range b.index {
		n := len(vs)
		for n > 0 && vs[n-1].epoch > epoch {
			n--
			b.heapDead += vs[n].recSize
			b.heapLive -= vs[n].recSize
		}
		b.index[i] = vs[:n]
	}
	if b.committed > epoch {
		b.committed = epoch
	}
}

// ---- common guards ----

func (b *DiskBackend) checkUsable() error {
	b.stMu.Lock()
	defer b.stMu.Unlock()
	if b.closed {
		return ErrClosed
	}
	return b.ioErr
}

// wedge marks the backend unusable: after a failed write the in-memory index
// may be ahead of the file, and continuing could ack operations the disk
// never saw. Fail-stop is the honest behaviour; reopening replays the file
// back to a consistent state.
func (b *DiskBackend) wedge(err error) error {
	b.stMu.Lock()
	defer b.stMu.Unlock()
	if b.ioErr == nil {
		b.ioErr = fmt.Errorf("storage: disk backend disabled by I/O error: %w", err)
	}
	return err
}

// stamp tickets bytes the caller just wrote to f, so the matching
// barrierTicket can ride an fsync already in flight when it arrives (0
// without a group: the inline fsync needs no ticket).
func (b *DiskBackend) stamp(f vfile) uint64 {
	if b.group != nil {
		return b.group.Wrote(f)
	}
	return 0
}

// barrierTicket makes the bytes stamped by ticket durable: through the
// shared scheduler when the backend belongs to a commit group, with an
// inline fsync otherwise. The caller's ack stands on this call returning
// nil.
func (b *DiskBackend) barrierTicket(f vfile, ticket uint64) error {
	if b.group != nil {
		return b.group.BarrierTicket(f, ticket)
	}
	return f.Sync()
}

// forgetFile releases a retired file's scheduler state (rolled-over
// segments, compacted-away heaps and journals). Call after f is closed.
func (b *DiskBackend) forgetFile(f vfile) {
	if b.group != nil {
		b.group.Forget(f)
	}
	// Drop any deferred-barrier obligation on the retired file: its records
	// were only ever retired because they are logically gone (truncation,
	// compaction), so there is nothing left to make durable — and a later
	// SyncLog must not fsync a closed handle.
	b.pendMu.Lock()
	keep := b.pendLog[:0]
	for _, p := range b.pendLog {
		if p.f != f {
			keep = append(keep, p)
		}
	}
	b.pendLog = keep
	b.pendMu.Unlock()
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

func (b *DiskBackend) newestVersionLocked(bucket int) (*diskVersion, error) {
	if err := checkBucket(bucket, b.numBuckets); err != nil {
		return nil, err
	}
	vs := b.index[bucket]
	if len(vs) == 0 {
		return nil, nil
	}
	return &vs[len(vs)-1], nil
}

// slotRange locates slot within v: file offset of the slot's data bytes and
// its length.
func (v *diskVersion) slotRange(slot int) (off int64, n int) {
	off = v.dataOff
	for i := 0; i < slot; i++ {
		off += 4 + int64(v.slotLens[i])
	}
	return off + 4, int(v.slotLens[slot])
}

// span reports the file range covering all of v's slots.
func (v *diskVersion) span() (off int64, n int) {
	off = v.dataOff
	for _, l := range v.slotLens {
		n += 4 + int(l)
	}
	return off, n
}

// lookupSlotLocked finds the newest version of bucket and bounds-checks slot
// against it.
func (b *DiskBackend) lookupSlotLocked(bucket, slot int) (*diskVersion, error) {
	v, err := b.newestVersionLocked(bucket)
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
func (b *DiskBackend) ReadSlot(bucket, slot int) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	v, err := b.lookupSlotLocked(bucket, slot)
	if err != nil {
		return nil, err
	}
	if v.cached != nil {
		return v.cached[slot], nil
	}
	off, n := v.slotRange(slot)
	return readFileRange(b.heap, off, n)
}

// ReadSlots implements BucketStore: the whole vector resolves under one lock
// acquisition. Refs whose version carries the in-memory mirror are answered
// from it outright; the remainder (post-recovery versions) are served
// scatter-gather style — sorted by file offset, adjacent ranges coalescing
// into shared preads — so a stage's reads cost at most a handful of syscalls
// and usually none. The vector fails atomically: every ref is validated
// before any I/O.
func (b *DiskBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	type slotRead struct {
		resIdx int
		off    int64
		n      int
	}
	reads := make([]slotRead, 0, len(refs))
	out := make([][]byte, len(refs))
	for i, r := range refs {
		v, err := b.lookupSlotLocked(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		if v.cached != nil {
			out[i] = v.cached[r.Slot]
			continue
		}
		off, n := v.slotRange(r.Slot)
		reads = append(reads, slotRead{resIdx: i, off: off, n: n})
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].off < reads[j].off })
	for start := 0; start < len(reads); {
		end := start
		runEnd := reads[start].off + int64(reads[start].n)
		for end+1 < len(reads) && reads[end+1].off <= runEnd+readCoalesceGap {
			end++
			if e := reads[end].off + int64(reads[end].n); e > runEnd {
				runEnd = e
			}
		}
		base := reads[start].off
		buf, err := readFileRange(b.heap, base, int(runEnd-base))
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

// ReadBucket implements BucketStore with a single pread covering the whole
// newest version.
func (b *DiskBackend) ReadBucket(bucket int) ([][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	v, err := b.newestVersionLocked(bucket)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return b.readVersionSlotsLocked(v)
}

func (b *DiskBackend) readVersionSlotsLocked(v *diskVersion) ([][]byte, error) {
	if v.cached != nil {
		return v.cached, nil
	}
	off, n := v.span()
	buf, err := readFileRange(b.heap, off, n)
	if err != nil {
		return nil, err
	}
	return splitSlots(buf, v.slotLens), nil
}

func (b *DiskBackend) validateWriteLocked(bucket int, epoch uint64) error {
	if err := checkBucket(bucket, b.numBuckets); err != nil {
		return err
	}
	vs := b.index[bucket]
	if n := len(vs); n > 0 && vs[n-1].epoch > epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, epoch, vs[n-1].epoch)
	}
	return nil
}

// WriteBucket implements BucketStore.
func (b *DiskBackend) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return b.WriteBuckets([]BucketWrite{{Bucket: bucket, Epoch: epoch, Slots: slots}})
}

// WriteBuckets implements BucketStore: the whole vector is encoded into one
// buffer and appended with a single write syscall (no fsync — CommitEpoch is
// the durability barrier; shadow paging makes an unsynced or partially
// persisted version harmless). Writes install in vector order and the call
// stops at the first failing entry, leaving the validated prefix installed,
// exactly like MemBackend.
func (b *DiskBackend) WriteBuckets(writes []BucketWrite) error {
	// Encode the whole vector before taking the heap lock: a record's frame
	// (crc included) is independent of its file offset, so the kilobytes of
	// copy + checksum work need no exclusivity. Only validation, index
	// installation and the append run under mu — concurrent read batches
	// overlap the write-back's encoding instead of stalling behind it. If
	// validation stops mid-vector, the encoded suffix is simply not
	// appended (records concatenate in vector order).
	type pendingWrite struct {
		relOff   int64
		recSize  int64
		slotLens []uint32
	}
	var buf []byte
	pend := make([]pendingWrite, len(writes))
	for i, w := range writes {
		at := len(buf)
		buf = appendVersionBody(beginRecord(buf), heapKindVersion, w.Bucket, w.Epoch, w.Slots)
		sealRecord(buf[at:])
		pend[i] = pendingWrite{relOff: int64(at), recSize: int64(len(buf) - at), slotLens: slotLengths(w.Slots)}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkUsable(); err != nil {
		return err
	}
	var firstErr error
	end := int64(len(buf))
	for i, w := range writes {
		if err := b.validateWriteLocked(w.Bucket, w.Epoch); err != nil {
			firstErr = err
			end = pend[i].relOff
			break
		}
		v := diskVersion{
			epoch:    w.Epoch,
			dataOff:  b.heapSize + pend[i].relOff + recordFrameSize + heapVersionDataStart,
			recSize:  pend[i].recSize,
			slotLens: pend[i].slotLens,
			// Take ownership of the caller's slices, like MemBackend does.
			cached: w.Slots,
		}
		if err := b.installVersionLocked(w.Bucket, v); err != nil {
			// validateWriteLocked already screened the failure modes.
			firstErr = err
			end = pend[i].relOff
			break
		}
	}
	if end > 0 {
		if err := b.appendHeapLocked(buf[:end]); err != nil {
			return err
		}
		b.kickPresyncLocked()
	}
	return firstErr
}

// kickPresyncLocked starts (at most one) background fsync of the heap so
// the write-back bytes just appended are clean by the time the epoch's
// commit barrier runs. The error is deliberately dropped: durability is
// still decided by the barrier's own fsync, which will see the same failure
// and wedge the backend.
func (b *DiskBackend) kickPresyncLocked() {
	if !b.presync || b.presyncing {
		return
	}
	b.presyncing = true
	f := b.heap
	go func() {
		_ = f.Sync()
		b.mu.Lock()
		b.presyncing = false
		b.mu.Unlock()
	}()
}

// CommitEpoch implements BucketStore. The commit record plus its covering
// fsync is the barrier that makes every version tagged <= epoch durable:
// replay only learns a commit from its record, and any record written before
// it is covered by the same fsync. The record is appended *unsynced* under
// the heap lock, which is then released for the barrier itself — reads,
// bucket writes and other shards' commits proceed while the fsync (or the
// shared group's coalesced fsync wave) is in flight. commitMu keeps the heap
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
	needBarrier := kind == heapKindRollback || epoch > b.committed
	heap := b.heap
	var ticket uint64
	if needBarrier {
		framed := encodeRecord(nil, encodeEpochBody(kind, epoch))
		if err := b.appendHeapLocked(framed); err != nil {
			b.mu.Unlock()
			return err
		}
		b.heapDead += int64(len(framed))
		ticket = b.stamp(heap)
	}
	if kind == heapKindCommit {
		b.applyCommitLocked(epoch)
	} else {
		b.applyRollbackLocked(epoch)
	}
	b.noteCompactLocked()
	b.mu.Unlock()
	if needBarrier {
		if err := b.barrierTicket(heap, ticket); err != nil {
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
	return b.committed
}

// VersionCount reports how many shadow versions a bucket currently holds.
// Test helper.
func (b *DiskBackend) VersionCount(bucket int) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if bucket < 0 || bucket >= len(b.index) {
		return 0
	}
	return len(b.index[bucket])
}

// ---- heap compaction ----

// Compaction is incremental and runs OFF the commit path: commits and
// rollbacks only flip a kick channel; a background goroutine (or an explicit
// CompactNow in tests and the crash harness) does the rewrite, holding the
// heap lock only to snapshot the index and to swap files at the end. The
// bulk copy — every live version record, verbatim — happens without any
// lock, racing only against appends, which are safe to race: the heap file
// is append-only, so every offset below the snapshot size is immutable.

// noteCompactLocked kicks the background compactor when dead bytes dominate
// live ones. No-op when auto-compaction is off (crash-harness opens).
func (b *DiskBackend) noteCompactLocked() {
	if b.compactKick == nil {
		return
	}
	if b.heapDead < b.heapCompactMin || b.heapDead <= b.heapLive {
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
		due := b.heapDead >= b.heapCompactMin && b.heapDead > b.heapLive
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
	snapCommitted := b.committed
	snapIndex := make([][]diskVersion, len(b.index))
	for i, vs := range b.index {
		snapIndex[i] = append([]diskVersion(nil), vs...)
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
			recOff := v.dataOff - recordFrameSize - heapVersionDataStart
			if recOff >= snapSize {
				continue
			}
			rec, err := readFileRange(heap, recOff, int(v.recSize))
			if err != nil {
				return abort(fmt.Errorf("storage: compacting bucket %d: %w", bucket, err))
			}
			remap[v.dataOff] = off + recordFrameSize + heapVersionDataStart
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
	var newLive int64
	for bucket, vs := range b.index {
		for i := range vs {
			v := &vs[i]
			if v.dataOff-recordFrameSize-heapVersionDataStart >= snapSize {
				v.dataOff += shift
			} else if mapped, ok := remap[v.dataOff]; ok {
				v.dataOff = mapped
			} else {
				// Every pre-snapshot index entry was live at snapshot time
				// (appends only ever reference fresh offsets), so a miss is
				// an invariant violation; the new file is already installed,
				// so serving stale offsets would corrupt reads. Fail stop.
				return b.wedge(fmt.Errorf("storage: compaction lost bucket %d version at offset %d", bucket, v.dataOff))
			}
			newLive += v.recSize
		}
	}
	b.heap.Close()
	b.forgetFile(b.heap)
	b.heap = tf
	b.heapSize = off
	b.heapReserved = off
	b.heapLive = newLive
	b.heapDead = b.heapSize - fileHeaderSize - newLive
	return nil
}

// ---- Close ----

// Close implements Backend. Appended-but-unsynced bucket versions are not
// flushed: they are uncommitted by definition, and the durability contract
// only covers acknowledged commits, log appends and KV writes. The shared
// commit group (if any) is NOT closed — it belongs to the directory, not
// the shard; DiskGroup.Close owns that.
func (b *DiskBackend) Close() error {
	b.stMu.Lock()
	if b.closed {
		b.stMu.Unlock()
		return nil
	}
	b.closed = true
	b.stMu.Unlock()
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
	b.kvMu.Lock()
	defer b.kvMu.Unlock()
	b.logMu.Lock()
	defer b.logMu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if b.heap != nil {
		keep(b.heap.Close())
	}
	if b.kvf != nil {
		keep(b.kvf.Close())
	}
	for _, s := range b.segs {
		keep(s.f.Close())
	}
	return first
}
