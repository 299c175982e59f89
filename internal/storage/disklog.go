package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// diskLog is a disk group's one physical log (§8's recovery unit): segmented
// append-only files in shard-000's directory, whose record order is their
// durability order. Every shard's recovery-log stream rides it, and so does
// every shard's bucket data (LogHeap), each record tagged with its stream
// (logStream); so one fsync wave covers every shard's round, and the
// coordinator's committing checkpoint covers the prepared ones before it.
// The group owns the log; each shard's LogHeap holds it directly. Its
// files:
//
//   - wal-<base>.seg — the segments. A record is written unsynced and stands
//     on a barrier of the log's durable frontier, at once (an Append) or at
//     the next SyncLog (a deferred append); Truncate drops whole dead
//     segments.
//   - meta — a tiny atomically-replaced file holding the group's bucket count
//     and the log's truncation point.
//
// The log is every durable byte a group has: bucket versions, the heaps'
// indexes (replayed from their records at open) and the recovery log. Every
// record is length-prefixed and checksummed; open truncates a torn tail at
// the first invalid record, so reopening after a crash at any point recovers
// exactly the records of the last completed fsync barrier.
type diskLog struct {
	fsys vfs
	dir  string
	// group is the durable frontier. Lock order: mu before group.mu; a
	// wave's leader takes mu only after releasing group.mu.
	group CommitGroup
	// workers bounds the pool that replays segments at open; 1 opens them in
	// base order.
	workers int
	// numBuckets is the group's tree size, kept in meta beside the
	// truncation point.
	numBuckets int

	failStop

	// mu guards the segments and the stream table. Lock order: a heap's mu
	// before it.
	mu   sync.RWMutex
	segs []*segment
	// streams are the WAL streams, ids 0..len(streams)-1; a record and its
	// stream's entry change under one hold of mu.
	streams []logStream
	// lastSeq is the newest record's sequence number. It changes under mu
	// but is read without it, so a barrier never waits behind an append or
	// a segment roll to learn what it must cover.
	lastSeq     atomic.Uint64
	truncBefore uint64 // sequence numbers below this are logically gone
	segMaxBytes int64
	// retain, when set (a group's log, once replay has set the heaps'
	// floors), is the retention gate: segments holding any sequence number
	// >= retain() survive truncation because a heap's index still needs
	// them. Called under mu; must only read atomics.
	retain func() uint64
	// kick, when set, starts the group's maintenance (see truncateStream).
	kick  func()
	frame []byte  // appendStream's framing buffer, reused by every append up to frameKeep
	wave  []vfile // the segments a wave syncs; only its leader touches it
}

// logStream is one shard's recovery-log stream on the log: the LogStore
// contract with its own dense sequence numbers. A stream record is a
// physical record whose body starts with its stream id (streamHdrSize
// bytes). The WAL streams come first; each LogHeap's bucket-data stream
// follows them and has no entry in the table: the heap addresses its records
// by physical location, replays them all at open, and the retention gate,
// not Truncate, decides how long they stay.
//
// Stream sequence numbers restart from the surviving record count at reopen.
// That is sound because the WAL layer persists none: every recovery derives
// its state from a fresh Scan(0), and checkpoints name epochs, not
// sequences. A torn physical tail cuts a suffix of the log, which is a
// suffix of every stream in append order: each stream recovers to a prefix,
// the write-ahead contract, and the cross-shard recovery floor raises the
// shards that lag.
type logStream struct {
	phys  []uint64 // physical seq of each live record; logical seq = floor+i
	floor uint64   // logical seq of phys[0] (1 when nothing truncated)
	last  uint64   // last logical seq handed out
}

const streamHdrSize = 4

type segment struct {
	f    vfile
	name string
	base uint64  // sequence number of the first record
	offs []int64 // frame offset of each record
	lens []int32 // framed length of each record
	size int64
	// mapped is the file mapped read-only and shared, always covering its
	// size: every read of the segment copies or slices out of it. It is
	// replaced (mapTo) or unmapped only under the log's write lock, so a
	// reader holding the read lock may use it until it lets go of the lock,
	// and no reader keeps a mapped byte past that.
	mapped []byte
}

// mapTo maps the segment's first n bytes in place of its mapping, if any.
func (s *segment) mapTo(n int64) error {
	m, err := s.f.Map(n)
	if err != nil {
		return fmt.Errorf("storage: mapping log segment %s: %w", s.name, err)
	}
	s.unmap()
	s.mapped = m
	return nil
}

func (s *segment) unmap() {
	if s.mapped != nil {
		_ = s.f.Unmap(s.mapped)
		s.mapped = nil
	}
}

// close unmaps the segment and closes its file.
func (s *segment) close() error {
	s.unmap()
	return s.f.Close()
}

func segName(base uint64) string {
	return segPrefix + fmt.Sprintf("%020d", base) + segSuffix
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	base, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// defaultReplayWorkers sizes the replay pool: parallel crc verification
// saturates quickly, so a small pool captures most of the win.
func defaultReplayWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), 4))
}

// ---- meta ----

// openMeta reads dir's meta file — the group's bucket count and the log's
// truncation point — creating it for a fresh group. numBuckets 0 adopts the
// stored count; any other count must match it.
func openMeta(fsys vfs, dir string, numBuckets int) (nb int, truncBefore uint64, err error) {
	create := func() (int, uint64, error) {
		if numBuckets <= 0 {
			return 0, 0, fmt.Errorf("storage: creating a disk group needs a positive bucket count (got %d)", numBuckets)
		}
		return numBuckets, 1, writeMeta(fsys, dir, numBuckets, 1)
	}
	f, err := fsys.OpenFile(joinPath(dir, metaFileName), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return create()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("storage: opening meta: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	if size == 0 {
		// A crash can install the meta rename before the file's content ever
		// became durable (e.g. a dropped fsync); an empty meta is the
		// pre-creation state, not corruption.
		return create()
	}
	m, err := f.Map(min(size, fileHeaderSize))
	if err != nil {
		return 0, 0, fmt.Errorf("storage: mapping meta: %w", err)
	}
	stored, trunc, err := decodeFileHeader(m, metaMagic)
	f.Unmap(m)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: meta file: %w", err)
	}
	if numBuckets != 0 && int(stored) != numBuckets {
		return 0, 0, fmt.Errorf("storage: data dir holds %d buckets but %d requested (refusing to silently resize)", stored, numBuckets)
	}
	return int(stored), max(trunc, 1), nil
}

// writeMeta atomically replaces dir's meta file: temp file, fsync, rename,
// directory fsync.
func writeMeta(fsys vfs, dir string, numBuckets int, truncBefore uint64) error {
	tmp := joinPath(dir, metaFileName+tmpSuffix)
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating meta: %w", err)
	}
	hdr := encodeFileHeader(metaMagic, uint32(numBuckets), truncBefore)
	if _, err := f.WriteAt(hdr, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("storage: writing meta: %w", err)
	}
	if err := fsys.Rename(tmp, joinPath(dir, metaFileName)); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("storage: installing meta: %w", err)
	}
	return fsys.SyncDir(dir)
}

// ---- open ----

// errSegDamaged marks structural damage in a log segment (sub-header file,
// bad header, corrupt mid-file record): the segment and its successors are
// an orphaned suffix that recovery drops. Any *other* error — a transient
// open failure, fd exhaustion, a read error — must fail the open loudly
// instead: deleting acknowledged log records over an EIO blip is how
// recovery tools destroy the data they exist to protect.
var errSegDamaged = errors.New("storage: damaged log segment")

// openDiskLog opens the log in dir, whose meta openMeta already read. It
// rebuilds the segment chain with
// prefix semantics: segments are kept while each one is intact and
// contiguous with its predecessor; the first structurally broken or gapped
// segment and everything after it are dropped. With honest fsyncs only the
// *last* segment can ever be torn (a segment's header is synced before its
// first record, and a successor is only created after the predecessor
// filled), so nothing acknowledged is lost; the drop path only fires on
// damage that already lost data — exactly the point-in-time prefix a
// write-ahead log must recover to. Segment replay — scanning every record
// frame and checking its crc32c — dominates recovery time on a long log, and
// segments are independent files, so the scan fans out across the workers
// (pFSCK-style); only the chain-prefix decision stays sequential. The open
// drops no dead segment: the heaps' indexes live in the log, and until
// replay has set their floors nothing says which segments they need (the
// group drops them after replay).
func openDiskLog(fsys vfs, dir string, numBuckets int, truncBefore uint64, opts diskOpts) (*diskLog, error) {
	l := &diskLog{
		failStop:    failStop{name: "disk log"},
		fsys:        fsys,
		dir:         dir,
		workers:     opts.workers,
		numBuckets:  numBuckets,
		truncBefore: truncBefore,
		segMaxBytes: defaultSegMaxBytes,
	}
	l.group.landed.L = &l.group.mu
	if opts.segMaxBytes > 0 {
		l.segMaxBytes = opts.segMaxBytes
	}
	if l.workers <= 0 {
		l.workers = defaultReplayWorkers()
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing log dir: %w", err)
	}
	var bases []uint64
	for _, n := range names {
		if base, ok := parseSegName(n); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	segs := make([]*segment, len(bases))
	segErrs := make([]error, len(bases))
	// A pool of one opens the segments in base order on one goroutine, so a
	// crash sweep's op sequence is deterministic.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(l.workers, len(bases)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				segs[i], segErrs[i] = l.openSegment(bases[i])
			}
		}()
	}
	for i := range bases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	closeRest := func(from int) {
		for j := from; j < len(segs); j++ {
			if segs[j] != nil {
				segs[j].close()
			}
		}
	}
	for i := range bases {
		seg, err := segs[i], segErrs[i]
		if err != nil && !errors.Is(err, errSegDamaged) {
			closeRest(i)
			l.Close()
			return nil, err
		}
		gap := err == nil && len(l.segs) > 0 &&
			l.segs[len(l.segs)-1].base+uint64(len(l.segs[len(l.segs)-1].offs)) != seg.base
		if err != nil || gap {
			// Orphaned suffix: remove it so the next open sees a clean chain.
			closeRest(i)
			for _, orphan := range bases[i:] {
				_ = fsys.Remove(joinPath(dir, segName(orphan)))
			}
			break
		}
		l.segs = append(l.segs, seg)
	}
	lastSeq := l.truncBefore - 1
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		lastSeq = max(lastSeq, last.base+uint64(len(last.offs))-1)
		// The tail keeps taking appends: it gets its reservation back, as a
		// new segment has one, when the open cut a torn tail (over a kept
		// reservation the call changes nothing).
		if last.size < l.segMaxBytes {
			_ = last.f.Preallocate(0, l.segMaxBytes)
		}
	}
	l.lastSeq.Store(lastSeq)
	l.group.durable = lastSeq
	// One directory barrier covers the orphans open removed.
	if err := fsys.SyncDir(dir); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// openSegment opens one segment, truncating a torn tail at the first invalid
// record, so the bytes of a torn record never decode again. Bytes past the
// valid prefix that are all zeros — a reservation (preallocate), or a tear
// that left nothing — are kept: they never decode as a record, and appends
// overwrite them. Structural damage
// (sub-header file, bad header, corrupt mid-file record) returns an error
// wrapping errSegDamaged — the caller drops the segment as an orphan; every
// other failure is a real I/O error and propagates as-is.
func (l *diskLog) openSegment(base uint64) (*segment, error) {
	name := segName(base)
	f, err := l.fsys.OpenFile(joinPath(l.dir, name), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log segment %s: %w", name, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{f: f, name: name, base: base}
	fail := func(err error) (*segment, error) {
		seg.close()
		return nil, err
	}
	damaged := func(format string, args ...any) (*segment, error) {
		return fail(fmt.Errorf("%w: %s", errSegDamaged, fmt.Sprintf(format, args...)))
	}
	if size < fileHeaderSize {
		return damaged("segment %s truncated below its header", name)
	}
	// Mapped at least segMaxBytes long, like a new segment: the tail keeps
	// taking appends past its size at open.
	if err := seg.mapTo(max(size, l.segMaxBytes)); err != nil {
		return fail(err)
	}
	_, storedBase, err := decodeFileHeader(seg.mapped, segMagic)
	if err != nil {
		return damaged("segment %s: %v", name, err)
	}
	if storedBase != base {
		return damaged("segment %s header claims base %d", name, storedBase)
	}
	end, err := decodeRecords(seg.mapped[fileHeaderSize:size], func(off int, body []byte) error {
		seg.offs = append(seg.offs, int64(fileHeaderSize+off))
		seg.lens = append(seg.lens, int32(recordFrameSize+len(body)))
		return nil
	})
	seg.size = int64(fileHeaderSize + end)
	if err != nil {
		return damaged("segment %s at offset %d: %v", name, seg.size, err)
	}
	if seg.size < size && !zeroPast(seg, size) {
		if err := f.Truncate(seg.size); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	return seg, nil
}

// zeroPast reports whether every byte of seg from its valid prefix to size is
// zero. Past the page the prefix ends in, a file that tells it holds only
// holes there (HolesAfter) is not read: a reservation's blocks cost nothing.
func zeroPast(seg *segment, size int64) bool {
	end := size
	if page := (seg.size + 4095) &^ 4095; page < size && seg.f.HolesAfter(page) {
		end = page
	}
	return bytes.Count(seg.mapped[seg.size:end], []byte{0}) == int(end-seg.size)
}

// openStreams rebuilds the stream table over the records the open kept —
// walStreams WAL streams, then one bucket-data stream per heap — and replays
// every retained record of each heap's stream into its index; the WAL
// streams skip the records below the truncation point, which the retention
// gate kept for the heaps.
func (l *diskLog) openStreams(walStreams int, heaps []*LogHeap) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.streams = make([]logStream, walStreams)
	for i := range l.streams {
		l.streams[i].floor = 1
	}
	total := walStreams + len(heaps)
	return l.scanLocked(0, func(seq, segBase uint64, off int64, rec []byte) error {
		id, body, err := splitStreamRecord(rec)
		if err != nil {
			return fmt.Errorf("storage: log physical record %d: %w", seq, err)
		}
		if int(id) >= total {
			return fmt.Errorf("storage: log record for stream %d but only %d streams opened", id, total)
		}
		if int(id) < walStreams {
			if seq >= l.truncBefore {
				st := &l.streams[id]
				st.phys = append(st.phys, seq)
				st.last++
			}
			return nil
		}
		return heaps[int(id)-walStreams].replayRecord(seq, segBase, off, body)
	})
}

func splitStreamRecord(rec []byte) (uint32, []byte, error) {
	if len(rec) < streamHdrSize {
		return 0, nil, fmt.Errorf("record shorter than its stream header (%d bytes)", len(rec))
	}
	return binary.BigEndian.Uint32(rec), rec[streamHdrSize:], nil
}

// ---- appends and barriers ----

// logAppendRes describes where one framed record landed in the physical
// log: its sequence number (what the caller's barrier waits on) and the
// segment (by base) and byte offset of the frame, which is what lets the
// logheap index point straight back into the log.
type logAppendRes struct {
	seq     uint64
	segBase uint64
	off     int64
}

// frameKeep bounds the framing buffer kept between appends: a longer record
// (a full checkpoint, sized by the key count) is framed in a buffer dropped
// once it is written, so no copy of it stays on the heap.
const frameKeep = 64 << 10

// appendStream writes record to WAL stream id and extends the stream's
// entry under the same hold of mu (stream order == physical order, which
// torn-tail recovery leans on), returning the stream and physical sequence
// numbers. Durability is the caller's barrier on phys: the seam through
// which several shards' streams stand on one flush wave. The record is
// framed in the log's reusable buffer and not retained.
func (l *diskLog) appendStream(id uint32, record []byte) (seq, phys uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frame = append(binary.BigEndian.AppendUint32(beginRecord(l.frame[:0]), id), record...)
	sealRecord(l.frame)
	res, err := l.appendFramedLocked(l.frame)
	if cap(l.frame) > frameKeep {
		l.frame = nil
	}
	if err != nil {
		return 0, 0, err
	}
	st := &l.streams[id]
	st.phys = append(st.phys, res.seq)
	st.last++
	return st.last, res.seq, nil
}

// appendFramed appends a record to stream id without a barrier and returns
// where it landed: the heaps' path, which maps no stream sequence. The
// caller laid the record out as a whole frame in its own buffer —
// beginRecord, streamHdrSize bytes for the stream header, the body — freshly
// built or read back and edited (segment GC's copy); the stream id and frame
// header are filled in there, and frame is not retained.
func (l *diskLog) appendFramed(id uint32, frame []byte) (logAppendRes, error) {
	binary.BigEndian.PutUint32(frame[recordFrameSize:], id)
	sealRecord(frame)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendFramedLocked(frame)
}

func (l *diskLog) appendFramedLocked(framed []byte) (logAppendRes, error) {
	if err := l.checkUsable(); err != nil {
		return logAppendRes{}, err
	}
	seg, err := l.activeSegmentLocked()
	if err != nil {
		return logAppendRes{}, err
	}
	off := seg.size
	if _, err := seg.f.WriteAt(framed, off); err != nil {
		return logAppendRes{}, l.wedge(err)
	}
	seg.offs = append(seg.offs, off)
	seg.lens = append(seg.lens, int32(len(framed)))
	seg.size += int64(len(framed))
	// A record crossing segMaxBytes outgrows the mapping, and the segment
	// takes no append after it: remapped to its size, it covers every record
	// it holds. Readers hold the read lock and this the write lock, so none
	// is copying out of the old mapping as it goes.
	if seg.size > int64(len(seg.mapped)) {
		if err := seg.mapTo(seg.size); err != nil {
			return logAppendRes{}, l.wedge(err)
		}
	}
	return logAppendRes{seq: l.lastSeq.Add(1), segBase: seg.base, off: off}, nil
}

// activeSegmentLocked returns the tail segment, rolling to a fresh file once
// the current one exceeds segMaxBytes.
func (l *diskLog) activeSegmentLocked() (*segment, error) {
	n := len(l.segs)
	if n > 0 && l.segs[n-1].size < l.segMaxBytes {
		return l.segs[n-1], nil
	}
	base := l.lastSeq.Load() + 1
	name := segName(base)
	f, err := l.fsys.OpenFile(joinPath(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, l.wedge(err)
	}
	hdr := encodeFileHeader(segMagic, 0, base)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, l.wedge(err)
	}
	// Reserve the whole segment up front so per-record appends never
	// allocate blocks — the per-barrier fsync then flushes data, not
	// allocation metadata. The header sync below also settles this.
	_ = f.Preallocate(0, l.segMaxBytes)
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, l.wedge(err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		f.Close()
		return nil, l.wedge(err)
	}
	seg := &segment{f: f, name: name, base: base, size: fileHeaderSize}
	// The record index is sized once, for as many records as the segment
	// before it took: a steady log fills its segments alike.
	if n > 0 {
		records := len(l.segs[n-1].offs)
		seg.offs, seg.lens = make([]int64, 0, records), make([]int32, 0, records)
	}
	if err := seg.mapTo(l.segMaxBytes); err != nil {
		f.Close()
		return nil, l.wedge(err)
	}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// barrier returns once every record up to physical sequence s is durable:
// at once if the frontier covers s; with ErrClosed or the wedge's error if
// the log is closed or wedged; otherwise after the wave in flight lands —
// the caller then returns or leads the next wave — or, with none in flight,
// after the wave it leads itself. A failed fsync wedges the log, so every
// barrier the wave did not cover gets its error.
func (l *diskLog) barrier(s uint64) error {
	g := &l.group
	g.mu.Lock()
	g.stats.Barriers++
	for {
		if s <= g.durable {
			g.mu.Unlock()
			return nil
		}
		if err := l.checkUsable(); err != nil {
			g.mu.Unlock()
			return err
		}
		if !g.syncing {
			break
		}
		g.landed.Wait()
	}
	g.syncing = true
	from := g.durable
	g.mu.Unlock()
	target, syncs, elapsed, err := l.syncWave(from, s)
	g.mu.Lock()
	g.syncing = false
	if err == nil {
		g.durable = target
	}
	g.stats.Waves += syncs
	g.stats.SyncTime += elapsed
	g.landed.Broadcast()
	g.mu.Unlock()
	return err
}

// syncWave is the wave a barrier on s leads: it fsyncs, oldest first, every
// segment holding a record above from, through the one holding s, and
// returns that segment's last record. It stops there even when the log has
// rolled on: a newer segment would cost the wave one more fsync for records
// this barrier does not need, which their own barrier pays anyway. No
// segment it syncs can close under it: dropDeadSegmentsLocked keeps every
// segment with a record above the frontier, and Close waits for the wave.
func (l *diskLog) syncWave(from, s uint64) (target, syncs uint64, elapsed time.Duration, err error) {
	l.mu.RLock()
	files := l.wave[:0]
	for _, seg := range l.segs {
		n := uint64(len(seg.offs))
		if n == 0 || seg.base+n-1 <= from {
			continue
		}
		files = append(files, seg.f)
		if target = seg.base + n - 1; target >= s {
			break
		}
	}
	l.wave = files
	l.mu.RUnlock()
	start := time.Now()
	for _, f := range files {
		syncs++
		if err = f.Sync(); err != nil {
			err = l.wedge(err)
			break
		}
	}
	return target, syncs, time.Since(start), err
}

// syncLog makes every record appended before the call durable, whatever
// its stream and whether its append deferred its barrier: a barrier on the
// newest record. A wedged log refuses: what it holds may be behind what
// was acknowledged to its writers.
func (l *diskLog) syncLog() error {
	last, err := l.last()
	if err != nil {
		return err
	}
	return l.barrier(last)
}

// ---- reads ----

// scanStream returns stream id's records with sequence >= from, in order.
// It walks the log from the stream's first wanted record and copies only
// its own records: the other streams' records between them — other shards'
// WAL records, every shard's bucket versions — are skipped where they lie.
func (l *diskLog) scanStream(id uint32, from uint64) ([][]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Checked here and not only by the scan: the empty-stream early return
	// below must still report a closed store.
	if err := l.checkUsable(); err != nil {
		return nil, err
	}
	st := &l.streams[id]
	from = max(from, st.floor)
	if from > st.last {
		return nil, nil
	}
	out := make([][]byte, 0, st.last-from+1)
	err := l.scanLocked(st.phys[from-st.floor], func(_, _ uint64, _ int64, rec []byte) error {
		sid, body, err := splitStreamRecord(rec)
		if err != nil {
			return err
		}
		if sid == id {
			out = append(out, bytes.Clone(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// streamLast reports stream id's last assigned sequence number.
func (l *diskLog) streamLast(id uint32) (uint64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkUsable(); err != nil {
		return 0, err
	}
	return l.streams[id].last, nil
}

// scanLocked streams every retained record with sequence number >= from, in
// order, passing each record's physical location alongside its body; mu is
// held. It does NOT clamp to the truncation point: the retention gate keeps
// whole segments below it alive because they still hold live bucket
// versions, and index replay must see them. Each overlapping segment is
// decoded where its mapping lies; the body slice is only valid for the
// duration of the callback.
func (l *diskLog) scanLocked(from uint64, fn func(seq, segBase uint64, off int64, rec []byte) error) error {
	if err := l.checkUsable(); err != nil {
		return err
	}
	for _, seg := range l.segs {
		n := uint64(len(seg.offs))
		if n == 0 || seg.base+n <= from {
			continue
		}
		start := uint64(0)
		if from > seg.base {
			start = from - seg.base
		}
		lo := seg.offs[start]
		end, err := decodeRecords(seg.mapped[lo:seg.size], func(off int, body []byte) error {
			err := fn(seg.base+start, seg.base, lo+int64(off), body)
			start++
			return err
		})
		if err != nil {
			return err
		}
		if lo+int64(end) < seg.size {
			return fmt.Errorf("storage: log segment %s: %w", seg.name, errTornRecord)
		}
	}
	return nil
}

// readAtLocked copies into dst the bytes at off of a retained segment,
// addressed by the (segBase, offset) an append or scan reported; mu is held
// (at least for reading), so the segment's mapping stays in place while it
// copies. Every retained record's crc32c was verified when its segment was
// opened (or the bytes were written by this process), so the logheap read
// path slices what it reads without re-checking.
func (l *diskLog) readAtLocked(dst []byte, segBase uint64, off int64) error {
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].base >= segBase })
	if i >= len(l.segs) || l.segs[i].base != segBase {
		return fmt.Errorf("storage: log segment with base %d is gone", segBase)
	}
	seg := l.segs[i]
	if off < int64(fileHeaderSize) || off+int64(len(dst)) > seg.size {
		return fmt.Errorf("storage: read [%d,+%d) outside log segment %s", off, len(dst), seg.name)
	}
	copy(dst, seg.mapped[off:off+int64(len(dst))])
	return nil
}

// last reports the sequence number of the newest record.
func (l *diskLog) last() (uint64, error) {
	if err := l.checkUsable(); err != nil {
		return 0, err
	}
	return l.lastSeq.Load(), nil
}

// ---- truncation and retention ----

// truncateStream drops stream id's records below before, then raises the
// log's truncation point to the first record any WAL stream still holds
// (the next append's, with none): one stream truncating never strands
// another. The point lands durably in the meta file first, then the whole
// segments below both it and the retention gate go. A crash in between
// just leaves dead segments for a later drop to finish removing. A sealed
// segment still left wholly below the previous point as well holds live
// bucket versions that a whole truncation interval did not retire, which
// only the heaps can move: it kicks maintenance. (Kicking as soon as one
// segment lies below the point would copy versions a few epochs old, most
// of which the next epochs rewrite anyway.)
func (l *diskLog) truncateStream(id uint32, before uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Checked before the no-op paths, which must still see ErrClosed.
	if err := l.checkUsable(); err != nil {
		return err
	}
	st := &l.streams[id]
	before = min(before, st.last+1)
	if before <= st.floor {
		return nil
	}
	st.phys = st.phys[before-st.floor:]
	st.floor = before
	floor := l.lastSeq.Load() + 1
	for i := range l.streams {
		if p := l.streams[i].phys; len(p) > 0 {
			floor = min(floor, p[0])
		}
	}
	if floor <= l.truncBefore {
		return nil
	}
	if err := writeMeta(l.fsys, l.dir, l.numBuckets, floor); err != nil {
		// The rename is atomic — the on-disk meta is either the old or the
		// new truncation point, both consistent — but we no longer know
		// which, so the in-memory view may diverge: fail stop.
		return l.wedge(err)
	}
	prev := l.truncBefore
	l.truncBefore = floor
	l.dropDeadSegmentsLocked()
	if l.kick != nil && len(l.segs) > 1 && l.segs[0].base+uint64(len(l.segs[0].offs)) <= prev {
		l.kick()
	}
	return nil
}

// dropDeadSegments re-runs dead-segment collection outside any truncation:
// after the open's replay has set the gate, and after maintenance raised it.
func (l *diskLog) dropDeadSegments() {
	l.mu.Lock()
	if l.checkUsable() == nil {
		l.dropDeadSegmentsLocked()
	}
	l.mu.Unlock()
}

// dropDeadSegmentsLocked removes segments whose every record is below the
// truncation point, the retention gate and the durable frontier: a wave in
// flight may be syncing a segment with a record above the frontier. The
// tail segment survives even when fully dead so the next append can keep
// extending it.
func (l *diskLog) dropDeadSegmentsLocked() {
	l.group.mu.Lock()
	keep := min(l.truncBefore, l.group.durable+1)
	l.group.mu.Unlock()
	if l.retain != nil {
		keep = min(keep, l.retain())
	}
	drop := func(seg *segment) {
		seg.close()
		_ = l.fsys.Remove(joinPath(l.dir, seg.name)) // reopen filters it anyway
	}
	for len(l.segs) > 1 {
		seg := l.segs[0]
		if seg.base+uint64(len(seg.offs)) > keep {
			break
		}
		drop(seg)
		l.segs = l.segs[1:]
	}
	if len(l.segs) == 1 {
		seg := l.segs[0]
		if seg.base+uint64(len(seg.offs)) <= keep {
			drop(seg)
			l.segs = nil
		}
	}
}

// gcCandidates lists the sealed segments whose every record sits below the
// truncation point, oldest first: nothing but the retention gate keeps them
// on disk, so evacuating their live bucket versions frees them. The active
// tail is never a candidate.
func (l *diskLog) gcCandidates() []uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var bases []uint64
	for i := 0; i+1 < len(l.segs); i++ {
		seg := l.segs[i]
		if seg.base+uint64(len(seg.offs)) > l.truncBefore {
			break
		}
		bases = append(bases, seg.base)
	}
	return bases
}

// Close closes the segments once the wave in flight, if any, has landed;
// later barriers not yet covered fail with ErrClosed. Appended-but-unsynced
// records are not flushed: nothing acknowledged them.
func (l *diskLog) Close() error {
	l.markClosed()
	l.group.mu.Lock()
	for l.group.syncing {
		l.group.landed.Wait()
	}
	l.group.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, s := range l.segs {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	l.segs = nil
	return first
}
