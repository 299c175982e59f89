package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file holds DiskBackend's recovery log (segmented append-only files
// with an fsync barrier per append) and the NoPriv baseline's KV namespace
// (an append-only put/delete journal with an in-memory map).

// ---- KV namespace ----

func (b *DiskBackend) openKV() error {
	f, err := b.fsys.OpenFile(joinPath(b.dir, kvFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening kv log: %w", err)
	}
	b.kvf = f
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size < fileHeaderSize {
		// Same argument as the bucket heap: a sub-header file means creation
		// never durably completed.
		if err := f.Truncate(0); err != nil {
			return err
		}
		hdr := encodeFileHeader(kvMagic, 0, 0)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			return fmt.Errorf("storage: initializing kv log: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
		b.kvSize = fileHeaderSize
		return nil
	}
	hdr, err := readFileRange(f, 0, fileHeaderSize)
	if err != nil {
		return err
	}
	if _, _, err := decodeFileHeader(hdr, kvMagic); err != nil {
		return fmt.Errorf("storage: kv log: %w", err)
	}
	sc := newRecordScanner(f, fileHeaderSize, size)
	off := int64(fileHeaderSize)
	for off < size {
		body, total, err := sc.next()
		if err != nil {
			if errors.Is(err, errTornRecord) {
				break
			}
			return fmt.Errorf("storage: kv log at offset %d: %w", off, err)
		}
		kind, key, value, err := parseKVBody(body)
		if err != nil {
			return fmt.Errorf("storage: kv log at offset %d: %w", off, err)
		}
		b.applyKVLocked(kind, key, value, int64(total))
		off += int64(total)
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("storage: truncating torn kv tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	b.kvSize = off
	return nil
}

func (b *DiskBackend) applyKVLocked(kind byte, key string, value []byte, recSize int64) {
	if old, ok := b.kv[key]; ok {
		b.kvDead += old.recSize
		b.kvLive -= old.recSize
	}
	switch kind {
	case kvKindPut:
		b.kv[key] = kvEntry{value: value, recSize: recSize}
		b.kvLive += recSize
	case kvKindDel:
		delete(b.kv, key)
		b.kvDead += recSize
	}
}

// Get implements KVStore.
func (b *DiskBackend) Get(key string) ([]byte, bool, error) {
	b.kvMu.RLock()
	defer b.kvMu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, false, err
	}
	e, ok := b.kv[key]
	return e.value, ok, nil
}

// Put implements KVStore: the entry is durable — covered by an fsync of the
// journal, inline or via the shared commit group — before the call returns.
func (b *DiskBackend) Put(key string, value []byte) error {
	return b.kvAppend(kvKindPut, key, value)
}

// Delete implements KVStore.
func (b *DiskBackend) Delete(key string) error {
	return b.kvAppend(kvKindDel, key, nil)
}

func (b *DiskBackend) kvAppend(kind byte, key string, value []byte) error {
	b.kvMu.Lock()
	if err := b.checkUsable(); err != nil {
		b.kvMu.Unlock()
		return err
	}
	if kind == kvKindDel {
		if _, ok := b.kv[key]; !ok {
			b.kvMu.Unlock()
			return nil // nothing to make durable
		}
	}
	framed := encodeRecord(nil, encodeKVBody(kind, key, value))
	if _, err := b.kvf.WriteAt(framed, b.kvSize); err != nil {
		b.kvMu.Unlock()
		return b.wedge(err)
	}
	b.kvSize += int64(len(framed))
	b.applyKVLocked(kind, key, value, int64(len(framed)))
	// Without a group the fsync stays under the lock — KV writers serialize
	// on one file anyway; with a group the lock drops so barriers from other
	// shards (and the heap/log) coalesce into one flush wave. Either way the
	// entry is durable before compaction may fold it into a rewritten
	// journal, so the compacted file only ever holds acknowledged entries.
	if b.group == nil {
		err := b.kvf.Sync()
		if err != nil {
			b.kvMu.Unlock()
			return b.wedge(err)
		}
		b.maybeCompactKVLocked()
		b.kvMu.Unlock()
		return nil
	}
	f := b.kvf
	ticket := b.stamp(f)
	b.kvMu.Unlock()
	if err := b.group.BarrierTicket(f, ticket); err != nil {
		return b.wedge(err)
	}
	b.kvMu.Lock()
	b.maybeCompactKVLocked()
	b.kvMu.Unlock()
	return nil
}

// maybeCompactKVLocked rewrites the journal as one put per live key when
// dead entries dominate. Same crash argument as the heap: the old journal
// replays to the identical map, so losing the rename is harmless.
func (b *DiskBackend) maybeCompactKVLocked() {
	if b.kvDead < b.kvCompactMin || b.kvDead <= b.kvLive {
		return
	}
	tmpName := joinPath(b.dir, kvFileName+tmpSuffix)
	tf, err := b.fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	abort := func() {
		tf.Close()
		_ = b.fsys.Remove(tmpName)
	}
	keys := make([]string, 0, len(b.kv))
	for k := range b.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	off := int64(0)
	buf := encodeFileHeader(kvMagic, 0, 0)
	sizes := make(map[string]int64, len(keys))
	for _, k := range keys {
		body := encodeKVBody(kvKindPut, k, b.kv[k].value)
		sizes[k] = int64(recordFrameSize + len(body))
		buf = encodeRecord(buf, body)
		if len(buf) >= 1<<20 {
			if _, err := tf.WriteAt(buf, off); err != nil {
				abort()
				return
			}
			off += int64(len(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := tf.WriteAt(buf, off); err != nil {
			abort()
			return
		}
		off += int64(len(buf))
	}
	if err := tf.Sync(); err != nil {
		abort()
		return
	}
	if err := b.fsys.Rename(tmpName, joinPath(b.dir, kvFileName)); err != nil {
		abort()
		return
	}
	_ = b.fsys.SyncDir(b.dir)
	b.kvf.Close()
	b.forgetFile(b.kvf)
	b.kvf = tf
	b.kvSize = off
	b.kvLive = 0
	b.kvDead = 0
	for k, e := range b.kv {
		e.recSize = sizes[k]
		b.kv[k] = e
		b.kvLive += e.recSize
	}
}

// ---- recovery log ----

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

// errSegDamaged marks structural damage in a log segment (sub-header file,
// bad header, corrupt mid-file record): the segment and its successors are
// an orphaned suffix that recovery drops. Any *other* error — a transient
// open failure, fd exhaustion, a read error — must fail the open loudly
// instead: deleting acknowledged log records over an EIO blip is how
// recovery tools destroy the data they exist to protect.
var errSegDamaged = errors.New("storage: damaged log segment")

// openLog rebuilds the segment chain with prefix semantics: segments are
// kept while each one is intact and contiguous with its predecessor; the
// first structurally broken or gapped segment and everything after it are
// dropped. With honest fsyncs only the *last* segment can ever be torn (a
// segment's header is synced before its first record, and a successor is
// only created after the predecessor filled), so nothing acknowledged is
// lost; the drop path only fires on damage that already lost data — exactly
// the point-in-time prefix a write-ahead log must recover to.
// Segment replay — scanning every record frame and checking its crc32c —
// dominates recovery time on a long log, and segments are independent
// files, so the scan fans out across b.recoveryWorkers (pFSCK-style);
// only the chain-prefix decision below stays sequential.
func (b *DiskBackend) openLog(names []string) error {
	var bases []uint64
	for _, n := range names {
		if base, ok := parseSegName(n); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	segs := make([]*segment, len(bases))
	segErrs := make([]error, len(bases))
	if workers := b.recoveryWorkers; workers > 1 && len(bases) > 1 {
		if workers > len(bases) {
			workers = len(bases)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					segs[i], segErrs[i] = b.openSegment(bases[i])
				}
			}()
		}
		for i := range bases {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i, base := range bases {
			segs[i], segErrs[i] = b.openSegment(base)
		}
	}
	closeRest := func(from int) {
		for j := from; j < len(segs); j++ {
			if segs[j] != nil {
				segs[j].f.Close()
			}
		}
	}
	for i := range bases {
		seg, err := segs[i], segErrs[i]
		if err != nil && !errors.Is(err, errSegDamaged) {
			closeRest(i)
			return err
		}
		gap := err == nil && len(b.segs) > 0 &&
			b.segs[len(b.segs)-1].base+uint64(len(b.segs[len(b.segs)-1].offs)) != seg.base
		if err != nil || gap {
			// Orphaned suffix: remove it so the next open sees a clean chain.
			closeRest(i)
			for _, orphan := range bases[i:] {
				_ = b.fsys.Remove(joinPath(b.dir, segName(orphan)))
			}
			break
		}
		b.segs = append(b.segs, seg)
	}
	if len(b.segs) == 0 {
		b.lastSeq = b.truncBefore - 1
	} else {
		last := b.segs[len(b.segs)-1]
		b.lastSeq = last.base + uint64(len(last.offs)) - 1
		if b.lastSeq < b.truncBefore-1 {
			b.lastSeq = b.truncBefore - 1
		}
	}
	// A crash between the meta update and segment deletion can leave whole
	// segments below the truncation point; finish the job. In logheap mode
	// the retention gate is only installed after the heap index is rebuilt,
	// so the open-time pass is deferred until then — dropping a segment here
	// could delete live bucket versions the WAL no longer needs.
	if !b.keepDeadSegs {
		b.dropDeadSegmentsLocked()
	}
	return nil
}

// openSegment opens one segment, truncating a torn tail at the first invalid
// record. Structural damage (sub-header file, bad header, corrupt mid-file
// record) returns an error wrapping errSegDamaged — the caller drops the
// segment as an orphan; every other failure is a real I/O error and
// propagates as-is.
func (b *DiskBackend) openSegment(base uint64) (*segment, error) {
	name := segName(base)
	f, err := b.fsys.OpenFile(joinPath(b.dir, name), os.O_RDWR, 0)
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
		f.Close()
		return nil, err
	}
	damaged := func(format string, args ...any) (*segment, error) {
		f.Close()
		return nil, fmt.Errorf("%w: %s", errSegDamaged, fmt.Sprintf(format, args...))
	}
	if size < fileHeaderSize {
		return damaged("segment %s truncated below its header", name)
	}
	hdr, err := readFileRange(f, 0, fileHeaderSize)
	if err != nil {
		return fail(err)
	}
	_, storedBase, err := decodeFileHeader(hdr, segMagic)
	if err != nil {
		return damaged("segment %s: %v", name, err)
	}
	if storedBase != base {
		return damaged("segment %s header claims base %d", name, storedBase)
	}
	sc := newRecordScanner(f, fileHeaderSize, size)
	off := int64(fileHeaderSize)
	for off < size {
		_, total, err := sc.next()
		if err != nil {
			if errors.Is(err, errTornRecord) {
				break
			}
			if errors.Is(err, errBadRecord) {
				return damaged("segment %s at offset %d: %v", name, off, err)
			}
			return fail(fmt.Errorf("storage: log segment %s at offset %d: %w", name, off, err))
		}
		seg.offs = append(seg.offs, off)
		seg.lens = append(seg.lens, int32(total))
		off += int64(total)
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	seg.size = off
	return seg, nil
}

// Append implements LogStore: the record's covering fsync — issued inline,
// or by the shared commit group — returns before the sequence number does.
// The log is the recovery unit, so an acknowledged append must survive any
// crash. The log lives on its own lock (logMu) and its own files, so log
// appends and bucket-heap writes inside one epoch boundary overlap instead
// of serializing on a shared mutex.
func (b *DiskBackend) Append(record []byte) (uint64, error) {
	res, err := b.appendLogRecord(noStream, record)
	if err != nil {
		return 0, err
	}
	// The lock is already dropped before standing on the barrier, so appends
	// from other namespaces/shards coalesce into (and parallelize within)
	// one flush wave. The sequence number is only returned after a flush
	// covering this record's write ticket lands, so the ack contract holds.
	if err := b.barrierTicket(res.f, res.ticket); err != nil {
		return 0, b.wedge(err)
	}
	return res.seq, nil
}

// AppendNoSync implements LogBatcher: the record is written to the active
// segment but its durability waits for the next SyncLog. Until then the
// sequence number is provisional — a crash may lose the record (and recovery
// will trim it with the torn tail), which is exactly why the LogStore ack
// contract moves to SyncLog's return.
func (b *DiskBackend) AppendNoSync(record []byte) (uint64, error) {
	res, err := b.appendLogRecord(noStream, record)
	if err != nil {
		return 0, err
	}
	b.notePending(res.f, res.ticket)
	return res.seq, nil
}

// SyncLog implements LogBatcher: every append deferred since the last call
// becomes durable. Usually one barrier; two only when appends straddled a
// segment rotation (each file needs its own flush — the outgoing segment's
// tail is not covered by the new segment's barrier).
func (b *DiskBackend) SyncLog() error {
	b.pendMu.Lock()
	pend := b.pendLog
	b.pendLog = nil
	b.pendMu.Unlock()
	for _, p := range pend {
		if err := b.barrierTicket(p.f, p.ticket); err != nil {
			return b.wedge(err)
		}
	}
	return nil
}

// notePending records a deferred append's barrier obligation.
func (b *DiskBackend) notePending(f vfile, ticket uint64) {
	b.pendMu.Lock()
	if n := len(b.pendLog); n > 0 && b.pendLog[n-1].f == f {
		if ticket > b.pendLog[n-1].ticket {
			b.pendLog[n-1].ticket = ticket
		}
	} else {
		b.pendLog = append(b.pendLog, fileTicket{f: f, ticket: ticket})
	}
	b.pendMu.Unlock()
}

// logAppendRes describes where one framed record landed in the physical
// log: its sequence number, the segment (by base) and byte offset of the
// frame, the framed length, and the file+ticket the caller stands on (or
// defers) for durability. The location fields are what lets the logheap
// index point straight back into the log.
type logAppendRes struct {
	seq     uint64
	segBase uint64
	off     int64
	n       int
	f       vfile
	ticket  uint64
}

// noStream: the backend's own raw log, whose records have no stream header.
const noStream = -1

// appendLogRecord frames one record in place in the log's reusable buffer —
// frame header, the shared log's stream header unless stream is noStream,
// the record — writes it to the active segment and stamps it, leaving
// durability to the caller's barrierTicket on the returned file: the seam
// through which several shards' streams land in one physical log and stand
// on the same flush wave. record is not retained.
func (b *DiskBackend) appendLogRecord(stream int, record []byte) (logAppendRes, error) {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	buf := beginRecord(b.logFrame[:0])
	if stream != noStream {
		buf = binary.BigEndian.AppendUint32(buf, uint32(stream))
	}
	buf = append(buf, record...)
	sealRecord(buf)
	b.logFrame = buf
	return b.appendLogFramedLocked(buf)
}

// appendLogFramed is appendLogRecord for a record already framed in a buffer
// of the caller's (beginRecord/sealRecord); framed is not retained.
func (b *DiskBackend) appendLogFramed(framed []byte) (logAppendRes, error) {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	return b.appendLogFramedLocked(framed)
}

func (b *DiskBackend) appendLogFramedLocked(framed []byte) (logAppendRes, error) {
	if err := b.checkUsable(); err != nil {
		return logAppendRes{}, err
	}
	seg, err := b.activeSegmentLocked()
	if err != nil {
		return logAppendRes{}, err
	}
	off := seg.size
	if _, err := seg.f.WriteAt(framed, off); err != nil {
		return logAppendRes{}, b.wedge(err)
	}
	seg.offs = append(seg.offs, off)
	seg.lens = append(seg.lens, int32(len(framed)))
	seg.size += int64(len(framed))
	b.lastSeq++
	return logAppendRes{
		seq:     b.lastSeq,
		segBase: seg.base,
		off:     off,
		n:       len(framed),
		f:       seg.f,
		ticket:  b.stamp(seg.f),
	}, nil
}

// activeSegmentLocked returns the tail segment, rolling to a fresh file once
// the current one exceeds segMaxBytes.
func (b *DiskBackend) activeSegmentLocked() (*segment, error) {
	if n := len(b.segs); n > 0 && b.segs[n-1].size < b.segMaxBytes {
		return b.segs[n-1], nil
	}
	base := b.lastSeq + 1
	name := segName(base)
	f, err := b.fsys.OpenFile(joinPath(b.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, b.wedge(err)
	}
	hdr := encodeFileHeader(segMagic, 0, base)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, b.wedge(err)
	}
	// Reserve the whole segment up front so per-record appends never
	// allocate blocks — the per-barrier fsync then flushes data, not
	// allocation metadata. The header sync below also settles this.
	preallocate(f, 0, b.segMaxBytes)
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, b.wedge(err)
	}
	if err := b.fsys.SyncDir(b.dir); err != nil {
		f.Close()
		return nil, b.wedge(err)
	}
	seg := &segment{f: f, name: name, base: base, size: fileHeaderSize}
	b.segs = append(b.segs, seg)
	return seg, nil
}

// Scan implements LogStore: all records with sequence number >= from, in
// order. Each overlapping segment is served with one ranged pread.
func (b *DiskBackend) Scan(from uint64) ([][]byte, error) {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	if from < b.truncBefore {
		from = b.truncBefore
	}
	var out [][]byte
	err := b.scanLogLocked(from, func(_, _ uint64, _ int64, rec []byte) error {
		out = append(out, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanLog streams every retained record with sequence number >= from, in
// order, passing each record's physical location alongside its body. Unlike
// Scan it does NOT clamp to the WAL truncation point: in logheap mode the
// retention gate keeps whole segments below truncBefore alive because they
// still hold live bucket versions, and index replay must see them. The body
// slice is only valid for the duration of the callback.
func (b *DiskBackend) scanLog(from uint64, fn func(seq, segBase uint64, off int64, rec []byte) error) error {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return err
	}
	return b.scanLogLocked(from, fn)
}

func (b *DiskBackend) scanLogLocked(from uint64, fn func(seq, segBase uint64, off int64, rec []byte) error) error {
	for _, seg := range b.segs {
		n := uint64(len(seg.offs))
		if n == 0 || seg.base+n <= from {
			continue
		}
		start := 0
		if from > seg.base {
			start = int(from - seg.base)
		}
		lo := seg.offs[start]
		buf, err := readFileRange(seg.f, lo, int(seg.size-lo))
		if err != nil {
			return err
		}
		seq := seg.base + uint64(start)
		off := lo
		for rest := buf; len(rest) > 0; {
			body, total, err := decodeRecord(rest)
			if err != nil {
				return fmt.Errorf("storage: log segment %s: %w", seg.name, err)
			}
			if err := fn(seq, seg.base, off, body); err != nil {
				return err
			}
			seq++
			off += int64(total)
			rest = rest[total:]
		}
	}
	return nil
}

// readLogRange serves one ranged pread out of a retained segment, addressed
// by the (segBase, offset) an appendLogRecord or scanLog reported. Every
// retained record's crc32c was verified when its segment was opened (or the
// bytes were written by this process), so the logheap read path slices the
// returned frame without re-checking.
func (b *DiskBackend) readLogRange(segBase uint64, off int64, n int) ([]byte, error) {
	return b.readLogRangeInto(nil, segBase, off, n)
}

// readLogRangeInto is readLogRange into buf's backing array when it is large
// enough.
func (b *DiskBackend) readLogRangeInto(buf []byte, segBase uint64, off int64, n int) ([]byte, error) {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return nil, err
	}
	i := sort.Search(len(b.segs), func(i int) bool { return b.segs[i].base >= segBase })
	if i >= len(b.segs) || b.segs[i].base != segBase {
		return nil, fmt.Errorf("storage: log segment with base %d is gone", segBase)
	}
	seg := b.segs[i]
	if off < int64(fileHeaderSize) || n < 0 || off+int64(n) > seg.size {
		return nil, fmt.Errorf("storage: read [%d,+%d) outside log segment %s", off, n, seg.name)
	}
	return readFileRangeInto(buf, seg.f, off, n)
}

// Truncate implements LogStore: the truncation point lands durably in the
// meta file first, then whole segments below it are deleted. A crash in
// between just leaves dead segments for the next open to finish removing.
func (b *DiskBackend) Truncate(before uint64) error {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if err := b.checkUsable(); err != nil {
		return err
	}
	if before > b.lastSeq+1 {
		before = b.lastSeq + 1
	}
	if before <= b.truncBefore {
		return nil
	}
	old := b.truncBefore
	b.truncBefore = before
	if err := b.writeMeta(); err != nil {
		b.truncBefore = old
		// The rename is atomic — the on-disk meta is either the old or the
		// new truncation point, both consistent — but we no longer know
		// which, so the in-memory view may diverge: fail stop.
		return b.wedge(err)
	}
	b.dropDeadSegmentsLocked()
	return nil
}

// setSegRetain installs the logheap retention gate: a function returning
// the first physical sequence number that must stay on disk regardless of
// the WAL truncation point (live bucket versions, and records above the
// index checkpoint watermark). The gate is called while logMu is held, so
// it must only read atomics — never take a lock that can itself wait on
// the log (lock order is heap mu → shared log mu → logMu).
func (b *DiskBackend) setSegRetain(gate func() uint64) {
	b.logMu.Lock()
	b.segRetain = gate
	b.logMu.Unlock()
}

// dropDeadSegments re-runs dead-segment collection outside any truncation;
// the logheap GC pokes it after the retention gate rises.
func (b *DiskBackend) dropDeadSegments() {
	b.logMu.Lock()
	if b.checkUsable() == nil {
		b.dropDeadSegmentsLocked()
	}
	b.logMu.Unlock()
}

// dropDeadSegmentsLocked removes segments whose every record is below both
// the truncation point and the logheap retention gate. The tail segment
// survives even when fully dead so the next Append can keep extending it.
func (b *DiskBackend) dropDeadSegmentsLocked() {
	keep := b.truncBefore
	if b.segRetain != nil {
		if g := b.segRetain(); g < keep {
			keep = g
		}
	}
	drop := func(seg *segment) {
		seg.f.Close()
		b.forgetFile(seg.f)
		_ = b.fsys.Remove(joinPath(b.dir, seg.name)) // reopen filters it anyway
	}
	for len(b.segs) > 1 {
		seg := b.segs[0]
		if seg.base+uint64(len(seg.offs)) > keep {
			break
		}
		drop(seg)
		b.segs = b.segs[1:]
	}
	if len(b.segs) == 1 {
		seg := b.segs[0]
		if seg.base+uint64(len(seg.offs)) <= keep {
			drop(seg)
			b.segs = nil
		}
	}
}

// gcCandidates lists the sealed segments whose every record sits below the
// WAL truncation point, oldest first: nothing but the logheap retention gate
// keeps them on disk, so evacuating their live bucket versions frees them.
// The active tail is never a candidate.
func (b *DiskBackend) gcCandidates() []uint64 {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	var bases []uint64
	for i := 0; i+1 < len(b.segs); i++ {
		seg := b.segs[i]
		if seg.base+uint64(len(seg.offs)) > b.truncBefore {
			break
		}
		bases = append(bases, seg.base)
	}
	return bases
}

// truncFloor returns the WAL truncation point (first retained WAL
// sequence).
func (b *DiskBackend) truncFloor() uint64 {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	return b.truncBefore
}

// LastSeq implements LogStore.
func (b *DiskBackend) LastSeq() (uint64, error) {
	b.logMu.RLock()
	defer b.logMu.RUnlock()
	if err := b.checkUsable(); err != nil {
		return 0, err
	}
	return b.lastSeq, nil
}
