package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// This file defines the narrow file abstraction DiskBackend performs all its
// I/O through, plus the length-prefixed, checksummed record framing shared by
// every on-disk file. Keeping the surface small serves two masters: the
// crash-point test harness interposes an in-memory fault-injecting
// implementation behind the same interface, and the durability argument only
// has to reason about five primitives (write-at, sync, truncate, rename,
// directory sync).

// vfile is one open file. DiskBackend only ever appends at a tracked offset
// (WriteAt), reads with positional reads (ReadAt), truncates torn tails on
// open, and syncs at durability barriers; there is no seek state to reason
// about.
type vfile interface {
	io.ReaderAt
	io.WriterAt
	// Truncate cuts the file to size bytes (used to drop torn tails).
	Truncate(size int64) error
	// Sync is the durability barrier: on return, all previously written
	// bytes of this file must survive a crash.
	Sync() error
	// Size reports the current file length.
	Size() (int64, error)
	Close() error
}

// vfs is the file-system surface DiskBackend uses. Path arguments are
// regular slash paths inside the backend's data directory.
type vfs interface {
	OpenFile(name string, flag int, perm os.FileMode) (vfile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// List returns the file names (not paths) inside dir.
	List(dir string) ([]string, error)
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir makes directory metadata (creates, renames, removes) durable.
	SyncDir(dir string) error
}

// preallocator is an optional vfile capability: reserve backing store for
// [off, off+n) so later in-range appends don't allocate blocks. On ext4
// every append into unreserved space dirties allocation metadata, and the
// next fsync pays a journal commit for it — measurably more than flushing
// the data alone. Reserving a segment (or a heap growth chunk) up front
// moves that cost off the per-barrier path. Purely a performance lever:
// reserved-but-unwritten space reads as zeros, which the record framing
// already rejects as a torn tail (the CRC covers the length prefix), so
// recovery is unchanged.
type preallocator interface {
	Preallocate(off, n int64) error
}

// preallocate best-effort reserves [off, off+n) of f's backing store. A
// file or platform without the capability (or a failing fallocate — e.g. an
// unsupported filesystem) degrades to ordinary allocate-on-write.
func preallocate(f vfile, off, n int64) {
	if n <= 0 {
		return
	}
	if p, ok := f.(preallocator); ok {
		_ = p.Preallocate(off, n)
	}
}

// osFS is the real file system.
type osFS struct{}

type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir fsyncs the directory so renames and file creations inside it are
// durable (a rename without a directory sync is the classic crash-consistency
// bug: the new name can vanish on power loss even though the data survived).
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir is a package-level helper for callers outside DiskBackend (the
// MemBackend snapshot path) that need the same rename-durability barrier.
func syncDir(dir string) error { return osFS{}.SyncDir(dir) }

// ---- record framing ----
//
// Every on-disk file is a fixed header followed by framed records:
//
//	u32 body length | u32 crc32c(body) | body
//
// A record is valid only if it fits the file and its checksum matches; the
// first invalid record terminates replay. Because every durability barrier
// (fsync) happens after complete records, a crash can only produce a torn
// *suffix*, which open discards by truncating at the first invalid record.

var diskCRC = crc32.MakeTable(crc32.Castagnoli)

const (
	recordFrameSize = 8 // u32 len | u32 crc
	// maxRecordSize bounds one record (a bucket version, a log record, or a
	// KV entry); it matches the wire protocol's frame bound.
	maxRecordSize = 64 << 20
)

var (
	// errTornRecord marks an incomplete record at the end of a file: the
	// expected crash signature, repaired by truncation.
	errTornRecord = errors.New("storage: torn disk record")
	// errBadRecord marks a structurally invalid record body under a valid
	// checksum: real corruption, which must fail loudly.
	errBadRecord = errors.New("storage: corrupt disk record")
)

// recordCRC covers the length prefix as well as the body. Covering the
// length matters for crash recovery: a zero-filled region (an unsynced gap a
// torn write can leave behind) would otherwise decode as a valid empty
// record — length 0, checksum 0, crc32c("") == 0 — and replay would march
// through garbage instead of stopping.
func recordCRC(lenPrefix, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenPrefix, diskCRC), diskCRC, body)
}

// beginRecord appends an empty frame header to dst; the caller appends the
// body behind it, in pieces, straight from wherever they lie, and then calls
// sealRecord: a body is written once, into the buffer that goes to the file.
func beginRecord(dst []byte) []byte {
	return append(dst, make([]byte, recordFrameSize)...)
}

// sealRecord fills in the header (length, checksum) of the one record in rec.
func sealRecord(rec []byte) {
	body := rec[recordFrameSize:]
	binary.BigEndian.PutUint32(rec[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:8], recordCRC(rec[:4], body))
}

// encodeRecord appends the framed record to dst and returns the extended
// slice.
func encodeRecord(dst, body []byte) []byte {
	at := len(dst)
	dst = append(beginRecord(dst), body...)
	sealRecord(dst[at:])
	return dst
}

// decodeRecord parses one framed record from the front of buf. The returned
// body aliases buf; size is the total framed length consumed.
func decodeRecord(buf []byte) (body []byte, size int, err error) {
	if len(buf) < recordFrameSize {
		return nil, 0, errTornRecord
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if n > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: %d byte record exceeds limit", errBadRecord, n)
	}
	if len(buf)-recordFrameSize < n {
		return nil, 0, errTornRecord
	}
	body = buf[recordFrameSize : recordFrameSize+n]
	if recordCRC(buf[:4], body) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, 0, errTornRecord
	}
	return body, recordFrameSize + n, nil
}

// ---- file headers ----
//
// Every file starts with a 24-byte header: 8-byte magic, a u32 and a u64
// parameter (meaning depends on the file kind), and a crc32c over the first
// 20 bytes.

const fileHeaderSize = 24

const (
	heapMagic = "OBHEAP01"
	segMagic  = "OBSEG001"
	kvMagic   = "OBKV0001"
	metaMagic = "OBMETA01"
	// lhixMagic heads a LogHeap index checkpoint: u32 = bucket count,
	// u64 = physical-log watermark W (every own-stream record with physical
	// sequence <= W is reflected in the checkpointed index).
	lhixMagic = "OBLHIX01"
)

func encodeFileHeader(magic string, a uint32, b uint64) []byte {
	hdr := make([]byte, 0, fileHeaderSize)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint32(hdr, a)
	hdr = binary.BigEndian.AppendUint64(hdr, b)
	return binary.BigEndian.AppendUint32(hdr, crc32.Checksum(hdr, diskCRC))
}

func decodeFileHeader(buf []byte, magic string) (a uint32, b uint64, err error) {
	if len(buf) < fileHeaderSize {
		return 0, 0, fmt.Errorf("%w: short file header", errBadRecord)
	}
	if string(buf[:8]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic %q (want %q)", errBadRecord, buf[:8], magic)
	}
	if crc32.Checksum(buf[:20], diskCRC) != binary.BigEndian.Uint32(buf[20:24]) {
		return 0, 0, fmt.Errorf("%w: file header checksum mismatch", errBadRecord)
	}
	return binary.BigEndian.Uint32(buf[8:12]), binary.BigEndian.Uint64(buf[12:20]), nil
}

// ---- heap record bodies ----

const (
	heapKindVersion  = 1 // u32 bucket | u64 epoch | u32 nslots | (u32 len | bytes)*
	heapKindCommit   = 2 // u64 epoch
	heapKindRollback = 3 // u64 epoch
	// heapKindGCCopy is a version record re-appended by LogHeap segment GC
	// (same layout as heapKindVersion). Replay applies it only when the index
	// still holds an entry for the same bucket+epoch — it relocates data, it
	// never introduces a version shadow paging didn't already install.
	heapKindGCCopy = 4
)

// heapVersionDataStart is the offset, within a version record body, of the
// first slot's length prefix.
const heapVersionDataStart = 1 + 4 + 8 + 4

// appendVersionBody appends a version record body to dst.
func appendVersionBody(dst []byte, kind byte, bucket int, epoch uint64, slots [][]byte) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(bucket))
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(slots)))
	for _, s := range slots {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// splitSlots is slotLengths' inverse over a version body's slot span (a
// length prefix before each slot) read back from a file; the slots alias buf.
func splitSlots(buf []byte, lens []uint32) [][]byte {
	slots := make([][]byte, len(lens))
	pos := 0
	for i, l := range lens {
		pos += 4
		slots[i] = buf[pos : pos+int(l)]
		pos += int(l)
	}
	return slots
}

// slotLengths is the per-slot length table a version's index entry keeps.
func slotLengths(slots [][]byte) []uint32 {
	lens := make([]uint32, len(slots))
	for i, s := range slots {
		lens[i] = uint32(len(s))
	}
	return lens
}

func encodeEpochBody(kind byte, epoch uint64) []byte {
	body := make([]byte, 0, 9)
	body = append(body, kind)
	return binary.BigEndian.AppendUint64(body, epoch)
}

// heapRec is a parsed heap record body.
type heapRec struct {
	kind     byte
	bucket   int
	epoch    uint64
	slotLens []uint32 // version records only
}

// parseHeapBody decodes a heap record body, bounds-checking everything so a
// corrupt body errors instead of mis-deserializing.
func parseHeapBody(body []byte) (heapRec, error) {
	if len(body) == 0 {
		return heapRec{}, fmt.Errorf("%w: empty heap record", errBadRecord)
	}
	switch body[0] {
	case heapKindCommit, heapKindRollback:
		if len(body) != 9 {
			return heapRec{}, fmt.Errorf("%w: epoch record of %d bytes", errBadRecord, len(body))
		}
		return heapRec{kind: body[0], epoch: binary.BigEndian.Uint64(body[1:9])}, nil
	case heapKindVersion, heapKindGCCopy:
		if len(body) < heapVersionDataStart {
			return heapRec{}, fmt.Errorf("%w: short version record", errBadRecord)
		}
		rec := heapRec{
			kind:   body[0],
			bucket: int(binary.BigEndian.Uint32(body[1:5])),
			epoch:  binary.BigEndian.Uint64(body[5:13]),
		}
		nslots := int(binary.BigEndian.Uint32(body[13:17]))
		if nslots < 0 || nslots > maxVector {
			return heapRec{}, fmt.Errorf("%w: version record with %d slots", errBadRecord, nslots)
		}
		rec.slotLens = make([]uint32, nslots)
		off := heapVersionDataStart
		for i := 0; i < nslots; i++ {
			if len(body)-off < 4 {
				return heapRec{}, fmt.Errorf("%w: truncated slot table", errBadRecord)
			}
			l := binary.BigEndian.Uint32(body[off : off+4])
			off += 4
			if int64(l) > int64(len(body)-off) {
				return heapRec{}, fmt.Errorf("%w: slot length %d overruns record", errBadRecord, l)
			}
			rec.slotLens[i] = l
			off += int(l)
		}
		if off != len(body) {
			return heapRec{}, fmt.Errorf("%w: %d trailing bytes in version record", errBadRecord, len(body)-off)
		}
		return rec, nil
	default:
		return heapRec{}, fmt.Errorf("%w: unknown heap record kind %d", errBadRecord, body[0])
	}
}

// ---- LogHeap index-checkpoint record bodies ----
//
// A LogHeap index checkpoint is an atomically-replaced file (lhixMagic
// header carrying the bucket count and the watermark W) holding framed
// records: one state record with the committed epoch frontier, then one
// version record per live index entry in bucket order, stack order (oldest
// first). It stores *locations* into the shared physical log, never slot
// bytes, so replay after the checkpoint is bounded to own-stream records
// with physical sequence > W.

const (
	lhixKindState   = 1 // u64 committed epoch
	lhixKindVersion = 2 // u32 bucket | u64 epoch | u64 segBase | u64 off | u32 recLen | u32 nslots | u32 len*
)

// lhixVersionDataStart is the offset, within a checkpoint version record
// body, of the first slot-length entry.
const lhixVersionDataStart = 1 + 4 + 8 + 8 + 8 + 4 + 4

func appendLhixVersion(body []byte, bucket int, epoch, segBase uint64, off int64, recLen int, slotLens []uint32) []byte {
	body = append(body, lhixKindVersion)
	body = binary.BigEndian.AppendUint32(body, uint32(bucket))
	body = binary.BigEndian.AppendUint64(body, epoch)
	body = binary.BigEndian.AppendUint64(body, segBase)
	body = binary.BigEndian.AppendUint64(body, uint64(off))
	body = binary.BigEndian.AppendUint32(body, uint32(recLen))
	body = binary.BigEndian.AppendUint32(body, uint32(len(slotLens)))
	for _, l := range slotLens {
		body = binary.BigEndian.AppendUint32(body, l)
	}
	return body
}

// lhixRec is a parsed checkpoint record body.
type lhixRec struct {
	kind      byte
	committed uint64 // state records
	bucket    int    // version records from here down
	epoch     uint64
	segBase   uint64
	off       int64
	recLen    int
	slotLens  []uint32
}

// parseLhixBody decodes a checkpoint record body. Like parseHeapBody, every
// field is bounds-checked: a structurally invalid body under a valid frame
// checksum is corruption and must fail loudly, not mis-deserialize.
func parseLhixBody(body []byte) (lhixRec, error) {
	if len(body) == 0 {
		return lhixRec{}, fmt.Errorf("%w: empty index checkpoint record", errBadRecord)
	}
	switch body[0] {
	case lhixKindState:
		if len(body) != 9 {
			return lhixRec{}, fmt.Errorf("%w: checkpoint state record of %d bytes", errBadRecord, len(body))
		}
		return lhixRec{kind: lhixKindState, committed: binary.BigEndian.Uint64(body[1:9])}, nil
	case lhixKindVersion:
		if len(body) < lhixVersionDataStart {
			return lhixRec{}, fmt.Errorf("%w: short checkpoint version record", errBadRecord)
		}
		rec := lhixRec{
			kind:    lhixKindVersion,
			bucket:  int(binary.BigEndian.Uint32(body[1:5])),
			epoch:   binary.BigEndian.Uint64(body[5:13]),
			segBase: binary.BigEndian.Uint64(body[13:21]),
			off:     int64(binary.BigEndian.Uint64(body[21:29])),
			recLen:  int(binary.BigEndian.Uint32(body[29:33])),
		}
		if rec.off < 0 || rec.recLen < 0 || rec.recLen > maxRecordSize {
			return lhixRec{}, fmt.Errorf("%w: checkpoint version location out of range", errBadRecord)
		}
		nslots := int(binary.BigEndian.Uint32(body[33:37]))
		if nslots < 0 || nslots > maxVector {
			return lhixRec{}, fmt.Errorf("%w: checkpoint version with %d slots", errBadRecord, nslots)
		}
		if len(body)-lhixVersionDataStart != 4*nslots {
			return lhixRec{}, fmt.Errorf("%w: checkpoint slot table size mismatch", errBadRecord)
		}
		rec.slotLens = make([]uint32, nslots)
		for i := 0; i < nslots; i++ {
			rec.slotLens[i] = binary.BigEndian.Uint32(body[lhixVersionDataStart+4*i:])
		}
		return rec, nil
	default:
		return lhixRec{}, fmt.Errorf("%w: unknown index checkpoint record kind %d", errBadRecord, body[0])
	}
}

// ---- KV record bodies ----

const (
	kvKindPut = 1 // u32 klen | key | u32 vlen | value
	kvKindDel = 2 // u32 klen | key
)

func encodeKVBody(kind byte, key string, value []byte) []byte {
	n := 1 + 4 + len(key)
	if kind == kvKindPut {
		n += 4 + len(value)
	}
	body := make([]byte, 0, n)
	body = append(body, kind)
	body = binary.BigEndian.AppendUint32(body, uint32(len(key)))
	body = append(body, key...)
	if kind == kvKindPut {
		body = binary.BigEndian.AppendUint32(body, uint32(len(value)))
		body = append(body, value...)
	}
	return body
}

// parseKVBody decodes a KV record body.
func parseKVBody(body []byte) (kind byte, key string, value []byte, err error) {
	if len(body) < 5 {
		return 0, "", nil, fmt.Errorf("%w: short kv record", errBadRecord)
	}
	kind = body[0]
	klen := int(binary.BigEndian.Uint32(body[1:5]))
	if klen < 0 || len(body)-5 < klen {
		return 0, "", nil, fmt.Errorf("%w: kv key length %d overruns record", errBadRecord, klen)
	}
	key = string(body[5 : 5+klen])
	rest := body[5+klen:]
	switch kind {
	case kvKindDel:
		if len(rest) != 0 {
			return 0, "", nil, fmt.Errorf("%w: trailing bytes in kv delete", errBadRecord)
		}
		return kind, key, nil, nil
	case kvKindPut:
		if len(rest) < 4 {
			return 0, "", nil, fmt.Errorf("%w: truncated kv value", errBadRecord)
		}
		vlen := int(binary.BigEndian.Uint32(rest[:4]))
		if vlen < 0 || len(rest)-4 != vlen {
			return 0, "", nil, fmt.Errorf("%w: kv value length %d mismatches record", errBadRecord, vlen)
		}
		value = make([]byte, vlen)
		copy(value, rest[4:])
		return kind, key, value, nil
	default:
		return 0, "", nil, fmt.Errorf("%w: unknown kv record kind %d", errBadRecord, kind)
	}
}

// recordScanner sequentially decodes framed records from a vfile using
// chunked buffered reads, so replaying a large file costs one syscall per
// chunk instead of two per record. The body returned by next aliases the
// scanner's buffer and is only valid until the following call.
type recordScanner struct {
	f        vfile
	size     int64 // scan stops here
	bufStart int64 // file offset of buf[0]
	buf      []byte
	pos      int // parse position within buf
}

const scannerChunk = 256 << 10

func newRecordScanner(f vfile, off, size int64) *recordScanner {
	return &recordScanner{f: f, size: size, bufStart: off}
}

// ensure makes at least n unparsed bytes available in the buffer (bounded by
// the file size). It returns the number actually available.
func (s *recordScanner) ensure(n int) (int, error) {
	if avail := len(s.buf) - s.pos; avail >= n {
		return avail, nil
	}
	// Compact the consumed prefix away, then read a chunk.
	s.buf = append(s.buf[:0], s.buf[s.pos:]...)
	s.bufStart += int64(s.pos)
	s.pos = 0
	want := n - len(s.buf)
	if want < scannerChunk {
		want = scannerChunk
	}
	if left := s.size - s.bufStart - int64(len(s.buf)); int64(want) > left {
		want = int(left)
	}
	if want > 0 {
		ext, err := readFileRange(s.f, s.bufStart+int64(len(s.buf)), want)
		if err != nil {
			return 0, err
		}
		s.buf = append(s.buf, ext...)
	}
	return len(s.buf), nil
}

// next decodes the next record, returning its body and total framed size.
// It returns errTornRecord at a torn tail and errBadRecord on structural
// corruption, exactly like decodeRecord.
func (s *recordScanner) next() (body []byte, size int, err error) {
	avail, err := s.ensure(recordFrameSize)
	if err != nil {
		return nil, 0, err
	}
	if avail < recordFrameSize {
		return nil, 0, errTornRecord
	}
	n := int(binary.BigEndian.Uint32(s.buf[s.pos : s.pos+4]))
	if n > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: %d byte record exceeds limit", errBadRecord, n)
	}
	avail, err = s.ensure(recordFrameSize + n)
	if err != nil {
		return nil, 0, err
	}
	if avail < recordFrameSize+n {
		return nil, 0, errTornRecord
	}
	body, size, err = decodeRecord(s.buf[s.pos : s.pos+recordFrameSize+n])
	if err != nil {
		return nil, 0, err
	}
	s.pos += size
	return body, size, nil
}

// readFileRange reads [off, off+n) from f, failing on short reads.
func readFileRange(f vfile, off int64, n int) ([]byte, error) {
	return readFileRangeInto(nil, f, off, n)
}

// readFileRangeInto is readFileRange into buf's backing array when it is
// large enough (a fresh one otherwise); the result does not extend buf.
func readFileRangeInto(buf []byte, f vfile, off int64, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	got, err := f.ReadAt(buf, off)
	if got == n {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return nil, err
}

func joinPath(dir, name string) string { return filepath.Join(dir, name) }
