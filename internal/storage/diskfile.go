package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file defines the narrow file abstraction a disk group performs all its
// I/O through, plus the length-prefixed, checksummed record framing shared by
// every on-disk file. Keeping the surface small serves two masters: the
// crash-point test harness interposes an in-memory fault-injecting
// implementation behind the same interface, and the durability argument only
// has to reason about five primitives (write-at, sync, truncate, rename,
// directory sync).

// vfile is one open file. A disk group only ever appends at a tracked offset
// (WriteAt), reads every file — a log segment, the meta header — through a
// read-only shared mapping (Map), truncates torn tails on open, and syncs at
// durability barriers; there is no seek state to reason about, and no read
// that could bypass a mapping.
type vfile interface {
	io.WriterAt
	// Truncate cuts the file to size bytes (used to drop torn tails).
	Truncate(size int64) error
	// Sync is the durability barrier: on return, all previously written
	// bytes of this file must survive a crash.
	Sync() error
	// Size reports the current file length.
	Size() (int64, error)
	// Map maps the file's first n bytes read-only and shared, n possibly
	// past its end: what WriteAt writes inside the mapping is visible
	// through it at once, and only bytes the file holds may be read. Unmap
	// releases such a mapping. A platform without mappings fails Map, and
	// with it the group's open.
	Map(n int64) ([]byte, error)
	Unmap(b []byte) error
	Close() error
}

// vfs is the file-system surface a disk group uses. Path arguments are
// regular slash paths inside the group's data directory.
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
// the data alone. Reserving a segment up front moves that cost off the
// per-barrier path. Purely a performance lever:
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
	// maxRecordSize bounds one record (a bucket version or a log record); it
	// matches the wire protocol's frame bound.
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

// decodeRecords decodes the framed records at the front of buf in order,
// handing fn each one's offset in buf and body (aliasing buf), and returns
// the length of the valid prefix: it stops at the first torn record, which
// is not an error. Corruption or fn's error stops it with that error, the
// offset returned being the failing record's.
func decodeRecords(buf []byte, fn func(off int, body []byte) error) (int, error) {
	off := 0
	for off < len(buf) {
		body, size, err := decodeRecord(buf[off:])
		if errors.Is(err, errTornRecord) {
			break
		}
		if err == nil {
			err = fn(off, body)
		}
		if err != nil {
			return off, err
		}
		off += size
	}
	return off, nil
}

// ---- file headers ----
//
// Every file starts with a 24-byte header: 8-byte magic, a u32 and a u64
// parameter (meaning depends on the file kind), and a crc32c over the first
// 20 bytes.

const fileHeaderSize = 24

const (
	segMagic  = "OBSEG001"
	metaMagic = "OBMETA01"
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

// slotLengths is the per-slot length table of a version whose slots differ
// in length.
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

func joinPath(dir, name string) string { return filepath.Join(dir, name) }

// failStop is a disk store's fail-stop state: closed, or wedged by an I/O
// error. After a failed write or barrier the store's in-memory state may be
// ahead of its files, and continuing could ack operations the disk never
// saw; fail-stop is the honest behaviour, and reopening replays the files
// back to a consistent state. Its own tiny mutex keeps the wedge from
// waiting on a data lock.
type failStop struct {
	name   string // the store, in the wedge's error
	stMu   sync.Mutex
	closed bool
	ioErr  error // sticky: the first failure's
}

// checkUsable reports ErrClosed once the store is closed and the wedge's
// error once it is wedged.
func (f *failStop) checkUsable() error {
	f.stMu.Lock()
	defer f.stMu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.ioErr
}

// wedge marks the store unusable and returns err.
func (f *failStop) wedge(err error) error {
	f.stMu.Lock()
	defer f.stMu.Unlock()
	if f.ioErr == nil {
		f.ioErr = fmt.Errorf("storage: %s disabled by I/O error: %w", f.name, err)
	}
	return err
}

// markClosed marks the store closed and reports whether it already was.
func (f *failStop) markClosed() (was bool) {
	f.stMu.Lock()
	defer f.stMu.Unlock()
	was, f.closed = f.closed, true
	return was
}
