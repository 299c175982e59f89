package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
)

// This file holds the one version index every store keeps its bucket tree in
// (§8's shadow paging): per bucket a stack of versions, oldest first, each
// tagged with the epoch that wrote it; the committed frontier; the buckets
// holding more than one version, the only ones a commit has anything to retire
// from; and the slabs a MemBackend's versions live in. The stores differ only
// in where a version's bytes are: in a slab (MemBackend), or in its record on
// the group's log (LogHeap), whether this process wrote it or replayed it, so
// a LogHeap's reads are copies out of the log (versionFile). The owning
// store's lock guards the index: reads run under its read lock, everything
// else under its write lock.

// version is one shadow-paged copy of a bucket.
type version struct {
	epoch  uint64
	layout slotLayout
	// mirror holds a MemBackend version's slots back to back in one of the
	// index's slabs; a LogHeap's versions have none.
	mirror []byte
	// seg and off locate the version's record on a durable store's log: the
	// segment it lies in (by base) and its frame offset.
	seg uint64
	off int64
}

type versionIndex struct {
	buckets   [][]version
	multi     []int
	committed uint64
	slabs     slabs
	// dataStart is how far past its frame offset a record's first slot-length
	// prefix lies (0 for a store without records).
	dataStart int64
}

func newVersionIndex(numBuckets int, dataStart int64) versionIndex {
	return versionIndex{buckets: make([][]version, numBuckets), dataStart: dataStart}
}

// recLen is the framed length of v's record.
func (ix *versionIndex) recLen(v *version) int64 { return ix.dataStart + int64(v.layout.span(4)) }

// slotRange is the file range of one slot's bytes in v's record.
func (ix *versionIndex) slotRange(v *version, slot int) (off int64, n int) {
	at, n := v.layout.at(slot, 4)
	return v.off + ix.dataStart + int64(at), n
}

// checkWrite refuses a write to bucket for an epoch below its newest
// version's: the pipelined proxy flushes its live epochs in order, so such a
// write would bury a newer version and can only be a pipelining bug. Writes
// within one epoch supersede each other in place: the proxy deduplicates
// bucket writes, but recovery replay may rewrite a bucket.
func (ix *versionIndex) checkWrite(bucket int, epoch uint64) error {
	if err := checkBucket(bucket, len(ix.buckets)); err != nil {
		return err
	}
	vs := ix.buckets[bucket]
	if n := len(vs); n > 0 && vs[n-1].epoch > epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, epoch, vs[n-1].epoch)
	}
	return nil
}

// write installs a MemBackend's v with a mirror of slots, copied into a slab.
func (ix *versionIndex) write(bucket int, v version, slots [][]byte) error {
	if err := ix.checkWrite(bucket, v.epoch); err != nil {
		return err
	}
	v.mirror = ix.slabs.copySlots(slots, v.layout)
	ix.push(bucket, v)
	return nil
}

// install installs v as it is: a version on a LogHeap's log, written or
// replayed.
func (ix *versionIndex) install(bucket int, v version) error {
	if err := ix.checkWrite(bucket, v.epoch); err != nil {
		return err
	}
	ix.push(bucket, v)
	return nil
}

// relocate points bucket's entry for v's epoch at v, a segment GC copy
// replayed. When the copy's original lay in a segment dropped since, the
// stack holds no entry for the epoch, and v goes in at the epoch's place,
// not on top: a committed version can be copied after a newer uncommitted
// one was written.
func (ix *versionIndex) relocate(bucket int, v version) {
	vs := ix.buckets[bucket]
	i, found := slices.BinarySearchFunc(vs, v.epoch, func(x version, e uint64) int { return cmp.Compare(x.epoch, e) })
	if found {
		vs[i] = v
		return
	}
	if len(vs) == 1 {
		ix.multi = append(ix.multi, bucket)
	}
	ix.buckets[bucket] = slices.Insert(vs, i, v)
}

// push puts v on top of bucket's stack, retiring a version of the same epoch
// it replaces.
func (ix *versionIndex) push(bucket int, v version) {
	vs := ix.buckets[bucket]
	n := len(vs)
	if n > 0 && vs[n-1].epoch == v.epoch {
		ix.retire(&vs[n-1])
		vs[n-1] = v
		return
	}
	if n == 1 {
		ix.multi = append(ix.multi, bucket)
	}
	ix.buckets[bucket] = append(vs, v)
}

// retire hands a MemBackend version's slab back (a LogHeap's has none). The
// caller guarantees nothing reads it any more.
func (ix *versionIndex) retire(v *version) { ix.slabs.put(v.mirror) }

// commit advances the committed frontier to epoch and retires every version
// below the newest one tagged at or under it, visiting only the buckets multi
// lists: a commit costs what the epochs since the last one wrote.
func (ix *versionIndex) commit(epoch uint64) {
	ix.committed = max(ix.committed, epoch)
	still := ix.multi[:0]
	for _, b := range ix.multi {
		vs := ix.buckets[b]
		keep := len(vs) - 1
		for keep > 0 && vs[keep].epoch > ix.committed {
			keep--
		}
		if keep > 0 {
			for i := range vs[:keep] {
				ix.retire(&vs[i])
			}
			n := copy(vs, vs[keep:])
			clear(vs[n:])
			vs = vs[:n]
			ix.buckets[b] = vs
		}
		if len(vs) > 1 {
			still = append(still, b)
		}
	}
	ix.multi = still
}

// rollback retires every version tagged above epoch, the shadow-paging
// revert, and lowers the committed frontier to it.
func (ix *versionIndex) rollback(epoch uint64) {
	ix.multi = ix.multi[:0]
	for b, vs := range ix.buckets {
		n := len(vs)
		for n > 0 && vs[n-1].epoch > epoch {
			n--
			ix.retire(&vs[n])
		}
		clear(vs[n:])
		ix.buckets[b] = vs[:n]
		if n > 1 {
			ix.multi = append(ix.multi, b)
		}
	}
	ix.committed = min(ix.committed, epoch)
}

// count reports how many versions bucket holds (0 out of range).
func (ix *versionIndex) count(bucket int) int {
	if bucket < 0 || bucket >= len(ix.buckets) {
		return 0
	}
	return len(ix.buckets[bucket])
}

// newest is bucket's newest version, nil when the bucket was never written.
func (ix *versionIndex) newest(bucket int) (*version, error) {
	if err := checkBucket(bucket, len(ix.buckets)); err != nil {
		return nil, err
	}
	vs := ix.buckets[bucket]
	if len(vs) == 0 {
		return nil, nil
	}
	return &vs[len(vs)-1], nil
}

// slot is bucket's newest version, with slot bounds-checked against it.
func (ix *versionIndex) slot(bucket, slot int) (*version, error) {
	v, err := ix.newest(bucket)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, fmt.Errorf("%w: bucket %d never written", ErrNoSuchSlot, bucket)
	}
	if slot < 0 || slot >= v.layout.n {
		return nil, fmt.Errorf("%w: bucket %d slot %d (have %d)", ErrNoSuchSlot, bucket, slot, v.layout.n)
	}
	return v, nil
}

// versionFile is where a LogHeap's versions are read from: its log, whose
// read lock the caller holds for the whole read, so no segment a version lies
// in is unmapped under it. take returns n bytes for a read's results, and
// readAt fills dst with the bytes at off of the segment seg names.
type versionFile interface {
	take(n int) []byte
	readAt(dst []byte, seg uint64, off int64) error
}

// readSlots answers a vectored read: from the versions' mirrors (f nil), or
// copied out of f into one buffer after every ref is validated, so the vector
// fails as a whole before any copy.
func (ix *versionIndex) readSlots(refs []SlotRef, f versionFile) ([][]byte, error) {
	out := make([][]byte, len(refs))
	total := 0
	for i, r := range refs {
		v, err := ix.slot(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		if f == nil {
			out[i] = v.layout.slotIn(v.mirror, r.Slot, 0)
		}
		total += v.layout.slotLen(r.Slot)
	}
	if f == nil {
		return out, nil
	}
	buf := f.take(total)
	for i, r := range refs {
		vs := ix.buckets[r.Bucket] // validated above
		v := &vs[len(vs)-1]
		off, n := ix.slotRange(v, r.Slot)
		out[i], buf = buf[:n:n], buf[n:]
		if err := f.readAt(out[i], v.seg, off); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBucket returns a copy of every slot of bucket's newest version (none
// for a bucket never written), which the caller keeps: only tests and tools
// read a whole bucket, so the server encodes this copy too.
func (ix *versionIndex) readBucket(bucket int, f versionFile) ([][]byte, error) {
	v, err := ix.newest(bucket)
	if err != nil || v == nil {
		return nil, err
	}
	if f == nil {
		return v.layout.split(bytes.Clone(v.mirror), 0), nil
	}
	span := f.take(v.layout.span(4))
	if err := f.readAt(span, v.seg, v.off+ix.dataStart); err != nil {
		return nil, err
	}
	return v.layout.split(span, 4), nil
}

// encodeSlots is readSlots appended to dst as a count-prefixed field vector
// (readEncoder), each slot copied straight into the reply: from its mirror,
// or out of f with the length prefix its record holds, which is the field's.
func (ix *versionIndex) encodeSlots(dst []byte, refs []SlotRef, f versionFile) ([]byte, error) {
	e := encoder{buf: dst}
	e.u32(uint32(len(refs)))
	for _, r := range refs {
		v, err := ix.slot(r.Bucket, r.Slot)
		if err != nil {
			return e.buf, err
		}
		if f == nil {
			e.bytes(v.layout.slotIn(v.mirror, r.Slot, 0))
			continue
		}
		off, n := ix.slotRange(v, r.Slot)
		if e.buf, err = appendRead(e.buf, f, v.seg, off-4, n+4); err != nil {
			return e.buf, err
		}
	}
	return e.buf, nil
}

// appendRead appends the n bytes at off of segment seg of f to dst.
func appendRead(dst []byte, f versionFile, seg uint64, off int64, n int) ([]byte, error) {
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	return dst[:end], f.readAt(dst[len(dst):end], seg, off)
}
