package storage

import (
	"cmp"
	"fmt"
	"slices"

	"obladi/internal/slab"
)

// This file holds the one version index every store keeps its bucket tree in
// (§8's shadow paging): per bucket a stack of versions, oldest first, each
// tagged with the epoch that wrote it; the committed frontier; the buckets
// holding more than one version, the only ones a commit has anything to retire
// from; and the slabs a MemBackend's versions live in. The stores differ only
// in where a version's bytes are: in a slab (MemBackend), or in its record on
// the group's log (LogHeap), whether this process wrote it or replayed it.
// Either way a read copies them out (readSlots), a LogHeap's out of the log
// (versionFile). The owning store's lock guards the index: reads run under
// its read lock, everything else under its write lock.

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
	// vecs carves readSlots' result vectors, which their callers keep.
	vecs slab.Slices[[]byte]
}

func newVersionIndex(numBuckets int, dataStart int64) versionIndex {
	return versionIndex{buckets: make([][]version, numBuckets), dataStart: dataStart}
}

// recLen is the framed length of v's record.
func (ix *versionIndex) recLen(v *version) int64 { return ix.dataStart + int64(v.layout.span(4)) }

// slotOff is the file offset of one slot's bytes in v's record.
func (ix *versionIndex) slotOff(v *version, slot int) int64 {
	return v.off + ix.dataStart + int64(v.layout.off(slot, 4))
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
// lists: a commit costs what the epochs since the last one wrote. A commit at
// or below the frontier changes nothing: a LogHeap logs no record for it, so
// a replay could not retire what it would.
func (ix *versionIndex) commit(epoch uint64) {
	if epoch <= ix.committed {
		return
	}
	ix.committed = epoch
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
	if slot < 0 || slot >= int(v.layout.n) {
		return nil, fmt.Errorf("%w: bucket %d slot %d (have %d)", ErrNoSuchSlot, bucket, slot, v.layout.n)
	}
	return v, nil
}

// versionFile is where a LogHeap's versions are read from: its log, whose
// read lock the caller holds for the whole read, so no segment a version lies
// in is unmapped under it. readAt fills dst with the bytes at off of the
// segment seg names.
type versionFile interface {
	readAt(dst []byte, seg uint64, off int64) error
}

// readSlots answers a vectored read with copies, once every ref is
// validated, so the vector fails as a whole before anything is copied: out of
// a MemBackend version's mirror, or out of f (a LogHeap's log). A copy goes
// into its ref's Into when that holds it, else into one exact-length buffer
// shared by every ref without a destination. The result vector is carved
// (ix.vecs).
func (ix *versionIndex) readSlots(refs []SlotRef, f versionFile) ([][]byte, error) {
	out := ix.vecs.Make(len(refs))
	spare := 0
	for i := range refs {
		r := &refs[i]
		v, err := ix.slot(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		if n := int(v.layout.size); r.into(n) == nil {
			spare += n
		}
	}
	buf := make([]byte, spare) // no allocation when every ref has one
	for i := range refs {
		r := &refs[i]
		vs := ix.buckets[r.Bucket] // validated above
		v := &vs[len(vs)-1]
		n := int(v.layout.size)
		if out[i] = r.into(n); out[i] == nil {
			out[i], buf = buf[:n:n], buf[n:]
		}
		if v.mirror != nil {
			copy(out[i], v.layout.slotIn(v.mirror, r.Slot, 0))
			continue
		}
		if err := f.readAt(out[i], v.seg, ix.slotOff(v, r.Slot)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBucket reads every slot of bucket's newest version (none for a bucket
// never written) into one buffer the caller keeps: only tests and tools read
// a whole bucket.
func (ix *versionIndex) readBucket(bucket int, f versionFile) ([][]byte, error) {
	v, err := ix.newest(bucket)
	if err != nil || v == nil {
		return nil, err
	}
	refs := make([]SlotRef, v.layout.n)
	for i := range refs {
		refs[i] = SlotRef{Bucket: bucket, Slot: i}
	}
	return ix.readSlots(refs, f)
}
