package storage

import (
	"fmt"
	"sort"
)

// This file holds the one version index every store keeps its bucket tree in
// (§8's shadow paging): per bucket a stack of versions, oldest first, each
// tagged with the epoch that wrote it; the committed frontier; the buckets
// holding more than one version, the only ones a commit has anything to retire
// from; and the slabs the versions' mirrors live in. The stores differ only in
// what else a version has: nothing (MemBackend), or a record on the group's
// log (LogHeap). A version written in this process mirrors its slots in a
// slab; one replayed from the log has no mirror and is read back from its
// record. The owning store's lock guards the index:
// reads run under its read lock, everything else under its write lock.

// version is one shadow-paged copy of a bucket.
type version struct {
	epoch  uint64
	layout slotLayout
	// mirror holds the slots back to back in one of the index's slabs; nil
	// for a version replayed from the log.
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

// write installs v with a mirror of slots, copied into a slab.
func (ix *versionIndex) write(bucket int, v version, slots [][]byte) error {
	if err := ix.checkWrite(bucket, v.epoch); err != nil {
		return err
	}
	v.mirror = ix.slabs.copySlots(slots, v.layout)
	ix.push(bucket, v)
	return nil
}

// install installs v as it is: a version replayed from a file.
func (ix *versionIndex) install(bucket int, v version) error {
	if err := ix.checkWrite(bucket, v.epoch); err != nil {
		return err
	}
	ix.push(bucket, v)
	return nil
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

// retire hands v's slab back. The caller guarantees nothing reads it any
// more.
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

// versionFile is the file a durable store's mirror-less versions are read
// back from: preadVersion returns n bytes at off of the file seg names.
type versionFile interface {
	preadVersion(seg uint64, off int64, n int) ([]byte, error)
}

// readSlots answers a vectored read: every ref is validated before any I/O,
// so the vector fails as a whole; mirrored slots are served from memory and
// the rest go to preadSlots over f (nil for a store without files).
func (ix *versionIndex) readSlots(refs []SlotRef, f versionFile) ([][]byte, error) {
	var reads []slotRead // only versions without a mirror need any
	out := make([][]byte, len(refs))
	for i, r := range refs {
		v, err := ix.slot(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		if v.mirror != nil {
			out[i] = v.layout.slotIn(v.mirror, r.Slot, 0)
			continue
		}
		if reads == nil {
			reads = make([]slotRead, 0, len(refs)-i)
		}
		off, n := ix.slotRange(v, r.Slot)
		reads = append(reads, slotRead{res: i, seg: v.seg, off: off, n: n})
	}
	if err := preadSlots(f, reads, out); err != nil {
		return nil, err
	}
	return out, nil
}

// readBucket returns every slot of bucket's newest version (none for a bucket
// never written).
func (ix *versionIndex) readBucket(bucket int, f versionFile) ([][]byte, error) {
	v, err := ix.newest(bucket)
	if err != nil || v == nil {
		return nil, err
	}
	if v.mirror != nil {
		return v.layout.split(v.mirror, 0), nil
	}
	buf, err := f.preadVersion(v.seg, v.off+ix.dataStart, v.layout.span(4))
	if err != nil {
		return nil, err
	}
	return v.layout.split(buf, 4), nil
}

// encodeSlots is readSlots appended to dst as a count-prefixed field vector
// (readEncoder): mirrored slots are copied straight into the reply.
func (ix *versionIndex) encodeSlots(dst []byte, refs []SlotRef, f versionFile) ([]byte, error) {
	e := encoder{buf: dst}
	e.u32(uint32(len(refs)))
	for _, r := range refs {
		v, err := ix.slot(r.Bucket, r.Slot)
		if err != nil {
			return e.buf, err
		}
		if v.mirror == nil {
			data, err := ix.readSlots(refs, f)
			if err != nil {
				return dst, err
			}
			return appendFields(dst, data), nil
		}
		e.bytes(v.layout.slotIn(v.mirror, r.Slot, 0))
	}
	return e.buf, nil
}

// encodeBucket is readBucket appended to dst the same way.
func (ix *versionIndex) encodeBucket(dst []byte, bucket int, f versionFile) ([]byte, error) {
	v, err := ix.newest(bucket)
	if err != nil {
		return dst, err
	}
	if v == nil || v.mirror == nil {
		slots, err := ix.readBucket(bucket, f)
		if err != nil {
			return dst, err
		}
		return appendFields(dst, slots), nil
	}
	e := encoder{buf: dst}
	e.u32(uint32(v.layout.n))
	for i := 0; i < v.layout.n; i++ {
		e.bytes(v.layout.slotIn(v.mirror, i, 0))
	}
	return e.buf, nil
}

// slotRead is one slot preadSlots fetches: where it lies, and which result it
// answers.
type slotRead struct {
	res int
	seg uint64
	off int64
	n   int
}

// preadSlots serves reads out of f into out, sorted by file position: ranges
// of one file within readCoalesceGap of each other share one pread, so a
// stage's reads cost a handful of syscalls.
func preadSlots(f versionFile, reads []slotRead, out [][]byte) error {
	if len(reads) > 1 {
		sort.Slice(reads, func(i, j int) bool {
			if reads[i].seg != reads[j].seg {
				return reads[i].seg < reads[j].seg
			}
			return reads[i].off < reads[j].off
		})
	}
	for start := 0; start < len(reads); {
		end := start
		runEnd := reads[start].off + int64(reads[start].n)
		for end+1 < len(reads) && reads[end+1].seg == reads[start].seg &&
			reads[end+1].off <= runEnd+readCoalesceGap {
			end++
			runEnd = max(runEnd, reads[end].off+int64(reads[end].n))
		}
		base := reads[start].off
		buf, err := f.preadVersion(reads[start].seg, base, int(runEnd-base))
		if err != nil {
			return err
		}
		for i := start; i <= end; i++ {
			lo := reads[i].off - base
			out[reads[i].res] = buf[lo : lo+int64(reads[i].n)]
		}
		start = end + 1
	}
	return nil
}
