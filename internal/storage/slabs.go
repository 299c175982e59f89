package storage

import "fmt"

// This file holds how the stores lay out a bucket version's bytes: its slots
// back to back, addressed through the version's slotLayout, in one
// exact-length slab (slabs: a MemBackend's versions) or in its log record (a
// LogHeap's versions). Either way a read copies the slots out under the
// store's read lock (versionIndex.readSlots).

// slotLayout is how a version's slots lie back to back in a span, each behind
// prefix bytes (its u32 length on disk, nothing in memory): n slots of size
// bytes each. A version's slots all have one length, the ORAM's public frame
// length: WriteBuckets refuses a bucket whose slots differ (layoutOf), and
// replay a record that holds one (parseHeapBody).
type slotLayout struct {
	n, size uint32
}

// layoutOf is the layout of bucket's slots laid out in order, refused unless
// they have one length.
func layoutOf(bucket int, slots [][]byte) (slotLayout, error) {
	l := slotLayout{n: uint32(len(slots))}
	for i, s := range slots {
		if i == 0 {
			l.size = uint32(len(s))
		} else if len(s) != int(l.size) {
			return slotLayout{}, fmt.Errorf("storage: bucket %d slot %d is %d bytes, slot 0 %d: a version's slots have one length", bucket, i, len(s), l.size)
		}
	}
	return l, nil
}

// off is slot i's offset in a span laid out as l.
func (l slotLayout) off(i, prefix int) int { return i*(prefix+int(l.size)) + prefix }

// span is the length of the whole span.
func (l slotLayout) span(prefix int) int { return int(l.n) * (prefix + int(l.size)) }

// slotIn returns slot i of span as a capacity-clipped view.
func (l slotLayout) slotIn(span []byte, i, prefix int) []byte {
	off := l.off(i, prefix)
	return span[off : off+int(l.size) : off+int(l.size)]
}

// Version slabs are carved out of chunks that grow from slabChunkMin to
// slabChunkMax: a small store allocates little, and what a store loses is a
// chunk's unused end when the next slab does not fit (under one slab each)
// plus the last chunk's unused part. Measured on the benchmark's trees (slabs
// of 1.8 to 12 KiB), 256 KiB keeps the sum lowest: a 1 MiB cap left up to a
// megabyte unused per store. A slab larger than slabChunkMax is its own
// allocation.
const (
	slabChunkMin = 16 << 10
	slabChunkMax = 256 << 10
)

// slabs hands out the exact-length slabs a store keeps its versions' bytes in
// and takes back the slab of a version the store retired (superseded by a
// commit, discarded by a rollback, replaced by a same-epoch write), for the
// next write of that length. A store writes about as many bytes as it
// retires, so once warm it allocates nothing; the slabs are never given back,
// and the free list holds at most the bytes of the versions retired since the
// last write. Guarded by the owning store's write lock. A MemBackend also
// carves its log records from slabs it never takes back.
type slabs struct {
	chunk []byte
	next  int // size of the next chunk
	// max is the largest chunk, slabChunkMax when zero. The newest chunk is
	// held whole for as long as its unused end is, so slabs that take
	// nothing back and hand out slabs nobody keeps for long (log records)
	// keep theirs small.
	max  int
	free map[int][][]byte
}

// take returns a slab of exactly n bytes (len == cap), non-nil even when n is
// zero.
func (s *slabs) take(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	if f := s.free[n]; len(f) > 0 {
		b := f[len(f)-1]
		s.free[n] = f[:len(f)-1]
		return b
	}
	limit := s.max
	if limit == 0 {
		limit = slabChunkMax
	}
	if n > limit {
		return make([]byte, n)
	}
	if len(s.chunk) < n {
		s.next = min(max(2*s.next, slabChunkMin), limit)
		s.chunk = make([]byte, max(s.next, n))
	}
	b := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return b
}

// copySlots copies slots back to back into a slab of their total length.
func (s *slabs) copySlots(slots [][]byte, l slotLayout) []byte {
	b := s.take(l.span(0))
	off := 0
	for _, sl := range slots {
		off += copy(b[off:], sl)
	}
	return b
}

// put takes back the slab of a retired version. The caller holds the store's
// write lock, so no read is copying out of it.
func (s *slabs) put(b []byte) {
	if len(b) == 0 {
		return
	}
	if s.free == nil {
		s.free = make(map[int][][]byte)
	}
	s.free[len(b)] = append(s.free[len(b)], b)
}
