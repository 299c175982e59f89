// Package slab hands out objects whose lifetime an epoch bounds, many to an
// allocation. Which of the two types fits is decided by one rule: does a
// pointer to the object escape to a client?
//
// If it does (a transaction or future handle), the object comes from a
// Chunked: chunks are allocated one at a time and never reused, so a handle
// kept past its epoch can never alias a later object — the garbage collector
// frees a chunk when the last handle into it goes.
//
// If it does not (version chains, fetch queues, write-back buffers), the
// object comes from a Reused: Reset zeroes what was handed out and hands the
// same memory out again.
//
// A value's bytes that escape (a read result, a write value an engine keeps)
// follow the first rule: they are copied into a Bytes, which carves them out
// of chunks it never reuses.
//
// No type here is safe for concurrent use; the owner's lock guards it.
package slab

const (
	minChunk = 16
	maxChunk = 4096
)

// Carving bounds. A chunk is opened at max(carvePer values the size of the one
// that opens it, carveMinChunk bytes), and a value is carved only from a chunk
// at most that large for it, so a value someone keeps pins at most
// max(carvePer × its own size, carveMinChunk). Values longer than carveMax get
// an allocation of their own.
const (
	carvePer      = 16
	carveMinChunk = 4 << 10
	carveMax      = 4 << 10
)

// Bytes copies values into carved, capacity-clipped slices: an append to one
// reallocates instead of reaching its neighbour. Chunks are abandoned, never
// reused, so a value stays valid for as long as anyone holds it.
type Bytes struct {
	free  []byte // unused tail of the newest chunk
	chunk int    // the newest chunk's length
}

// Copy returns a copy of v that the caller owns; nil when v is empty.
func (b *Bytes) Copy(v []byte) []byte {
	n := len(v)
	if n == 0 {
		return nil
	}
	if n > carveMax {
		return append(make([]byte, 0, n), v...)
	}
	limit := max(carvePer*n, carveMinChunk)
	if n > len(b.free) || b.chunk > limit {
		b.free, b.chunk = make([]byte, limit), limit
	}
	p := b.free[:n:n]
	b.free = b.free[n:]
	copy(p, v)
	return p
}

func clampChunk(n int) int {
	return min(max(n, minChunk), maxChunk)
}

// Chunked allocates chunks and abandons them to the garbage collector.
type Chunked[T any] struct {
	free []T // unused tail of the newest chunk
	n    int // handed out since the last EndEpoch
	size int // the next chunk's length
}

// New returns a zero T.
func (c *Chunked[T]) New() *T {
	if len(c.free) == 0 {
		c.free = make([]T, clampChunk(c.size))
	}
	p := &c.free[0]
	c.free = c.free[1:]
	c.n++
	return p
}

// EndEpoch sizes the chunks to come after the epoch that just ended: about
// one allocation an epoch, however many objects an epoch needs.
func (c *Chunked[T]) EndEpoch() {
	c.size, c.n = c.n, 0
}

// Reused allocates chunks and keeps them.
type Reused[T any] struct {
	chunks [][]T
	ci, i  int // next free: chunks[ci][i]
}

// New returns a zero T, valid until Reset.
func (r *Reused[T]) New() *T {
	if r.ci < len(r.chunks) && r.i == len(r.chunks[r.ci]) {
		r.ci, r.i = r.ci+1, 0
	}
	if r.ci == len(r.chunks) {
		// Double the slab: a steady epoch allocates nothing.
		r.chunks = append(r.chunks, make([]T, clampChunk(r.Len())))
	}
	p := &r.chunks[r.ci][r.i]
	r.i++
	return p
}

// Len reports how many objects are handed out.
func (r *Reused[T]) Len() int {
	n := r.i
	for _, c := range r.chunks[:r.ci] {
		n += len(c)
	}
	return n
}

// Reset takes every object back, zeroing it so nothing it pointed at stays
// reachable.
func (r *Reused[T]) Reset() {
	for k := 0; k <= r.ci && k < len(r.chunks); k++ {
		c := r.chunks[k]
		if k == r.ci {
			c = c[:r.i]
		}
		clear(c)
	}
	r.ci, r.i = 0, 0
}
