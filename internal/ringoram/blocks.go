package ringoram

import (
	"fmt"
	"sync"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// The block plane. A block's plaintext has one representation from the
// moment it reaches the proxy until it is sealed: one slot of the codec's
// layout (see encodePlain), taken from the ORAM's blockPool. A write encodes
// into its stash entry's slot, a read's completion opens or copies into one,
// an eviction moves its placed entries' slots into the bucket image, and the
// seal copies each into its frame. The images an eviction leaves are the
// local-version table's (see local.go) until the machine releases them.

// blockPool is the one allocator of block plaintext and of the image buffers
// that hold it: slots of one plaintext slot each, carved from large chunks,
// and image buffers, each recycled through a free list. It never shrinks;
// the slots and buffers in use (the stash and the images the table holds)
// are a function of the public schedule. They are taken on the driver's
// goroutine but returned by whoever holds them last — an image's holder, on
// any goroutine — so the pool has a lock of its own. (A sync.Pool would
// drop its buffers at every GC cycle, and a smaller heap cycles more often.)
// In race builds a returned slot is poisoned, so a read through a stale
// reference fails to decode or authenticate instead of passing with the
// bytes it held.
type blockPool struct {
	mu     sync.Mutex
	size   int // plainSize
	chunk  []byte
	free   [][]byte
	carved int // slots handed out of chunks so far
	// images is the free list of image buffers; a new one holds room for z
	// blocks and their physical slots.
	images []*imageBuf
	z      int
}

// blockChunk is the size of the pool's carve chunks (at least one slot).
const blockChunk = 64 << 10

// take returns a slot of the pool's size. Its bytes are whatever the slot
// last held: the caller overwrites all of it.
func (p *blockPool) take() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	if len(p.chunk) < p.size {
		p.chunk = make([]byte, max(blockChunk, p.size))
	}
	s := p.chunk[:p.size:p.size]
	p.chunk = p.chunk[p.size:]
	p.carved++
	return s
}

// put returns slots to the pool; nothing may read them afterwards.
func (p *blockPool) put(slots ...[]byte) {
	for _, s := range slots {
		poison(s)
	}
	p.mu.Lock()
	p.free = append(p.free, slots...)
	p.mu.Unlock()
}

// image returns an image buffer holding no block.
func (p *blockPool) image() *imageBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.images); n > 0 {
		ib := p.images[n-1]
		p.images = p.images[:n-1]
		return ib
	}
	return &imageBuf{real: make([]uint16, p.z), blocks: make([][]byte, 0, p.z), pool: p}
}

// recycle returns an image buffer and the blocks it held to the pool.
func (p *blockPool) recycle(ib *imageBuf, blocks [][]byte) {
	for _, s := range blocks {
		poison(s)
	}
	p.mu.Lock()
	p.free = append(p.free, blocks...)
	clear(blocks)
	ib.blocks = blocks[:0]
	p.images = append(p.images, ib)
	p.mu.Unlock()
}

// BucketImage is one bucket version in plaintext, as an eviction leaves it:
// its version, its blocks and their physical slots. It is kept until the version
// reaches storage, and SealImage seals it then: a version that a later
// rewrite supersedes first is never sealed at all. The image's memory is the
// ORAM's pooled buffer: the local-version table's while the table is on
// (see local.go), the caller's until it calls Recycle otherwise.
type BucketImage struct {
	Bucket int
	Ver    uint64
	// Seed is the version's seed, which its slots' nonces derive from.
	Seed meta.Seed
	// Blocks holds the plaintext slots of the blocks this version placed, the
	// block of real position i at Blocks[i] (the placed blocks fill positions
	// 0..len(Blocks)-1); Real()[i] is its physical slot. They are the slots
	// the placed stash entries held, moved, not copied. A resident bucket's
	// version loaded from storage (LoadLocal) holds the blocks still placed,
	// and is never sealed.
	Blocks [][]byte

	real []uint16 // real[i] is the physical slot of Blocks[i]
	buf  *imageBuf
	// resident is set for a bucket the local-version table keeps resident:
	// storage holds it as its Z real positions alone.
	resident bool
}

// imageBuf is a pooled buffer for one bucket image: the memory of its
// blocks' physical slots and of their headers, which belong to the
// blockPool, as the buffer does.
type imageBuf struct {
	real   []uint16
	blocks [][]byte
	pool   *blockPool
}

// newImage is version ver of bucket b, sealed under seed, in a pooled
// buffer, holding no block yet.
func (o *ORAM) newImage(b int, ver uint64, seed meta.Seed) BucketImage {
	ib := o.blocks.image()
	return BucketImage{Bucket: b, Ver: ver, Seed: seed, Blocks: ib.blocks, real: ib.real, buf: ib, resident: b < o.m.Resident()}
}

// Real returns the physical slots of the image's blocks: the block at
// physical slot Real()[i] is Blocks[i]. It is the image's own memory.
func (im *BucketImage) Real() []uint16 { return im.real[:len(im.Blocks)] }

// Block returns the plaintext slot the image holds at physical slot s, or nil
// when s holds no block (a dummy or an empty real position).
func (im *BucketImage) Block(s int) []byte {
	for i, b := range im.Blocks {
		if int(im.real[i]) == s {
			return b
		}
	}
	return nil
}

// Recycle returns the image's buffer and its blocks to the ORAM's pools, for
// the next eviction to reuse. Call it once nothing reads the image any more:
// a later rewrite superseded it, or its epoch's flush sealed it and no local
// read is still served from it. Safe to call more than once; the image must
// not be used afterwards, and in race builds its blocks are poisoned so a
// read of one fails to decode instead of passing with stale bytes.
func (im *BucketImage) Recycle() {
	if b := im.buf; b != nil {
		b.pool.recycle(b, im.Blocks)
		im.buf, im.Blocks, im.real = nil, nil, nil
	}
}

// SealFresh seals bucket b of the fresh tree New drew into a, as SealImage
// does: its first version, holding no block.
func (o *ORAM) SealFresh(b int, a *SealArena) ([][]byte, error) {
	if !o.m.Fresh(b) {
		return nil, fmt.Errorf("ringoram: bucket %d is no longer fresh", b)
	}
	return o.SealImage(BucketImage{Bucket: b, Ver: 1, Seed: o.m.Seed(b), resident: b < o.m.Resident()}, a)
}

// Work returns the block plane's work counts since the client was made:
// slots SealImage sealed (the slots holding a block, each a GCM seal when
// encryption is on) and filled (every other slot it wrote), SealFresh's
// included; slots opened under a (bucket, version) binding (remote reads
// delivered to the stash, and LoadLocal's); and plaintext slots copied
// (local reads delivered to the stash from the local-version table).
func (o *ORAM) Work() (sealed, filled, opened, copied int64) {
	return o.sealedSlots.Load(), o.filledSlots.Load(), o.openedSlots.Load(), o.copiedSlots.Load()
}

// SealArena is memory a caller lends to SealImage and SealFresh: byte chunks
// the seals carve slot frames from, front to back, the slot headers they hand
// back, the Filler that writes the frames holding no block, and the scratch
// the binding, each slot's nonce and its additional data are derived into.
// It grows to the largest set of buckets sealed between two Resets, a chunk
// at a time, and is reused after that. An arena belongs to one sealing
// goroutine at a time. The zero value is ready.
type SealArena struct {
	chunks  [][]byte // chunks[:used] hold frames, the last of them is carved next
	used    int
	slots   [][]byte
	bind    []byte
	scratch cryptoutil.SlotScratch
	filler  *cryptoutil.Filler // made by the first seal with encryption on
}

// sealChunk is the size of a seal arena's chunks: a few buckets' slots, so an
// arena outgrows what it holds by less than one chunk.
const sealChunk = 64 << 10

// Reset hands the arena's memory to the next seals. Every slot sealed into it
// before must be unused by then (a store copies what it keeps); in race
// builds the memory is poisoned, so a slot still read fails authentication
// instead of passing with the bytes it held.
func (a *SealArena) Reset() {
	for i, c := range a.chunks[:a.used] {
		poison(c)
		a.chunks[i] = c[:0]
	}
	a.used, a.slots = 0, a.slots[:0]
}

// take carves n frames of size bytes from the current chunk, moving on to
// the next one (and making it, the first time) when the current one is short.
// It returns the frames as one run of n*size bytes and as n slots.
func (a *SealArena) take(n, size int) ([]byte, [][]byte) {
	need := n * size
	if a.used == 0 || cap(a.chunks[a.used-1])-len(a.chunks[a.used-1]) < need {
		if a.used == len(a.chunks) {
			a.chunks = append(a.chunks, nil)
		}
		if cap(a.chunks[a.used]) < need {
			a.chunks[a.used] = make([]byte, 0, max(sealChunk, need))
		}
		a.used++
	}
	c := a.chunks[a.used-1]
	begin, start := len(c), len(a.slots)
	for i := 0; i < n; i++ {
		off := len(c)
		c = c[:off+size]
		a.slots = append(a.slots, c[off:off+size:off+size])
	}
	a.chunks[a.used-1] = c
	return c[begin:len(c):len(c)], a.slots[start:len(a.slots):len(a.slots)]
}

// SealImage seals im into a as the bucket version storage keeps: its Z+S
// slots indexed by physical slot, or, for a bucket the local-version table
// keeps resident, its Z real positions in position order and no dummies. Only the
// positions holding a block are sealed, each under the nonce the version's
// seed and the block's physical slot derive (a resident bucket's position r
// is sealed as its physical slot Real()[r], though storage holds it at r) and
// under the version's (bucket, version) binding and the block's key, which
// the frame does not carry; every other slot is a filler frame (see
// cryptoutil.Filler), which storage cannot tell from a sealed one and the
// proxy never opens. It is the one place a bucket is sealed. It reads only
// the image and the ORAM's fixed configuration, nothing the machine's calls
// change, so a committer may seal one epoch's images while the next epoch
// plans and completes.
func (o *ORAM) SealImage(im BucketImage, a *SealArena) ([][]byte, error) {
	n := o.geo.SlotsPer
	if im.resident {
		n = o.p.Z
	}
	if a.filler == nil && o.cdc.key != nil {
		f, err := cryptoutil.NewFiller()
		if err != nil {
			return nil, err
		}
		a.filler = f
	}
	run, slots := a.take(n, o.cdc.slotSize())
	o.cdc.fill(run, a.filler)
	a.bind = cryptoutil.AppendBinding(a.bind[:0], uint64(im.Bucket), im.Ver, 0)
	for pos, b := range im.Blocks {
		frame := slots[pos]
		if !im.resident {
			frame = slots[im.real[pos]]
		}
		if err := o.cdc.seal(frame, b, im.Seed, int(im.real[pos]), a.bind, &a.scratch); err != nil {
			return nil, err
		}
	}
	o.sealedSlots.Add(int64(len(im.Blocks)))
	o.filledSlots.Add(int64(n - len(im.Blocks)))
	return slots, nil
}
