package ringoram

import (
	"errors"
	"fmt"
	"sync/atomic"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// ErrCorrupt indicates a slot that failed authentication or decoding.
var ErrCorrupt = errors.New("ringoram: corrupt slot")

// ORAM is a Ring ORAM client's byte plane: the blocks and bucket images its
// public machine (Machine) moves. It is the machine's meta.Plane, given to
// the machine once, when New or Restore makes both, and the machine calls it
// itself: its PlanWrite stores a written value here, its Complete delivers
// and places blocks. ORAM.Complete only adds what its caller — the
// sequential client in this package, or the executor in internal/oramexec —
// gets back: the access's value and the images placed with the
// local-version table off. The caller plans and completes on one goroutine
// at a time, in plan order. Only SealImage and Work may run beside it, on
// any goroutine: they read nothing the machine's calls change.
type ORAM struct {
	m   *meta.Machine
	p   Params // the machine's, immutable
	geo meta.Geometry
	cdc codec

	// Hot-path scratch: the Appendix A binding encoder, and the nonce and
	// additional data of the slot being opened.
	bindBuf []byte
	scratch cryptoutil.SlotScratch
	// seeds is the block the bucket versions' seeds are cut from (Seed): the
	// machine asks for them while it plans, on the driver's goroutine.
	seeds cryptoutil.Nonces
	// evicted holds the images Place builds while the local-version table is
	// off, until Complete hands them to the driver.
	evicted []BucketImage
	// slots holds each stash block's plaintext slot, indexed by the block's
	// handle: one slot of the codec's layout (see encodePlain), the one copy
	// of its value and tombstone flag, nil while the block is pending and
	// once an eviction has moved it into a bucket image.
	slots [][]byte
	// images holds each bucket version the local-version table keeps,
	// indexed by the version's handle (see local.go).
	images []BucketImage
	// blocks is the block plane's one allocator of block slots and image
	// buffers (see blocks.go): whoever holds a BucketImage returns both with
	// Recycle once nothing reads the image any more.
	blocks *blockPool
	// The block plane's work counts (Work): slots SealImage sealed (those
	// holding a block) and filled (all the others), slots opened under a
	// binding, and plaintext slots copied.
	sealedSlots, filledSlots, openedSlots, copiedSlots atomic.Int64
}

// New creates an ORAM client over a fresh tree and does no I/O: every bucket
// gets fresh metadata (see meta.New). The caller stores each bucket as
// SealFresh seals it before anything reads the tree. key may be nil only
// when p.DisableEncryption is set.
func New(key *cryptoutil.Key, p Params) (*ORAM, error) {
	o, err := newORAM(key, p)
	if err != nil {
		return nil, err
	}
	if o.m, err = meta.New(o.p, o); err != nil {
		return nil, err
	}
	return o, nil
}

// Restore reconstructs a client from a full checkpoint image followed by
// zero or more delta images, in log order (see meta.Restore): the stash the
// last image leaves gets a pooled slot per block. No storage writes are
// performed: the shadow-paged tree on the server is reverted separately via
// RollbackTo.
func Restore(key *cryptoutil.Key, p Params, full []byte, deltas ...[]byte) (*ORAM, error) {
	o, err := newORAM(key, p)
	if err != nil {
		return nil, err
	}
	if o.m, err = meta.Restore(o.p, o, full, deltas...); err != nil {
		return nil, err
	}
	return o, nil
}

// newORAM makes the block plane of a client, without its machine.
func newORAM(key *cryptoutil.Key, p Params) (*ORAM, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if key == nil && !p.DisableEncryption {
		return nil, errors.New("ringoram: nil key with encryption enabled")
	}
	if p.DisableEncryption {
		key = nil
	}
	geo := p.Geometry()
	o := &ORAM{
		p:       p,
		geo:     geo,
		cdc:     newCodec(p.KeySize, p.ValueSize, key),
		bindBuf: make([]byte, 0, cryptoutil.BindingSize),
	}
	o.blocks = &blockPool{size: o.cdc.plainSize(), z: p.Z}
	return o, nil
}

// binding encodes the Appendix A (id, epoch, batch=0) freshness triple into
// the ORAM's scratch buffer, for use before the next binding call.
func (o *ORAM) binding(id, epoch uint64) []byte {
	o.bindBuf = cryptoutil.AppendBinding(o.bindBuf[:0], id, epoch, 0)
	return o.bindBuf
}

// Machine returns the public machine whose bytes the ORAM holds.
func (o *ORAM) Machine() *meta.Machine { return o.m }

// SlotSize is the length of a slot frame on storage: every slot the ORAM
// writes and reads has it.
func (o *ORAM) SlotSize() int { return o.cdc.slotSize() }

// BlockSize is the length of a block's plaintext slot in memory, its key
// included: every block the stash and the bucket images hold has it.
func (o *ORAM) BlockSize() int { return o.cdc.plainSize() }

// BlockKey returns the key block, one of a bucket image's Blocks, holds: the
// key its slot frame is sealed for, which the frame does not carry. It is a
// view of block.
func (o *ORAM) BlockKey(block []byte) []byte { return o.cdc.keyOf(block) }

// Complete completes step p on the machine with the slots data holds. It
// returns the value an access returns — a view of its block's slot, valid
// until the block's next write or eviction, which a caller that keeps it
// copies — and images with the images of the bucket versions the completion
// placed while the local-version table is off appended: they are the
// caller's, to seal (SealImage) until a later rewrite supersedes them, and to
// Recycle.
func (o *ORAM) Complete(p *meta.Plan, data [][]byte, images []BucketImage) ([]byte, bool, []BucketImage, error) {
	b, err := o.m.Complete(p, data)
	if err != nil {
		return nil, false, images, err
	}
	images = append(images, o.evicted...)
	clear(o.evicted)
	o.evicted = o.evicted[:0]
	if b == 0 {
		return nil, false, images, nil
	}
	v, tombstone, err := o.Value(b, o.m.Key(b))
	return v, err == nil && !tombstone, images, err
}

// slot returns the place of block b's slot, growing the table to it.
func (o *ORAM) slot(b meta.Block) *[]byte { return grow(&o.slots, int(b)) }

// grow returns the place of (*s)[i], growing *s with zero values to it.
func grow[T any](s *[]T, i int) *T {
	for i >= len(*s) {
		*s = append(*s, *new(T))
	}
	return &(*s)[i]
}

// stashBlock decodes the block a delivered stash entry's slot holds.
func (o *ORAM) stashBlock(b meta.Block) (block, error) {
	_, blk, err := o.cdc.parse(*o.slot(b))
	if err != nil {
		return block{}, fmt.Errorf("%w: stash entry %q: %v", ErrCorrupt, o.m.Key(b), err)
	}
	return blk, nil
}

// Seed draws the seed of a bucket version the machine writes from the
// system's secure generator (see meta.Plane).
func (o *ORAM) Seed(int, uint64) meta.Seed { return meta.Seed(o.seeds.Seed()) }

// Deliver moves the block read r fetched into a pooled slot, the block's. A
// local read is served from the image r names, which must hold key, and
// copied into the slot. A remote read's data is opened straight into it, as
// the slot of key's block, under the seed and the (bucket, version) binding
// of the version it was planned against: a frame sealed for another key fails
// authentication. A slot frame of another scheme fails with
// cryptoutil.ErrScheme, not ErrCorrupt: it was written by another build.
func (o *ORAM) Deliver(r meta.SlotRead, data []byte, key string) error {
	slot := o.blocks.take()
	var plain []byte
	var err error
	if r.Local() {
		plain = o.image(r.Image()).Block(r.Slot)
	} else {
		plain, err = slot, o.cdc.open(slot, data, r.Seed, r.Slot, o.binding(uint64(r.Bucket), r.Ver), key, &o.scratch)
		o.openedSlots.Add(1)
		if errors.Is(err, cryptoutil.ErrScheme) {
			o.blocks.put(slot)
			return fmt.Errorf("ringoram: bucket %d slot %d: %w", r.Bucket, r.Slot, err)
		}
	}
	var kind byte
	var blk block
	if err == nil {
		kind, blk, err = o.cdc.parse(plain)
	}
	switch {
	case err == nil && kind != slotReal && kind != slotTombstone:
		err = fmt.Errorf("slot kind %d", kind)
	case err == nil && r.Local() && string(blk.keyB) != key: // open wrote a remote read's key
		err = fmt.Errorf("holds key %q, want %q", blk.keyB, key)
	}
	if err != nil {
		o.blocks.put(slot)
		return fmt.Errorf("%w: bucket %d slot %d: %w", ErrCorrupt, r.Bucket, r.Slot, err)
	}
	if r.Local() {
		copy(slot, plain)
		o.copiedSlots.Add(1)
	}
	*o.slot(r.Block()) = slot
	return nil
}

// Place builds the image of the bucket version w writes in a pooled buffer,
// moving each placed block's slot into it, and files it under w's handle, or
// keeps it for Complete to hand out when w has none.
func (o *ORAM) Place(w *meta.BucketWrite) {
	im := o.newImage(w.Bucket, w.Ver, w.Seed)
	copy(im.real, w.Perm) // the placed blocks are at real positions 0..len(Placed)-1
	for _, b := range w.Placed {
		slot := o.slot(b)
		im.Blocks = append(im.Blocks, *slot)
		*slot = nil
	}
	if w.Image == 0 {
		o.evicted = append(o.evicted, im)
		return
	}
	*o.image(w.Image) = im
}

// Release recycles the image filed under h.
func (o *ORAM) Release(h meta.Image) { o.image(h).Recycle() }

// Value returns the value and the tombstone flag delivered block b holds: a
// view of its slot, valid until the block's next write or eviction.
func (o *ORAM) Value(b meta.Block, _ string) ([]byte, bool, error) {
	blk, err := o.stashBlock(b)
	return blk.value, blk.tombstone, err
}

// Put encodes block b, key's, into its pooled slot, taking one if b has none
// yet: a written block (the machine's PlanWrite refuses a key over KeySize
// or a value over ValueSize before anything is planned) or a stash entry a
// Restore leaves.
func (o *ORAM) Put(b meta.Block, key string, value []byte, tombstone bool) error {
	slot := o.slot(b)
	if *slot == nil {
		*slot = o.blocks.take()
	}
	return o.cdc.encodePlain(*slot, kindOf(tombstone), block{key: key, value: value})
}
