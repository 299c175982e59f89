package ringoram

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/slab"
)

// ErrCorrupt indicates a slot that failed authentication or decoding.
var ErrCorrupt = errors.New("ringoram: corrupt slot")

// ORAM is a Ring ORAM client: the public machine and the blocks it moves.
// Methods are safe for concurrent use, but the plan/complete protocol
// requires completions to be applied in plan order (the executor in
// internal/oramexec enforces this).
type ORAM struct {
	// mu guards the machine and everything below it but the counters: a plan
	// and its completion are one critical section each.
	mu  sync.Mutex
	m   *meta.Machine
	p   Params // the machine's, immutable
	geo meta.Geometry
	cdc codec

	// Hot-path scratch: the Appendix A binding encoder.
	bindBuf []byte
	// vals carves the values Complete returns: they escape to the caller, so
	// they are copied once into chunks that are never reused.
	vals slab.Bytes
	// evicted backs the []BucketImage Complete returns, and sealed and
	// flushing the ones SealLocal and FlushLocal return.
	evicted, sealed, flushing []BucketImage
	// slots holds each stash block's plaintext slot, indexed by the block's
	// handle: one slot of the codec's layout (see encodePlain), the one copy
	// of its value and tombstone flag, nil while the block is pending and
	// once an eviction has moved it into a bucket image.
	slots [][]byte
	// images holds each bucket version the local-version table keeps,
	// indexed by the version's handle (see local.go), and resident is how
	// many buckets, from the root, the table keeps for good: set once, when
	// the table is turned on, and read by SealImage without the lock.
	images   []BucketImage
	resident int
	// imagePool recycles image buffers, and blocks is the block plane's one
	// allocator (see blocks.go): whoever holds a BucketImage returns both
	// with Recycle once nothing reads the image any more.
	imagePool *sync.Pool
	blocks    *blockPool
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
	if o.m, err = meta.New(o.p); err != nil {
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
	if o.m, err = meta.Restore(o.p, (*plane)(o), full, deltas...); err != nil {
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
		cdc:     codec{keySize: p.KeySize, valueSize: p.ValueSize, key: key},
		bindBuf: make([]byte, 0, cryptoutil.BindingSize),
	}
	o.blocks = &blockPool{size: o.cdc.plainSize()}
	pool := &sync.Pool{}
	pool.New = func() any {
		return &imageBuf{perm: make([]int, geo.SlotsPer), blocks: make([][]byte, 0, p.Z), pool: pool, free: o.blocks}
	}
	o.imagePool = pool
	return o, nil
}

// binding encodes the Appendix A (id, epoch, batch=0) freshness triple into
// the ORAM's scratch buffer; caller holds mu and must use it before the next
// binding call.
func (o *ORAM) binding(id, epoch uint64) []byte {
	o.bindBuf = cryptoutil.AppendBinding(o.bindBuf[:0], id, epoch, 0)
	return o.bindBuf
}

// Params returns the validated configuration.
func (o *ORAM) Params() Params { return o.p }

// Geometry returns the derived tree shape.
func (o *ORAM) Geometry() meta.Geometry { return o.geo }

// SlotSize returns the physical slot size in bytes.
func (o *ORAM) SlotSize() int { return o.cdc.slotSize() }

// Counters returns (accessCount, evictCount).
func (o *ORAM) Counters() (uint64, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.Counters()
}

// StashSize returns the current number of stash entries.
func (o *ORAM) StashSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.StashSize()
}

// StashPeak returns the high-water mark of the stash.
func (o *ORAM) StashPeak() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.StashPeak()
}

// KeyCount returns the number of allocated logical keys.
func (o *ORAM) KeyCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.KeyCount()
}

// PathBuckets returns the buckets on the path from the root to leaf, root
// first: the buckets a logged access to leaf names slots of.
func (o *ORAM) PathBuckets(leaf int) []int {
	if leaf < 0 || leaf >= o.geo.Leaves {
		return nil
	}
	return o.geo.Path(leaf)
}

// PlanRead plans a logical read of key, or a padding read when key is "",
// and every step it makes due (see meta.Machine.PlanRead).
func (o *ORAM) PlanRead(key string, dst []*meta.Plan) ([]*meta.Plan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.PlanRead(key, dst)
}

// PlanWrite applies a logical write (or delete, when tombstone is set) as a
// dummiless write (§6.3): the block, encoded into a pooled slot, goes
// directly to the stash, so the step reads nothing. key "" is a padding bump,
// which only counts the access. Either way it appends the write step to dst,
// then every evict-path it makes due (see meta.Machine.PlanWrite).
func (o *ORAM) PlanWrite(key string, value []byte, tombstone bool, dst []*meta.Plan) ([]*meta.Plan, error) {
	if len(value) > o.p.ValueSize {
		return dst, fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(value), o.p.ValueSize)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	dst, b, err := o.m.PlanWrite(key, dst)
	if b != 0 {
		slot := o.slot(b)
		if *slot == nil {
			*slot = o.blocks.take()
		}
		if encErr := o.cdc.encodePlain(*slot, kindOf(tombstone), block{key: key, value: value}); err == nil {
			err = encErr
		}
	}
	return dst, err
}

// Replay plans a logged batch's entries during crash recovery, refusing any
// the schedule does not owe (see meta.Machine.Replay).
func (o *ORAM) Replay(entries []meta.LogEntry, dst []*meta.Plan) ([]*meta.Plan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.Replay(entries, dst)
}

// BatchLog returns the log view of a batch's steps, in plan order.
func (o *ORAM) BatchLog(steps []*meta.Plan) meta.BatchLog { return o.m.BatchLog(steps) }

// EncodeCheckpoint writes a full or delta image of the current metadata, the
// stash's values included, with head and tail bytes reserved around it (see
// meta.Machine.EncodeCheckpoint).
func (o *ORAM) EncodeCheckpoint(full bool, pad meta.CheckpointPad, head, tail int) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m.EncodeCheckpoint(full, pad, head, tail, (*plane)(o))
}

// ClearDirty resets delta tracking; call once a checkpoint image has been
// taken (the image owns those changes from then on).
func (o *ORAM) ClearDirty() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.m.ClearDirty()
}

// Complete applies a step's fetched slots, in plan order (see
// meta.Machine.Complete): it delivers every read that carries a pending
// block, then returns the access's value, or the images of the bucket
// versions an eviction writes. A write step completes with nothing. data must
// be parallel to p.Reads: a sealed slot from storage, nil for a Local read,
// which the local-version table serves. Only the slots that carry a block are
// ever inspected: a filler's entry may be nil, which is what lets a caller
// that knows where a bucket's blocks sit skip fetching the rest.
//
// The value is the caller's to keep: a capacity-clipped copy carved by a
// slab.Bytes. With the local-version table on, an eviction files its images
// there and returns none; otherwise the caller keeps them until it seals them
// (SealImage) or a later rewrite supersedes them. The returned slice is the
// ORAM's scratch, valid until the next Complete: keep the images by value.
func (o *ORAM) Complete(p *meta.Plan, data [][]byte) (value []byte, found bool, images []BucketImage, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	clear(o.evicted)
	o.evicted = o.evicted[:0]
	b, err := o.m.Complete(p, data, (*plane)(o))
	if err != nil {
		return nil, false, nil, err
	}
	if b == 0 {
		return nil, false, o.evicted, nil
	}
	blk, err := o.stashBlock(b)
	if err != nil || blk.tombstone {
		return nil, false, nil, err
	}
	return o.vals.Copy(blk.value), true, nil, nil
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

// plane is the ORAM as its machine's meta.Plane: the stash blocks' slots,
// indexed by block, and the kept bucket versions' images, indexed by handle.
type plane ORAM

// Deliver moves the block read r fetched into a pooled slot, the block's. A
// local read is served from the image r names and copied into the slot; a
// remote read's data is opened straight into it under the (bucket, version)
// binding it was planned against. Either must hold key.
func (v *plane) Deliver(r meta.SlotRead, data []byte, key string) error {
	o := (*ORAM)(v)
	slot := o.blocks.take()
	var plain []byte
	var err error
	if r.Local() {
		plain = o.image(r.Image()).Block(r.Slot)
	} else {
		plain, err = slot, o.cdc.open(slot, data, o.binding(uint64(r.Bucket), r.Ver))
		o.openedSlots.Add(1)
	}
	var kind byte
	var blk block
	if err == nil {
		kind, blk, err = o.cdc.parse(plain)
	}
	switch {
	case err == nil && kind != slotReal && kind != slotTombstone:
		err = fmt.Errorf("slot kind %d", kind)
	case err == nil && string(blk.keyB) != key:
		err = fmt.Errorf("holds key %q, want %q", blk.keyB, key)
	}
	if err != nil {
		o.blocks.put(slot)
		return fmt.Errorf("%w: bucket %d slot %d: %v", ErrCorrupt, r.Bucket, r.Slot, err)
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
// hands it to Complete's caller when w has none.
func (v *plane) Place(w *meta.BucketWrite) {
	o := (*ORAM)(v)
	im := o.newImage(w.Bucket, w.Ver)
	copy(im.perm, w.Perm)
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
func (v *plane) Release(h meta.Image) { (*ORAM)(v).image(h).Recycle() }

func (v *plane) Value(b meta.Block, _ string) ([]byte, bool, error) {
	blk, err := (*ORAM)(v).stashBlock(b)
	return blk.value, blk.tombstone, err
}

func (v *plane) Restore(b meta.Block, key string, value []byte, tombstone bool) error {
	o := (*ORAM)(v)
	slot := o.slot(b)
	*slot = o.blocks.take()
	return o.cdc.encodePlain(*slot, kindOf(tombstone), block{key: key, value: value})
}
