package ringoram

import (
	"fmt"
	"sync/atomic"

	"obladi/internal/ringoram/meta"
)

// The local-version table's images. The machine decides which bucket
// versions the proxy keeps and which reads are local (meta/local.go); this
// table holds those versions' plaintext, each the BucketImage the eviction
// left, and completion serves a local read by the one lookup (bucket, slot,
// planned version) → plaintext slot.
//
// An image goes back to the pool only once it is neither a bucket's version
// nor in the sealed set. A resident bucket's newest version can be both: the
// epoch that wrote it last sealed it, and the next rewrite supersedes it as
// the newest while the sealed set still holds it.

// localImages is the ORAM's local bucket versions, guarded by its lock. The
// zero value is off: evictions hand their images to the caller.
type localImages struct {
	resident int         // buckets 0..resident-1 keep their newest version, sealed as Z real positions
	bufs     []localBufs // indexed by bucket; nil while the table is off
	// sealed is the sealed epoch's versions in bucket order, what its flush
	// seals, and flushing is FlushLocal's list.
	sealed, flushing []BucketImage
	plain            int64        // bytes of a plaintext slot
	residentBytes    atomic.Int64 // the blocks the resident buckets' newest versions hold
}

// localBufs is one bucket's images: its current (or newest) and sealed
// versions', nil for a version that holds no block (a fresh tree's) and for
// none.
type localBufs struct {
	cur, sealed *imageBuf
}

// KeepLocal turns the local-version table on and returns how many buckets,
// from the root in heap order, it keeps resident. From then on reads are
// marked Local as they are planned and served from the table as they
// complete, Complete files an eviction's images in the table instead of
// returning them, and SealImage seals a resident bucket as its Z real
// positions alone, in position order — so only a caller that never reads
// those buckets from storage slot by slot may turn it on. Over a fresh tree
// the table is ready; over restored metadata the caller loads the resident
// buckets (LoadLocal) before planning anything. Calling it again changes
// nothing.
func (o *ORAM) KeepLocal() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := &o.local
	if t.bufs == nil {
		t.resident, t.plain = o.m.KeepLocal(), int64(o.cdc.plainSize())
		t.bufs = make([]localBufs, o.geo.NumBuckets)
	}
	return t.resident
}

// LoadLocal rebuilds the resident buckets' versions from storage, replacing
// whatever the table held of them. data holds slots 0..Z-1 of every resident
// bucket, in bucket order: the one read that brings the top back, a function
// of the geometry alone. Of each bucket it keeps the positions the metadata
// says hold a block, each opened under the bucket's (bucket, version) binding:
// a slot that fails to authenticate fails the load with ErrCorrupt. Call it
// with no eviction planned and not yet completed.
func (o *ORAM) LoadLocal(data [][]byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, z := &o.local, o.p.Z
	if len(data) != t.resident*z {
		return fmt.Errorf("ringoram: loading %d resident buckets from %d slots", t.resident, len(data))
	}
	var held []int
	for b := 0; b < t.resident; b++ {
		var ver uint64
		var perm []int
		ver, perm, held = o.m.Holds(b, held[:0])
		ib := o.imagePool.Get().(*imageBuf)
		ib.ver = ver
		for _, r := range held {
			slot := o.blocks.take()
			ib.perm[len(ib.blocks)] = perm[r]
			ib.blocks = append(ib.blocks, slot)
			o.openedSlots.Add(1)
			if err := o.cdc.open(slot, data[b*z+r], o.binding(uint64(b), ver)); err != nil {
				ib.recycle()
				return fmt.Errorf("%w: bucket %d version %d: %v", ErrCorrupt, b, ver, err)
			}
		}
		t.keep(b, ib)
	}
	return nil
}

// SealLocal ends the current epoch: its versions become the sealed set, which
// it returns in bucket order, and the sealed set before it is retired. The
// returned images are immutable and stay valid until the next SealLocal, so a
// committer may seal them (SealImage) without the ORAM's lock while the next
// epoch plans and completes; the caller seals next only once that flush has
// returned. The sealed buckets stay local until then.
func (o *ORAM) SealLocal() ([]BucketImage, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	buckets, err := o.m.SealLocal()
	if err != nil {
		return nil, err
	}
	t := &o.local
	for _, im := range t.sealed {
		lb := &t.bufs[im.Bucket]
		old := lb.sealed
		lb.sealed = nil
		lb.release(old)
	}
	clear(t.sealed)
	t.sealed = t.images(t.sealed[:0], buckets)
	for _, b := range buckets {
		lb := &t.bufs[b]
		lb.sealed = lb.cur
		if b >= t.resident {
			lb.cur = nil
		}
	}
	return t.sealed, nil
}

// FlushLocal writes the current epoch's versions back without sealing the
// epoch: write gets them in bucket order, and once it succeeds they leave the
// table, the resident buckets' newest versions excepted. The sealed set is
// left as it is. write runs without the ORAM's lock.
func (o *ORAM) FlushLocal(write func([]BucketImage) error) error {
	o.mu.Lock()
	t := &o.local
	buckets, err := o.m.LocalEpoch()
	if err == nil {
		clear(t.flushing)
		t.flushing = t.images(t.flushing[:0], buckets)
	}
	o.mu.Unlock()
	if err != nil {
		return err
	}
	if err := write(t.flushing); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, b := range o.m.Flushed() {
		if lb := &t.bufs[b]; b >= t.resident {
			old := lb.cur
			lb.cur = nil
			lb.release(old)
		}
	}
	return nil
}

// ResidentBytes returns the memory of the blocks the resident buckets' newest
// versions hold: at most Z plaintext slots per resident bucket.
func (o *ORAM) ResidentBytes() int64 { return o.local.residentBytes.Load() }

// keep makes ib bucket b's current version, recycling the one it replaces.
func (t *localImages) keep(b int, ib *imageBuf) {
	lb := &t.bufs[b]
	old := lb.cur
	lb.cur = ib
	if b < t.resident {
		t.residentBytes.Add(int64(ib.len()-old.len()) * t.plain)
	}
	lb.release(old)
}

// release recycles ib unless the bucket still holds it, as its current or as
// its sealed version.
func (lb *localBufs) release(ib *imageBuf) {
	if ib != nil && ib != lb.cur && ib != lb.sealed {
		ib.recycle()
	}
}

// serve is the one lookup: the plaintext slot that the bucket version r was
// planned against holds at r.Slot, nil when it holds no block. The machine
// has checked that the table holds that version (meta.Machine.Begin).
func (t *localImages) serve(r meta.SlotRead) []byte {
	lb := &t.bufs[r.Bucket]
	ib := lb.cur
	if ib == nil || ib.ver != r.Ver {
		ib = lb.sealed
	}
	if ib == nil || ib.ver != r.Ver {
		return nil
	}
	im := t.image(r.Bucket, ib)
	return im.Block(r.Slot)
}

// images appends the current versions of buckets to dst.
func (t *localImages) images(dst []BucketImage, buckets []int) []BucketImage {
	for _, b := range buckets {
		dst = append(dst, t.image(b, t.bufs[b].cur))
	}
	return dst
}

// image is bucket b's version ib as a BucketImage.
func (t *localImages) image(b int, ib *imageBuf) BucketImage {
	return BucketImage{Bucket: b, Ver: ib.ver, Blocks: ib.blocks, perm: ib.perm, trim: b < t.resident, buf: ib}
}
