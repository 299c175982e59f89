package ringoram

import (
	"fmt"

	"obladi/internal/ringoram/meta"
)

// The local-version table's images. The machine decides which bucket
// versions the proxy keeps, under which handles, and which reads are local
// (meta/local.go); the ORAM files each kept version's plaintext, the image
// the eviction left, under its handle, serves a local read from the handle
// the read carries, and drops an image when the machine releases its handle.

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
	if o.resident == 0 {
		o.resident = o.m.KeepLocal((*plane)(o))
	}
	return o.resident
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
	z := o.p.Z
	if len(data) != o.resident*z {
		return fmt.Errorf("ringoram: loading %d resident buckets from %d slots", o.resident, len(data))
	}
	var held []int
	for b := 0; b < o.resident; b++ {
		h, ver, perm, got := o.m.Reload(b, held[:0], (*plane)(o))
		held = got
		im := o.image(h)
		*im = o.newImage(b, ver)
		for _, r := range held {
			slot := o.blocks.take()
			im.perm[len(im.Blocks)] = perm[r]
			im.Blocks = append(im.Blocks, slot)
			o.openedSlots.Add(1)
			if err := o.cdc.open(slot, data[b*z+r], o.binding(uint64(b), ver)); err != nil {
				return fmt.Errorf("%w: bucket %d version %d: %v", ErrCorrupt, b, ver, err)
			}
		}
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
	handles, err := o.m.SealLocal((*plane)(o))
	if err != nil {
		return nil, err
	}
	o.sealed = o.imagesOf(o.sealed, handles)
	return o.sealed, nil
}

// FlushLocal writes the current epoch's versions back without sealing the
// epoch: write gets them in bucket order, and once it succeeds they leave the
// table, the resident buckets' newest versions excepted. The sealed set is
// left as it is. write runs without the ORAM's lock.
func (o *ORAM) FlushLocal(write func([]BucketImage) error) error {
	o.mu.Lock()
	handles, err := o.m.LocalEpoch()
	if err == nil {
		o.flushing = o.imagesOf(o.flushing, handles)
	}
	o.mu.Unlock()
	if err != nil {
		return err
	}
	if err := write(o.flushing); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.m.Flushed((*plane)(o))
	return nil
}

// ResidentBytes returns the memory of the blocks the resident buckets' newest
// versions hold: at most Z plaintext slots per resident bucket.
func (o *ORAM) ResidentBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for b := 0; b < o.resident; b++ {
		cur, _ := o.m.Local(b)
		n += len(o.image(cur).Blocks)
	}
	return int64(n * o.cdc.plainSize())
}

// image returns the place of the image filed under handle h, growing the
// store to it. The place holds the zero image for a handle whose version is
// not filed (a LoadLocal that failed before reaching it).
func (o *ORAM) image(h meta.Image) *BucketImage { return grow(&o.images, int(h)) }

// imagesOf refills dst with the images filed under handles.
func (o *ORAM) imagesOf(dst []BucketImage, handles []meta.Image) []BucketImage {
	clear(dst)
	dst = dst[:0]
	for _, h := range handles {
		dst = append(dst, *o.image(h))
	}
	return dst
}
