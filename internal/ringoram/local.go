package ringoram

import (
	"errors"
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// The local-version table's images. The machine decides which bucket
// versions the proxy keeps, under which handles, and which reads are local
// (meta/local.go); the ORAM files each kept version's plaintext, the image
// the eviction left, under its handle, serves a local read from the handle
// the read carries, and drops an image when the machine releases its handle.
// Once the machine's table is on (meta.Machine.KeepLocal), SealImage seals a
// resident bucket as its Z real positions alone, in position order — so only
// a driver that never reads those buckets from storage slot by slot may turn
// it on. Over restored metadata the driver loads the resident buckets
// (LoadLocal) before planning anything.

// LoadLocal rebuilds the resident buckets' versions from storage, replacing
// whatever the table held of them. data holds slots 0..Z-1 of every resident
// bucket, in bucket order: the one read that brings the top back, a function
// of the geometry alone. Of each bucket it keeps the positions the metadata
// says hold a block, each opened under the version's seed and (bucket,
// version) binding as the slot of the block the metadata names there: a slot
// that fails to authenticate fails the load with ErrCorrupt, and one of
// another scheme, which an older build wrote, with cryptoutil.ErrScheme. Call
// it with the table on and no eviction planned and not yet completed.
func (o *ORAM) LoadLocal(data [][]byte) error {
	z, resident := o.p.Z, o.m.Resident()
	if len(data) != resident*z {
		return fmt.Errorf("ringoram: loading %d resident buckets from %d slots", resident, len(data))
	}
	var held []int
	for b := 0; b < resident; b++ {
		h, ver, perm, got := o.m.Reload(b, held[:0])
		held = got
		im := o.image(h)
		*im = o.newImage(b, ver, o.m.Seed(b))
		for _, r := range held {
			slot := o.blocks.take()
			im.real[len(im.Blocks)] = perm[r]
			im.Blocks = append(im.Blocks, slot)
			o.openedSlots.Add(1)
			err := o.cdc.open(slot, data[b*z+r], im.Seed, int(perm[r]), o.binding(uint64(b), ver), o.m.KeyAt(b, r), &o.scratch)
			if errors.Is(err, cryptoutil.ErrScheme) {
				return fmt.Errorf("ringoram: bucket %d version %d: %w", b, ver, err)
			}
			if err != nil {
				return fmt.Errorf("%w: bucket %d version %d: %w", ErrCorrupt, b, ver, err)
			}
		}
	}
	return nil
}

// Image returns the image filed under handle h: the plaintext of the bucket
// version the machine keeps under h, the zero image for a handle with none
// filed. The image stays the table's: valid until the machine releases h.
func (o *ORAM) Image(h meta.Image) BucketImage { return *o.image(h) }

// image returns the place of the image filed under handle h, growing the
// store to it. The place holds the zero image for a handle whose version is
// not filed (a LoadLocal that failed before reaching it).
func (o *ORAM) image(h meta.Image) *BucketImage { return grow(&o.images, int(h)) }
