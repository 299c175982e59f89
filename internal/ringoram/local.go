package ringoram

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// The local-version table. The proxy keeps every bucket version an epoch's
// evictions write in plaintext until the epoch's write-back reaches storage,
// and serves reads of it itself meanwhile (delayed visibility, §6.3 and §7);
// it keeps the top of the tree, the buckets of levels 0..L-3, for good (Ring
// ORAM's client-side tree top), and storage holds those as their Z real
// positions alone. Both are one table of the ORAM's: each bucket holds at
// most two versions, the current epoch's — a resident bucket's newest,
// whatever epoch wrote it — and the sealed epoch's, each the BucketImage the
// eviction left. A read is local when, at the moment it is planned, its
// bucket is resident, or an eviction planned before it claimed the bucket, or
// the sealed set holds the version it reads; which reads that are is a function of the bucket number and the
// epoch's evictions, never of the workload. Completion serves a local read by
// the one lookup (bucket, slot, planned version) → plaintext slot: the
// version must be the one the read was planned against, the check that
// stands where the slot's (bucket, version) binding would for a read from
// storage.
//
// An image goes back to the pool only once it is neither a bucket's version
// nor in the sealed set. A resident bucket's newest version can be both: the
// epoch that wrote it last sealed it, and the next rewrite supersedes it as
// the newest while the sealed set still holds it.

// localTable is the ORAM's local bucket versions, guarded by its lock. The
// zero value is off: no read is local and evictions hand their images to the
// caller.
type localTable struct {
	resident int           // buckets 0..resident-1 keep their newest version
	versions []localBucket // indexed by bucket; nil while the table is off
	// epoch lists the buckets the current epoch rewrites, in claim order;
	// sealed is the sealed epoch's versions in bucket order, what its flush
	// seals, and flushing is FlushLocal's list.
	epoch            []int
	sealed, flushing []BucketImage
	plain            int64        // bytes of a plaintext slot
	residentBytes    atomic.Int64 // the blocks the resident buckets' newest versions hold
}

// localBucket is one bucket's entry: its current (or newest) and sealed
// versions, and the version the epoch's last planned rewrite of it makes (0:
// the epoch has not claimed it).
type localBucket struct {
	cur, sealed localVer
	want        uint64
}

// localVer is one bucket version the table holds: its number and its image's
// buffer, nil for a version that holds no block (a fresh tree's).
type localVer struct {
	ver uint64
	buf *imageBuf
}

// residentCount is the level rule: the buckets of levels 0..L-3, which are
// the first 2^(L-2)-1 heap indices, stay resident. A bucket holds about the
// same number of blocks at every level, so each further level doubles the
// memory for the same 1/(L+1) of the physical reads.
func residentCount(g Geometry) int {
	if g.Levels < 3 {
		return 0
	}
	return 1<<(g.Levels-2) - 1
}

// KeepLocal turns the local-version table on and returns how many buckets,
// from the root in heap order, it keeps resident. From then on reads are
// marked Local as they are planned and served from the table as they
// complete, Complete files an eviction's images in the table instead of
// returning them, and SealImage seals a resident bucket as its Z real positions alone,
// in position order — so only a caller that never reads those buckets from
// storage slot by slot may turn it on. Over a fresh tree the table is ready;
// over restored metadata the caller loads the resident buckets (LoadLocal)
// before planning anything. Calling it again changes nothing.
func (o *ORAM) KeepLocal() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := &o.local
	if t.versions == nil {
		t.resident, t.plain = residentCount(o.geo), int64(o.cdc.plainSize())
		t.versions = make([]localBucket, o.geo.NumBuckets)
		for b := 0; b < t.resident; b++ {
			t.versions[b].cur.ver = o.meta[b].writeVer
		}
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
	for b := 0; b < t.resident; b++ {
		m := &o.meta[b]
		ib := o.imagePool.Get().(*imageBuf)
		valid, occ := m.valid(), m.occ()
		for r := 0; r < z; r++ {
			if !occ.has(r) || !valid.has(m.perm[r]) {
				continue
			}
			slot := o.blocks.take()
			ib.perm[len(ib.blocks)] = m.perm[r]
			ib.blocks = append(ib.blocks, slot)
			o.openedSlots.Add(1)
			if err := o.cdc.open(slot, data[b*z+r], o.binding(uint64(b), m.writeVer)); err != nil {
				ib.recycle()
				return fmt.Errorf("%w: bucket %d version %d: %v", ErrCorrupt, b, m.writeVer, err)
			}
		}
		t.keep(b, localVer{ver: m.writeVer, buf: ib})
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
	t := &o.local
	if err := t.complete(); err != nil {
		return nil, err
	}
	for _, im := range t.sealed {
		lb := &t.versions[im.Bucket]
		old := lb.sealed
		lb.sealed = localVer{}
		lb.release(old)
	}
	clear(t.sealed)
	t.sealed = t.images(t.sealed[:0])
	for _, b := range t.epoch {
		lb := &t.versions[b]
		lb.sealed, lb.want = lb.cur, 0
		if b >= t.resident {
			lb.cur = localVer{}
		}
	}
	t.epoch = t.epoch[:0]
	return t.sealed, nil
}

// FlushLocal writes the current epoch's versions back without sealing the
// epoch: write gets them in bucket order, and once it succeeds they leave the
// table, the resident buckets' newest versions excepted. The sealed set is
// left as it is. write runs without the ORAM's lock.
func (o *ORAM) FlushLocal(write func([]BucketImage) error) error {
	o.mu.Lock()
	t := &o.local
	err := t.complete()
	if err == nil {
		clear(t.flushing)
		t.flushing = t.images(t.flushing[:0])
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
	for _, b := range t.epoch {
		lb := &t.versions[b]
		lb.want = 0
		if b >= t.resident {
			old := lb.cur
			lb.cur = localVer{}
			lb.release(old)
		}
	}
	t.epoch = t.epoch[:0]
	return nil
}

// ResidentBytes returns the memory of the blocks the resident buckets' newest
// versions hold: at most Z plaintext slots per resident bucket.
func (o *ORAM) ResidentBytes() int64 { return o.local.residentBytes.Load() }

// serves reports whether a read of version ver of bucket b, planned now, is
// local: the bucket is resident, the epoch has claimed it, or the sealed set
// holds that version (after a FlushLocal storage may hold a newer one).
func (t *localTable) serves(b int, ver uint64) bool {
	if t.versions == nil {
		return false
	}
	lb := &t.versions[b]
	return b < t.resident || lb.want != 0 || lb.sealed.ver == ver
}

// rewritten reports whether the current epoch has claimed bucket b. A replay
// gives such a bucket's reads free slot choices: the logged ones name slots
// of a version the replay has since replaced with a fresh layout, and the
// reads are local, invisible to the adversary.
func (t *localTable) rewritten(b int) bool {
	return t.versions != nil && t.versions[b].want != 0
}

// claim records that a planned rewrite makes version ver of bucket b, so
// reads planned after it are local.
func (t *localTable) claim(b int, ver uint64) {
	if t.versions == nil {
		return
	}
	lb := &t.versions[b]
	if lb.want == 0 {
		t.epoch = append(t.epoch, b)
	}
	lb.want = ver
}

// keep makes v bucket b's current version, recycling the one it replaces.
func (t *localTable) keep(b int, v localVer) {
	lb := &t.versions[b]
	old := lb.cur
	lb.cur = v
	if b < t.resident {
		t.residentBytes.Add(int64(v.blocks()-old.blocks()) * t.plain)
	}
	lb.release(old)
}

// release recycles v's image unless the bucket still holds it, as its
// current or as its sealed version.
func (lb *localBucket) release(v localVer) {
	if v.buf != nil && v.buf != lb.cur.buf && v.buf != lb.sealed.buf {
		v.buf.recycle()
	}
}

func (v localVer) blocks() int {
	if v.buf == nil {
		return 0
	}
	return len(v.buf.blocks)
}

// serve is the one lookup: the plaintext slot bucket version r.Ver holds at
// r.Slot, nil when the slot holds no block. Completions apply in plan order,
// so a resident bucket's newest version is the one the read was planned
// against, and of the other buckets the current version is, unless the read
// was planned before the epoch claimed the bucket and is served from the
// sealed one.
func (t *localTable) serve(r SlotRead) ([]byte, error) {
	lb := &t.versions[r.Bucket]
	v := lb.cur
	if v.ver != r.Ver {
		v = lb.sealed
	}
	if v.ver != r.Ver {
		return nil, fmt.Errorf("ringoram: bucket %d slot %d is served locally, but the read was planned against version %d and the proxy holds versions %d and %d", r.Bucket, r.Slot, r.Ver, lb.cur.ver, lb.sealed.ver)
	}
	im := t.image(r.Bucket, v)
	return im.Block(r.Slot), nil
}

// check serves every local read of reads, for its version check alone.
func (t *localTable) check(reads []SlotRead) error {
	for _, r := range reads {
		if r.local {
			if _, err := t.serve(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// complete fails unless every bucket the epoch claimed holds the version its
// last planned rewrite makes.
func (t *localTable) complete() error {
	for _, b := range t.epoch {
		if lb := &t.versions[b]; lb.cur.ver != lb.want {
			return fmt.Errorf("ringoram: bucket %d claimed but never filled (incomplete epoch)", b)
		}
	}
	return nil
}

// images appends the current epoch's versions to dst in bucket order.
func (t *localTable) images(dst []BucketImage) []BucketImage {
	slices.Sort(t.epoch)
	for _, b := range t.epoch {
		dst = append(dst, t.image(b, t.versions[b].cur))
	}
	return dst
}

// image is version v of bucket b as a BucketImage.
func (t *localTable) image(b int, v localVer) BucketImage {
	im := BucketImage{Bucket: b, Ver: v.ver, trim: b < t.resident, buf: v.buf}
	if v.buf != nil {
		im.Blocks, im.perm = v.buf.blocks, v.buf.perm
	}
	return im
}
