package meta

import (
	"fmt"
	"slices"
)

// The local-version table. The proxy keeps every bucket version an epoch's
// evictions write in plaintext until the epoch's write-back reaches storage,
// and serves reads of it itself meanwhile (delayed visibility, §6.3 and §7);
// it keeps the top of the tree, the buckets of levels 0..L-3, for good (Ring
// ORAM's client-side tree top), and storage holds those as their Z real
// positions alone. Each bucket holds at most two versions, the current
// epoch's — a resident bucket's newest, whatever epoch wrote it — and the
// sealed epoch's. A read is local when, at the moment it is planned, its
// bucket is resident, or an eviction planned before it claimed the bucket,
// or the sealed set holds the version it reads; which reads that are is a
// function of the bucket number and the epoch's evictions, never of the
// workload.
//
// Each kept version has a handle, an Image, which the table allocates when an
// eviction claims the bucket (or a resident bucket is kept or reloaded). The
// byte plane files the version's plaintext under it (Plane.Place) and serves
// a local read from the handle the read carries; the table alone decides when
// a version stops being kept and tells the plane (Plane.Release). That is the
// one release rule: a handle is released once it is neither its bucket's
// current version nor in the sealed set.

// Image is the handle of a version the table keeps; 0 names none. A released
// handle is reused.
type Image int32

// localTable is the machine's local bucket versions. The zero value is off:
// no read is local, and no eviction gets a handle.
type localTable struct {
	resident int           // buckets 0..resident-1 keep their newest version
	versions []localBucket // indexed by bucket; nil while the table is off
	images   []kept        // indexed by handle; images[0] and free handles are zero
	free     []Image
	// epoch lists the buckets the current epoch rewrites, in claim order;
	// sealed is the sealed epoch's handles in bucket order, and out the
	// current epoch's, LocalEpoch's list.
	epoch       []int
	sealed, out []Image
}

// localBucket is one bucket's entry: the handles of its current (or newest)
// and sealed versions, and of the version the epoch's last planned rewrite of
// it makes (0: none, or the epoch has not claimed it).
type localBucket struct {
	cur, sealed, want Image
}

// kept is the bucket version a live handle names.
type kept struct {
	bucket int
	ver    uint64
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
// marked Local as they are planned and evictions name their versions'
// handles. Each resident bucket's current version gets a handle, which the
// plane files as the version's image with no block — all of it over a fresh
// tree; over restored metadata the byte plane loads the blocks (Reload)
// before anything is planned. Calling it again changes nothing.
func (m *Machine) KeepLocal() int {
	t := &m.local
	if t.versions == nil {
		t.resident = residentCount(m.geo)
		t.versions = make([]localBucket, m.geo.NumBuckets)
		t.images = []kept{{}}
		for b := 0; b < t.resident; b++ {
			bm := m.bucket(b)
			w := BucketWrite{Bucket: b, Ver: bm.writeVer, Seed: bm.seed, Image: t.alloc(b, bm.writeVer), Perm: bm.perm}
			t.versions[b].cur = w.Image
			m.plane.Place(&w)
		}
	}
	return t.resident
}

// Reload gives resident bucket b's current version a new handle, for the byte
// plane to file the version under as it loads its blocks from storage, and
// releases the one it replaces unless the sealed set holds it. It returns the
// handle and what Holds returns.
func (m *Machine) Reload(b int, dst []int) (Image, uint64, []uint16, []int) {
	ver, perm, held := m.Holds(b, dst)
	h := m.local.alloc(b, ver)
	m.keep(b, h)
	return h, ver, perm, held
}

// Resident returns how many buckets, from the root in heap order, the table
// keeps resident: 0 while it is off.
func (m *Machine) Resident() int { return m.local.resident }

// Local returns the handles of bucket b's current and sealed versions, 0 for
// none. The table must be on.
func (m *Machine) Local(b int) (cur, sealed Image) {
	lb := &m.local.versions[b]
	return lb.cur, lb.sealed
}

// SealLocal ends the current epoch in the table: its versions become the
// sealed set, whose handles it returns in bucket order, and the sealed set
// before it is retired. The slice is the table's, valid until the next call.
func (m *Machine) SealLocal() ([]Image, error) {
	t := &m.local
	handles, err := m.LocalEpoch()
	if err != nil {
		return nil, err
	}
	for _, h := range t.sealed {
		lb := &t.versions[t.images[h].bucket]
		lb.sealed = 0
		m.release(lb, h)
	}
	t.sealed = append(t.sealed[:0], handles...)
	for _, h := range t.sealed {
		t.versions[t.images[h].bucket].sealed = h
	}
	m.Flushed()
	return t.sealed, nil
}

// LocalEpoch returns the handles of the versions the current epoch wrote, in
// bucket order, once each bucket holds the version its last planned rewrite
// makes. The slice is the table's, valid until the next call.
func (m *Machine) LocalEpoch() ([]Image, error) {
	t := &m.local
	if err := t.complete(); err != nil {
		return nil, err
	}
	slices.Sort(t.epoch)
	t.out = t.out[:0]
	for _, b := range t.epoch {
		t.out = append(t.out, t.versions[b].cur)
	}
	return t.out, nil
}

// Flushed records that the current epoch's versions reached storage: the
// epoch's claims are done, and the versions leave the table unless the sealed
// set holds them, the resident buckets' newest versions excepted.
func (m *Machine) Flushed() {
	t := &m.local
	for _, b := range t.epoch {
		lb := &t.versions[b]
		lb.want = 0
		if b >= t.resident {
			old := lb.cur
			lb.cur = 0
			m.release(lb, old)
		}
	}
	t.epoch = t.epoch[:0]
}

// serves returns the handle of the version a read of version ver of bucket
// b, planned now, is served from, 0 when the read is not local: the version
// the epoch's last rewrite makes, a resident bucket's newest, or the sealed
// one if it is that version (after a flush storage may hold a newer one).
func (t *localTable) serves(b int, ver uint64) Image {
	if t.versions == nil {
		return 0
	}
	switch lb := &t.versions[b]; {
	case lb.want != 0:
		return lb.want
	case b < t.resident:
		return lb.cur
	case t.images[lb.sealed].ver == ver:
		return lb.sealed
	}
	return 0
}

// rewritten reports whether the current epoch has claimed bucket b. A replay
// gives such a bucket's reads free slot choices: the logged ones name slots
// of a version the replay has since replaced with a fresh layout, and the
// reads are local, invisible to the adversary.
func (t *localTable) rewritten(b int) bool {
	return t.versions != nil && t.versions[b].want != 0
}

// claim records that a planned rewrite makes version ver of bucket b, so
// reads planned after it are local, and returns the version's handle.
func (t *localTable) claim(b int, ver uint64) Image {
	if t.versions == nil {
		return 0
	}
	lb := &t.versions[b]
	if lb.want == 0 {
		t.epoch = append(t.epoch, b)
	}
	lb.want = t.alloc(b, ver)
	return lb.want
}

// alloc returns a free handle naming version ver of bucket b.
func (t *localTable) alloc(b int, ver uint64) Image {
	var h Image
	if n := len(t.free); n > 0 {
		h, t.free = t.free[n-1], t.free[:n-1]
	} else {
		h = Image(len(t.images))
		t.images = append(t.images, kept{})
	}
	t.images[h] = kept{bucket: b, ver: ver}
	return h
}

// keep makes h bucket b's current version: its rewrite completed.
func (m *Machine) keep(b int, h Image) {
	if m.local.versions == nil {
		return
	}
	lb := &m.local.versions[b]
	old := lb.cur
	lb.cur = h
	m.release(lb, old)
}

// release is the rule every transition ends with: handle h, which bucket lb
// held, goes back to the free list, and its image to the byte plane, unless
// the bucket still holds it as its current or its sealed version.
func (m *Machine) release(lb *localBucket, h Image) {
	if t := &m.local; h != 0 && h != lb.cur && h != lb.sealed {
		t.images[h] = kept{}
		t.free = append(t.free, h)
		m.plane.Release(h)
	}
}

// check fails unless each local read of reads is served from a version the
// table still holds, the one the read was planned against. Completions apply
// in plan order, so that is the bucket's current version, unless the read
// was planned before the epoch claimed the bucket and is served from the
// sealed one.
func (t *localTable) check(reads []SlotRead) error {
	for _, r := range reads {
		if h := r.img; h != 0 {
			if lb := &t.versions[r.Bucket]; h != lb.cur && h != lb.sealed || t.images[h].ver != r.Ver {
				return fmt.Errorf("ringoram: bucket %d slot %d is served locally, but the read was planned against version %d and the proxy holds versions %d and %d", r.Bucket, r.Slot, r.Ver, t.images[lb.cur].ver, t.images[lb.sealed].ver)
			}
		}
	}
	return nil
}

// complete fails unless every bucket the epoch claimed holds the version its
// last planned rewrite makes.
func (t *localTable) complete() error {
	for _, b := range t.epoch {
		if lb := &t.versions[b]; lb.cur != lb.want {
			return fmt.Errorf("ringoram: bucket %d claimed but never filled (incomplete epoch)", b)
		}
	}
	return nil
}
