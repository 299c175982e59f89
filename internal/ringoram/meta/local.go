package meta

import (
	"fmt"
	"slices"
)

// The local-version table's bookkeeping. The proxy keeps every bucket
// version an epoch's evictions write in plaintext until the epoch's
// write-back reaches storage, and serves reads of it itself meanwhile
// (delayed visibility, §6.3 and §7); it keeps the top of the tree, the
// buckets of levels 0..L-3, for good (Ring ORAM's client-side tree top), and
// storage holds those as their Z real positions alone. Each bucket holds at
// most two versions, the current epoch's — a resident bucket's newest,
// whatever epoch wrote it — and the sealed epoch's. A read is local when, at
// the moment it is planned, its bucket is resident, or an eviction planned
// before it claimed the bucket, or the sealed set holds the version it reads;
// which reads that are is a function of the bucket number and the epoch's
// evictions, never of the workload. This table records which version numbers
// the proxy holds; the byte plane holds their images and serves a local read
// from the one whose version the read was planned against — the check that
// stands where the slot's (bucket, version) binding would for a read from
// storage.

// localTable is the machine's local bucket versions. The zero value is off:
// no read is local.
type localTable struct {
	resident int           // buckets 0..resident-1 keep their newest version
	versions []localBucket // indexed by bucket; nil while the table is off
	// epoch lists the buckets the current epoch rewrites, in claim order;
	// sealed is the sealed epoch's buckets in bucket order.
	epoch, sealed []int
}

// localBucket is one bucket's entry: its current (or newest) and sealed
// version numbers (0: none), and the version the epoch's last planned
// rewrite of it makes (0: the epoch has not claimed it).
type localBucket struct {
	cur, sealed, want uint64
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
// marked Local as they are planned. Calling it again changes nothing.
func (m *Machine) KeepLocal() int {
	t := &m.local
	if t.versions == nil {
		t.resident = residentCount(m.geo)
		t.versions = make([]localBucket, m.geo.NumBuckets)
		for b := 0; b < t.resident; b++ {
			t.versions[b].cur = m.buckets[b].writeVer
		}
	}
	return t.resident
}

// SealLocal ends the current epoch in the table: its versions become the
// sealed set, whose buckets it returns in bucket order, and the sealed set
// before it is retired. The slice is the table's, valid until the next call.
func (m *Machine) SealLocal() ([]int, error) {
	t := &m.local
	if err := t.complete(); err != nil {
		return nil, err
	}
	for _, b := range t.sealed {
		t.versions[b].sealed = 0
	}
	slices.Sort(t.epoch)
	t.sealed = append(t.sealed[:0], t.epoch...)
	for _, b := range t.epoch {
		lb := &t.versions[b]
		lb.sealed, lb.want = lb.cur, 0
		if b >= t.resident {
			lb.cur = 0
		}
	}
	t.epoch = t.epoch[:0]
	return t.sealed, nil
}

// LocalEpoch returns the buckets the current epoch rewrote, in bucket order,
// once each holds the version its last planned rewrite makes. The slice is
// the table's, valid until the epoch's next claim.
func (m *Machine) LocalEpoch() ([]int, error) {
	t := &m.local
	if err := t.complete(); err != nil {
		return nil, err
	}
	slices.Sort(t.epoch)
	return t.epoch, nil
}

// Flushed records that the current epoch's versions reached storage without
// the epoch being sealed: they leave the table, the resident buckets' newest
// versions excepted. It returns the epoch's buckets, in a slice valid until
// the next claim.
func (m *Machine) Flushed() []int {
	t := &m.local
	done := t.epoch
	for _, b := range done {
		lb := &t.versions[b]
		lb.want = 0
		if b >= t.resident {
			lb.cur = 0
		}
	}
	t.epoch = t.epoch[:0]
	return done
}

// serves reports whether a read of version ver of bucket b, planned now, is
// local: the bucket is resident, the epoch has claimed it, or the sealed set
// holds that version (after a flush storage may hold a newer one).
func (t *localTable) serves(b int, ver uint64) bool {
	if t.versions == nil {
		return false
	}
	lb := &t.versions[b]
	return b < t.resident || lb.want != 0 || lb.sealed == ver
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

// keep makes ver bucket b's current version: its rewrite completed.
func (t *localTable) keep(b int, ver uint64) {
	if t.versions != nil {
		t.versions[b].cur = ver
	}
}

// check fails unless the table holds the version each local read of reads
// was planned against. Completions apply in plan order, so a resident
// bucket's newest version is the one the read was planned against, and of
// the other buckets the current version is, unless the read was planned
// before the epoch claimed the bucket and is served from the sealed one.
func (t *localTable) check(reads []SlotRead) error {
	for _, r := range reads {
		if !r.local {
			continue
		}
		if lb := &t.versions[r.Bucket]; lb.cur != r.Ver && lb.sealed != r.Ver {
			return fmt.Errorf("ringoram: bucket %d slot %d is served locally, but the read was planned against version %d and the proxy holds versions %d and %d", r.Bucket, r.Slot, r.Ver, lb.cur, lb.sealed)
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
