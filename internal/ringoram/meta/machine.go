package meta

import (
	"errors"
	"fmt"
	"math/rand/v2"
)

// Public errors.
var (
	// ErrFull is returned when inserting more distinct keys than NumBlocks.
	ErrFull = errors.New("ringoram: capacity exceeded")
	// ErrStashOverflow is returned when the stash exceeds its configured
	// bound. With canonical parameters (S, A from the Ring ORAM analysis)
	// this does not occur except with negligible probability.
	ErrStashOverflow = errors.New("ringoram: stash overflow")
	// ErrReplay indicates a logged replay entry inconsistent with the
	// restored metadata.
	ErrReplay = errors.New("ringoram: replay divergence")
)

// Block names a stash entry's block to the byte plane, which keeps the
// block's bytes under it; 0 names none. A handle is the entry's index in the
// machine's entry table: it is reused once an eviction has moved the block
// into the tree and the entry is retired.
type Block int32

// stashEntry is a client-side buffered block. Entries are shared by handle
// between the stash and in-flight plans so that a completion can deliver a
// block that a later-planned eviction has already placed.
type stashEntry struct {
	key       string
	ki        int32 // the key's row in Machine.keys
	blk       Block // the entry's own handle
	leaf      int
	idx       int  // position in Machine.stashList
	cacheable bool // safe to serve without a dummy path read (§6.3)
	pending   bool // block not yet delivered by a completion
}

// Per-bucket dirty levels for delta checkpoints. Only an eviction's write
// phase changes a bucket's permutation, version and the identity of its
// resident keys; every other mutation clears a valid bit, bumps the slot
// count or blanks a resident key, and a delta can describe it by state alone.
type dirtyLevel uint8

const (
	bucketClean dirtyLevel = iota
	bucketTouched
	bucketRewritten
)

// Machine is a Ring ORAM client's metadata. It is not safe for concurrent
// use: its driver plans and completes on one goroutine at a time, and
// completions apply in plan order (the executor in internal/oramexec
// enforces this).
type Machine struct {
	p     Params
	geo   Geometry
	rng   *rand.Rand
	plane Plane // given once, at New or Restore (see Plane)

	keys  keyTable              // position map and location index (keys.go)
	stash map[int32]*stashEntry // by key row
	// stashList holds the stash in a deterministic order (insertion order,
	// perturbed by swap-removal): eviction placement and checkpoint encoding
	// walk it instead of the map, so both are a function of the operation
	// history and the seed alone.
	stashList []*stashEntry
	// buckets holds each bucket's version, the flat tables its rows (bucketView).
	buckets []bucketMeta
	perms   []uint16
	addrs   []int32
	words   []uint64

	accessCount uint64 // physical batch slots consumed (reads + writes)
	evictCount  uint64

	// Delta tracking since the last ClearDirty: flag arrays plus first-dirtied
	// order lists, reset in place.
	dirtyKeys    []int32 // rows of keys
	bucketDirty  []dirtyLevel
	dirtyBuckets []int32
	stashPeak    int

	pathBuf []int // a path, planning's scratch
	// planPool and entryPool recycle the per-step objects. Complete retires
	// its plan (with every slice the plan owns), and an eviction's entries
	// once their blocks have moved into the tree. planPool keeps the plans of
	// steps that rewrite buckets apart (planPool[1]), so an access or a write
	// never holds an eviction's Z reads and permutation per bucket. entries
	// is every entry made, indexed by its handle (entries[0] is none).
	planPool  [2][]*Plan
	entries   []*stashEntry
	entryPool []*stashEntry
	local     localTable // see local.go
}

// Seed is a bucket version's seed, 96 bits: the byte plane derives the
// nonce of each of the version's slots from it and the slot's index. The
// machine keeps the current version's beside its number, hands each plan the
// seed of every version it reads or writes, and logs it in checkpoints.
type Seed [12]byte

// New creates the metadata of a fresh tree over plane, the byte plane the
// machine drives from then on: every bucket gets empty real positions and a
// random permutation, drawn in heap order from the seeded generator, at
// version 1 with a seed the plane draws.
func New(p Params, plane Plane) (*Machine, error) {
	m, err := newMachine(p, plane)
	if err != nil {
		return nil, err
	}
	for b := range m.buckets {
		bm := m.bucket(b)
		m.shuffle(bm.perm)
		bm.writeVer = 1
		bm.seed = plane.Seed(b, 1)
		bm.rewrite(0)
	}
	return m, nil
}

func newMachine(p Params, plane Plane) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	geo := p.Geometry()
	seed := p.Seed
	var src rand.Source
	if seed != 0 {
		src = rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	} else {
		src = rand.NewPCG(rand.Uint64(), rand.Uint64())
	}
	n, z := geo.SlotsPer, p.Z
	m := &Machine{
		p:           p,
		geo:         geo,
		rng:         rand.New(src),
		plane:       plane,
		keys:        newKeyTable(),
		stash:       make(map[int32]*stashEntry),
		buckets:     make([]bucketMeta, geo.NumBuckets),
		perms:       make([]uint16, geo.NumBuckets*n),
		addrs:       make([]int32, geo.NumBuckets*z),
		words:       make([]uint64, geo.NumBuckets*metaWords(n, z)),
		bucketDirty: make([]dirtyLevel, geo.NumBuckets),
		pathBuf:     make([]int, 0, geo.Levels+1),
		entries:     []*stashEntry{nil},
	}
	for i := range m.addrs {
		m.addrs[i] = -1
	}
	return m, nil
}

// Params returns the validated configuration.
func (m *Machine) Params() Params { return m.p }

// Counters returns (accessCount, evictCount).
func (m *Machine) Counters() (uint64, uint64) { return m.accessCount, m.evictCount }

// StashSize returns the current number of stash entries.
func (m *Machine) StashSize() int { return len(m.stash) }

// StashPeak returns the high-water mark of the stash.
func (m *Machine) StashPeak() int { return m.stashPeak }

// KeyCount returns the number of allocated logical keys.
func (m *Machine) KeyCount() int { return m.keys.len() }

// Seed returns the seed of bucket b's current version.
func (m *Machine) Seed(b int) Seed { return m.buckets[b].seed }

// Fresh reports whether bucket b is still at its first version with no slot
// read.
func (m *Machine) Fresh(b int) bool {
	bm := m.bucket(b)
	return bm.writeVer == 1 && bm.count() == 0
}

// Holds appends to dst the real positions of bucket b that hold a block, in
// position order, and returns them with the bucket's version and
// permutation, the machine's row of it.
func (m *Machine) Holds(b int, dst []int) (uint64, []uint16, []int) {
	bm := m.bucket(b)
	for r := range bm.addrs {
		if bm.occ.has(r) && bm.valid.has(int(bm.perm[r])) {
			dst = append(dst, r)
		}
	}
	return bm.writeVer, bm.perm, dst
}

// KeyAt returns the key of the block at real position r of bucket b, a
// position Holds lists.
func (m *Machine) KeyAt(b, r int) string { return m.keys.name(m.bucket(b).addrs[r]) }

func (m *Machine) randLeaf() int { return m.rng.IntN(m.geo.Leaves) }

// remap points row ki at leaf and records the change for the next delta
// checkpoint.
func (m *Machine) remap(ki int32, leaf int) {
	m.keys.leaf[ki] = int32(leaf)
	if !m.keys.dirty.has(int(ki)) {
		m.keys.dirty.set(int(ki))
		m.dirtyKeys = append(m.dirtyKeys, ki)
	}
}

// newEntry clones v into a pooled stashEntry, or a new one with the next
// handle. Entries go back to the pool, keeping only their handle so a free
// entry pins nothing, when an eviction's completion moves their blocks into
// the tree — the one point where nothing (stash, position map, outstanding
// plans) can still reference them. v.key must be the key table's name.
func (m *Machine) newEntry(v stashEntry) *stashEntry {
	n := len(m.entryPool)
	if n == 0 {
		e := new(stashEntry)
		*e = v
		e.blk = Block(len(m.entries))
		m.entries = append(m.entries, e)
		return e
	}
	e := m.entryPool[n-1]
	m.entryPool[n-1] = nil
	m.entryPool = m.entryPool[:n-1]
	v.blk = e.blk
	*e = v
	return e
}

// stashAdd inserts e into the stash.
func (m *Machine) stashAdd(e *stashEntry) {
	e.idx = len(m.stashList)
	m.stashList = append(m.stashList, e)
	m.stash[e.ki] = e
}

// stashRemove deletes e from the stash, moving the last entry into its place.
func (m *Machine) stashRemove(e *stashEntry) {
	last := len(m.stashList) - 1
	moved := m.stashList[last]
	m.stashList[e.idx] = moved
	moved.idx = e.idx
	m.stashList[last] = nil
	m.stashList = m.stashList[:last]
	delete(m.stash, e.ki)
}

// markBucket raises bucket b's dirty level for the next delta checkpoint.
func (m *Machine) markBucket(b int, level dirtyLevel) {
	if m.bucketDirty[b] == bucketClean {
		m.dirtyBuckets = append(m.dirtyBuckets, int32(b))
	}
	if m.bucketDirty[b] < level {
		m.bucketDirty[b] = level
	}
}

func (m *Machine) noteStash() error {
	if len(m.stash) > m.stashPeak {
		m.stashPeak = len(m.stash)
	}
	if len(m.stash) > m.p.StashLimit {
		return fmt.Errorf("%w: %d entries exceed limit %d", ErrStashOverflow, len(m.stash), m.p.StashLimit)
	}
	return nil
}

// shuffle fills perm with a fresh uniform permutation of 0..len(perm)-1 in
// place, drawing from the machine's generator exactly as rand.Perm does, so
// a seeded run keeps its stream.
func (m *Machine) shuffle(perm []uint16) {
	for i := range perm {
		perm[i] = uint16(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := m.rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// Plane is the byte plane as the machine drives it: the machine decides what
// happens to a block or a bucket version, and the plane moves the bytes. A
// stash block is named by its Block and a kept bucket version by its Image.
// A machine is given its plane once, at New or Restore, and calls no other.
type Plane interface {
	// Seed draws the seed of version ver of bucket b, which the machine is
	// writing: a fresh tree's versions, every eviction's and early
	// reshuffle's, and a replayed one's after a crash. The ORAM draws from
	// the system's secure generator, never from the Params.Seed generator,
	// because a version a recovery writes again under a new permutation must
	// not reuse the version's first seed; a plane that seals nothing may
	// answer deterministically.
	Seed(b int, ver uint64) Seed
	// Deliver moves the block read r carries, key's, into the stash: data is
	// the slot storage returned, nil for a local read, which the plane serves
	// from the version r.Image names.
	Deliver(r SlotRead, data []byte, key string) error
	// Place moves the blocks w places out of the stash into the image of the
	// version w writes, and files it under w.Image; with Image 0 (the
	// local-version table is off) the image is the caller's.
	Place(w *BucketWrite)
	// Release drops the image filed under h: the table keeps the version no
	// longer.
	Release(h Image)
	// Value returns the value and the tombstone flag of delivered block b,
	// key's, for a checkpoint's stash section. The value is read before the
	// next call.
	Value(b Block, key string) (value []byte, tombstone bool, err error)
	// Put stores value and the tombstone flag as block b, key's: the block a
	// write puts in the stash (PlanWrite), or an entry of the stash the last
	// image of a Restore leaves.
	Put(b Block, key string, value []byte, tombstone bool) error
}

// Key returns the key of block b.
func (m *Machine) Key(b Block) string { return m.entries[b].key }

// Complete applies a step's fetched slots, in plan order, through the plane: it
// delivers every read whose block is still pending (a read whose block a later
// write superseded delivers nothing), places an eviction's blocks into the
// versions it writes, which become the local table's current ones, and retires
// the step. data must be parallel to p.Reads. It returns the block an access
// returns, 0 for padding, an unknown key and every other step. It refuses a
// plan completed before, a slot count other than the plan's, a local read of a
// version the table no longer holds, and a block still pending when its access
// or eviction completes. The plan goes back to its pool, which the caller must
// not touch it past; an error leaves it out of the pool, so the caller can
// inspect it.
func (m *Machine) Complete(p *Plan, data [][]byte) (Block, error) {
	if p.completed {
		return 0, errors.New("ringoram: plan completed twice")
	}
	p.completed = true
	if len(data) != len(p.Reads) {
		return 0, fmt.Errorf("ringoram: %d slots delivered, plan has %d", len(data), len(p.Reads))
	}
	if err := m.local.check(p.Reads); err != nil {
		return 0, err
	}
	for i, r := range p.Reads {
		if e := m.entries[r.blk]; r.blk != 0 && e.pending {
			if err := m.plane.Deliver(r, data[i], e.key); err != nil {
				return 0, err
			}
			e.pending = false
		}
	}
	// Every block the step moves on must be delivered by now: by an earlier
	// plan's completion or by this one's.
	err := m.delivered(p.blk)
	for i := 0; err == nil && i < len(p.writes); i++ {
		err = m.delivered(p.writes[i].Placed...)
	}
	if err != nil {
		return 0, err
	}
	// The placed entries go back to the pool: their blocks are the tree's
	// now, plan-ordered completion means no earlier plan still references
	// them, and any later access finds the key in the tree.
	for i := range p.writes {
		w := &p.writes[i]
		m.plane.Place(w)
		m.keep(w.Bucket, w.Image)
		for _, b := range w.Placed {
			e := m.entries[b]
			*e = stashEntry{blk: b}
			m.entryPool = append(m.entryPool, e)
		}
	}
	blk := p.blk
	p.Key, p.blk = "", 0
	pool := &m.planPool[p.Kind.pool()]
	*pool = append(*pool, p)
	return blk, nil
}

// delivered fails if a block of blocks has yet to reach the stash.
func (m *Machine) delivered(blocks ...Block) error {
	for _, b := range blocks {
		if b != 0 && m.entries[b].pending {
			return fmt.Errorf("ringoram: block %q still pending (completion order violated)", m.entries[b].key)
		}
	}
	return nil
}
