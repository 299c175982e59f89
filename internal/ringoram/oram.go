package ringoram

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"obladi/internal/cryptoutil"
	"obladi/internal/slab"
)

// Public errors.
var (
	// ErrFull is returned when inserting more distinct keys than NumBlocks.
	ErrFull = errors.New("ringoram: capacity exceeded")
	// ErrStashOverflow is returned when the stash exceeds its configured
	// bound. With canonical parameters (S, A from the Ring ORAM analysis)
	// this does not occur except with negligible probability.
	ErrStashOverflow = errors.New("ringoram: stash overflow")
	// ErrCorrupt indicates a slot that failed authentication or decoding.
	ErrCorrupt = errors.New("ringoram: corrupt slot")
	// ErrReplay indicates a logged replay entry inconsistent with the
	// restored metadata.
	ErrReplay = errors.New("ringoram: replay divergence")
)

// keyEnt is one position-map entry: the leaf a key is mapped to and, while
// the block is resident in the tree, the bucket and real position holding it.
// Entries live in a table in first-write order and are never removed (a
// deleted key keeps its entry, §6.3), so a key's index is stable: full
// checkpoints walk the table in order, which makes their bytes a function of
// the operation history instead of map iteration order.
//
// name is the ORAM's own copy of the key, made when the entry is. It is the
// one string everything long-lived holds for the block — the index map,
// stash entries, placements; bucket addrs hold the entry's index — so a
// caller's key (a carved wire key pins its whole chunk) is never kept past
// the call that handed it over.
type keyEnt struct {
	name   string
	leaf   int32
	bucket int32 // heap index of the bucket holding the block; -1 when not in the tree
	rpos   int32 // real position inside that bucket
	dirty  bool  // remapped since the last ClearDirty
}

// stashEntry is a client-side buffered block. Entries are shared by pointer
// between the stash and in-flight plans so that a completion can deliver a
// block that a later-planned eviction has already placed.
type stashEntry struct {
	key string
	ki  int32 // the key's index in ORAM.keys
	// slot is the block: a pooled slot holding its encodePlain plaintext, the
	// one copy of its value and tombstone flag (nil while pending). An
	// eviction moves it into the image of the bucket the entry is placed in.
	slot      []byte
	leaf      int
	idx       int  // position in ORAM.stashList
	cacheable bool // safe to serve without a dummy path read (§6.3)
	pending   bool // block not yet delivered by a completion
}

// Per-bucket dirty levels for delta checkpoints. Only an eviction's write
// phase changes a bucket's permutation, version and the identity of its
// resident keys; every other mutation clears a valid bit, bumps the slot
// count or blanks a resident key, and a delta can describe it by state alone.
const (
	bucketClean     = 0
	bucketTouched   = 1
	bucketRewritten = 2
)

// ORAM is a Ring ORAM client. Methods are safe for concurrent use, but the
// plan/complete protocol requires completions to be applied in plan order
// (the executor in internal/oramexec enforces this).
type ORAM struct {
	mu  sync.Mutex
	p   Params
	geo Geometry
	cdc codec
	rng *rand.Rand

	keys  []keyEnt         // position map and location index, in first-write order
	pos   map[string]int32 // key -> index into keys
	stash map[string]*stashEntry
	// stashList holds the stash in a deterministic order (insertion order,
	// perturbed by swap-removal): eviction placement and checkpoint encoding
	// walk it instead of the map, so both are a function of the operation
	// history and the seed alone.
	stashList []*stashEntry
	meta      []bucketMeta

	accessCount uint64 // physical batch slots consumed (reads + writes)
	evictCount  uint64

	// Delta tracking since the last ClearDirty: flag arrays plus first-dirtied
	// order lists, reset in place.
	dirtyKeys    []int32 // indices into keys
	bucketDirty  []uint8 // bucketClean / bucketTouched / bucketRewritten
	dirtyBuckets []int32
	stashPeak    int

	// Hot-path scratch, all guarded by mu (planning and completion are
	// serialized per ORAM): the Appendix A binding encoder and a path.
	bindBuf []byte
	pathBuf []int
	// vals carves the values Complete returns: they escape to the caller, so
	// they are copied once into chunks that are never reused.
	vals slab.Bytes
	// images backs the []BucketImage Complete returns.
	images []BucketImage
	// planPool and entryPool recycle the per-step objects. Complete retires
	// its plan (with every slice the plan owns), and an eviction's entries
	// once their blocks have moved into the tree's images. planPool keeps
	// the plans of steps that rewrite buckets apart (planPool[1]), so an
	// access or a write never holds an eviction's Z reads and permutation
	// per bucket. Both guarded by mu.
	planPool  [2][]*Plan
	entryPool []*stashEntry
	// imagePool recycles image buffers, and blocks is the block plane's one
	// allocator (see blocks.go): whoever holds a BucketImage returns both
	// with Recycle once nothing reads the image any more.
	imagePool *sync.Pool
	blocks    *blockPool
	local     localTable // see local.go
	// The block plane's work counts: slots SealImage sealed (those holding a
	// block) and filled (all the others), slots opened under a binding, and
	// plaintext slots copied.
	sealedSlots, filledSlots, openedSlots, copiedSlots atomic.Int64
}

// newPlan takes a retired plan from the pool, keeping the capacity of every
// slice it owns, or allocates a fresh one, and readies it as a step of the
// given kind that reads no path. The steady state cycles the same plans
// instead of allocating one (plus its slices) per step.
func (o *ORAM) newPlan(kind PlanKind) *Plan {
	var p *Plan
	if pool := &o.planPool[kind.pool()]; len(*pool) > 0 {
		n := len(*pool) - 1
		p = (*pool)[n]
		(*pool)[n] = nil
		*pool = (*pool)[:n]
	} else {
		p = new(Plan)
	}
	*p = Plan{Kind: kind, Leaf: -1, Buckets: p.Buckets[:0], Reads: p.Reads[:0], writes: p.writes[:0]}
	return p
}

// newEntry clones v into a pooled stashEntry. Entries go back to the pool,
// zeroed so a free entry pins nothing, when an eviction seals them into the
// tree — the one point where nothing (stash, position map, outstanding plans)
// can still reference them. v.key must be the key table's name.
func (o *ORAM) newEntry(v stashEntry) *stashEntry {
	n := len(o.entryPool)
	if n == 0 {
		e := new(stashEntry)
		*e = v
		return e
	}
	e := o.entryPool[n-1]
	o.entryPool[n-1] = nil
	o.entryPool = o.entryPool[:n-1]
	*e = v
	return e
}

// SlotRead is one physical slot the caller must fetch.
type SlotRead struct {
	Bucket, Slot int
	// Ver is the bucket version the read was planned against: the version
	// whose ciphertext binding applies, or whose plaintext a local read must
	// be served from.
	Ver uint64
	// local marks a read the local-version table serves (see Local).
	local bool
	// entry is the pending stash entry the slot's block is delivered to: the
	// access's target, or a block an eviction reads out of its bucket. nil
	// for a filler.
	entry *stashEntry
}

// Local reports whether the ORAM serves the read from its local-version table
// at completion (see local.go): the caller fetches nothing for it.
func (r SlotRead) Local() bool { return r.local }

// readOf plans a read of slot s of bucket b's current version, local when
// the table serves it.
func (o *ORAM) readOf(b, s int) SlotRead {
	ver := o.meta[b].writeVer
	return SlotRead{Bucket: b, Slot: s, Ver: ver, local: o.local.serves(b, ver)}
}

// PlanKind says which step of the public schedule a Plan is. The values are
// also a batch record's entry kinds (batchlog.go): do not renumber.
type PlanKind uint8

// Plan kinds.
const (
	// AccessStep is a logical read or a padding read: one slot per bucket of
	// one path, or no read at all when the stash serves the key.
	AccessStep PlanKind = iota + 1
	// EvictStep is an evict-path: the next path in reverse-lexicographic
	// order, read and rewritten.
	EvictStep
	// ReshuffleStep is an early reshuffle of one bucket whose dummies ran out.
	ReshuffleStep
	// WriteStep is a dummiless write or a padding bump: it reads nothing and
	// counts one access toward the eviction schedule.
	WriteStep
)

// pool is the plan pool's free list for the kind: 1 for steps that rewrite
// buckets.
func (k PlanKind) pool() int {
	if k == EvictStep || k == ReshuffleStep {
		return 1
	}
	return 0
}

// Plan is one planned step of the schedule: the client-side metadata is
// already mutated, the slots it reads are listed, and Complete applies them.
// A plan and its slices belong to the ORAM's pool again once Complete
// succeeds; callers must not touch it afterwards.
type Plan struct {
	Kind PlanKind
	// Key is the key an access reads; "" for a padding read and for every
	// other step.
	Key string
	// Leaf is the path an access reads (-1 when it reads none).
	Leaf int
	// Buckets lists the buckets an evict-path or a reshuffle rewrites, in
	// read order.
	Buckets []int
	// Reads lists the physical slots to fetch: an access's root to leaf, an
	// eviction's bucket by bucket in Buckets order, each bucket's reads one
	// contiguous run (at most Z, fewer only when a bucket ran out of filler
	// slots).
	Reads []SlotRead

	entry     *stashEntry     // the block an access returns: its target read's, or the stash's
	writes    []plannedBucket // an eviction's, parallel to Buckets
	completed bool
}

// plannedBucket is the write-phase plan for one bucket. Its i-th placed
// block goes to real position i.
type plannedBucket struct {
	bucket int
	ver    uint64
	perm   []int
	placed []*stashEntry
}

// New creates an ORAM client over a fresh tree and does no I/O: every bucket
// gets fresh metadata (empty real positions, a random permutation), drawn in
// heap order from the seeded generator. The caller stores each bucket as
// SealFresh seals it before anything reads the tree. key may be nil only when
// p.DisableEncryption is set.
func New(key *cryptoutil.Key, p Params) (*ORAM, error) {
	o, err := newClient(key, p)
	if err != nil {
		return nil, err
	}
	for b := range o.meta {
		m := &o.meta[b]
		o.shuffle(m.perm)
		m.writeVer = 1
		m.rewrite(0)
	}
	return o, nil
}

func newClient(key *cryptoutil.Key, p Params) (*ORAM, error) {
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
	seed := p.Seed
	var src rand.Source
	if seed != 0 {
		src = rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	} else {
		src = rand.NewPCG(rand.Uint64(), rand.Uint64())
	}
	o := &ORAM{
		p:           p,
		geo:         geo,
		cdc:         codec{keySize: p.KeySize, valueSize: p.ValueSize, key: key},
		rng:         rand.New(src),
		pos:         make(map[string]int32),
		stash:       make(map[string]*stashEntry),
		meta:        make([]bucketMeta, geo.NumBuckets),
		bucketDirty: make([]uint8, geo.NumBuckets),
	}
	// One slab per metadata array instead of three slices per bucket.
	n, z, nw := geo.SlotsPer, p.Z, metaWords(geo.SlotsPer, p.Z)
	perms := make([]int, geo.NumBuckets*n)
	addrs := make([]int32, geo.NumBuckets*z)
	for i := range addrs {
		addrs[i] = -1
	}
	words := make([]uint64, geo.NumBuckets*nw)
	for b := range o.meta {
		o.meta[b] = bucketMeta{
			perm:  perms[b*n : (b+1)*n : (b+1)*n],
			addrs: addrs[b*z : (b+1)*z : (b+1)*z],
			words: words[b*nw : (b+1)*nw : (b+1)*nw],
		}
	}
	o.bindBuf = make([]byte, 0, cryptoutil.BindingSize)
	o.pathBuf = make([]int, 0, geo.Levels+1)
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
func (o *ORAM) Geometry() Geometry { return o.geo }

// SlotSize returns the physical slot size in bytes.
func (o *ORAM) SlotSize() int { return o.cdc.slotSize() }

// Counters returns (accessCount, evictCount).
func (o *ORAM) Counters() (uint64, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.accessCount, o.evictCount
}

// StashSize returns the current number of stash entries.
func (o *ORAM) StashSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.stash)
}

// StashPeak returns the high-water mark of the stash.
func (o *ORAM) StashPeak() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stashPeak
}

// PathBuckets returns the buckets on the path from the root to leaf, root
// first: the buckets a logged access to leaf names slots of.
func (o *ORAM) PathBuckets(leaf int) []int {
	if leaf < 0 || leaf >= o.geo.Leaves {
		return nil
	}
	return o.geo.path(leaf)
}

// NextEvictPath returns the buckets the next evict-path operation will
// touch (a pure function of the eviction counter).
func (o *ORAM) NextEvictPath() []int {
	o.mu.Lock()
	leaf := o.geo.evictLeaf(o.evictCount)
	o.mu.Unlock()
	return o.geo.path(leaf)
}

// KeyCount returns the number of allocated logical keys.
func (o *ORAM) KeyCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.keys)
}

func (o *ORAM) randLeaf() int { return o.rng.IntN(o.geo.Leaves) }

// addKey allocates key's position-map entry, with a copy of key as its name.
func (o *ORAM) addKey(key string) int32 {
	i := int32(len(o.keys))
	name := strings.Clone(key)
	o.keys = append(o.keys, keyEnt{name: name, bucket: -1})
	o.pos[name] = i
	return i
}

// remap points key at leaf, allocating its position-map entry on first
// write, and records the change for the next delta checkpoint. It returns
// the key's index in the table.
func (o *ORAM) remap(key string, leaf int) int32 {
	i, ok := o.pos[key]
	if !ok {
		i = o.addKey(key)
	}
	k := &o.keys[i]
	k.leaf = int32(leaf)
	if !k.dirty {
		k.dirty = true
		o.dirtyKeys = append(o.dirtyKeys, i)
	}
	return i
}

// stashAdd inserts e into the stash.
func (o *ORAM) stashAdd(e *stashEntry) {
	e.idx = len(o.stashList)
	o.stashList = append(o.stashList, e)
	o.stash[e.key] = e
}

// stashRemove deletes e from the stash, moving the last entry into its place.
func (o *ORAM) stashRemove(e *stashEntry) {
	last := len(o.stashList) - 1
	moved := o.stashList[last]
	o.stashList[e.idx] = moved
	moved.idx = e.idx
	o.stashList[last] = nil
	o.stashList = o.stashList[:last]
	delete(o.stash, e.key)
}

// markBucket raises bucket b's dirty level for the next delta checkpoint.
func (o *ORAM) markBucket(b int, level uint8) {
	if o.bucketDirty[b] == bucketClean {
		o.dirtyBuckets = append(o.dirtyBuckets, int32(b))
	}
	if o.bucketDirty[b] < level {
		o.bucketDirty[b] = level
	}
}

// scratchPath returns the root-first path to leaf in mu-guarded scratch,
// valid until the next call.
func (o *ORAM) scratchPath(leaf int) []int {
	o.pathBuf = o.geo.appendPath(o.pathBuf[:0], leaf)
	return o.pathBuf
}

// takeFiller draws a filler position of m uniformly — the k-th member of
// its filler set for the draw k, which is the position the ascending list of
// fillers held at index k — consumes its slot and returns the slot, or -1
// (drawing nothing) when m has no filler left.
func (o *ORAM) takeFiller(m *bucketMeta) int {
	fillers := m.filler()
	n := fillers.len()
	if n == 0 {
		return -1
	}
	pos := fillers.nth(o.rng.IntN(n))
	m.consume(pos)
	return m.perm[pos]
}

// consumeFiller invalidates and returns a filler slot of bucket b, honoring
// a forced physical slot during replay (forced < 0 means choose randomly).
func (o *ORAM) consumeFiller(b int, forced int) (int, error) {
	m := &o.meta[b]
	if forced >= 0 {
		if forced >= o.geo.SlotsPer || !m.valid().has(forced) {
			return 0, fmt.Errorf("%w: bucket %d slot %d not a valid filler", ErrReplay, b, forced)
		}
		pos := slices.Index(m.perm, forced)
		if pos < o.p.Z && m.occ().has(pos) {
			return 0, fmt.Errorf("%w: bucket %d slot %d holds a real block", ErrReplay, b, forced)
		}
		m.consume(pos)
		o.markBucket(b, bucketTouched)
		return forced, nil
	}
	phys := o.takeFiller(m)
	if phys < 0 {
		// Cannot happen when early reshuffles run on schedule; treated as
		// an internal invariant violation.
		return 0, fmt.Errorf("ringoram: bucket %d has no valid filler slot (count=%d)", b, m.count)
	}
	o.markBucket(b, bucketTouched)
	return phys, nil
}

func (o *ORAM) noteStash() error {
	if len(o.stash) > o.stashPeak {
		o.stashPeak = len(o.stash)
	}
	if len(o.stash) > o.p.StashLimit {
		return fmt.Errorf("%w: %d entries exceed limit %d", ErrStashOverflow, len(o.stash), o.p.StashLimit)
	}
	return nil
}

// The schedule is Ring ORAM's own rule, and this file is the one place that
// knows it (due): every access reads one path; after it, each bucket on that
// path whose dummies ran out (S slots read since its last rewrite) gets an
// early reshuffle, root first; then an evict-path runs for every A accesses
// the counter owes, a write or a padding bump counting as one access. PlanRead
// and PlanWrite append an operation's access and then, in that order, every
// step it made due; Replay (batchlog.go) takes the steps one log entry at a
// time and refuses any the schedule does not owe.

// PlanRead plans a logical read of key, or a padding read (a uniformly random
// path, one filler slot per bucket) when key is "". It appends the access to
// dst, then every step it makes due, and returns the extended slice. An access
// the stash serves reads no slot. On error dst holds the steps planned before
// it.
func (o *ORAM) PlanRead(key string, dst []*Plan) ([]*Plan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, err := o.planReadLocked(key, -1, nil)
	if err != nil {
		return dst, err
	}
	return o.planDue(append(dst, p), p.Reads)
}

// PlanWrite applies a logical write (or delete, when tombstone is set) as a
// dummiless write (§6.3): the block goes directly to the stash, so the step
// reads nothing. key "" is a padding bump, which only counts the access
// (keeping the eviction schedule workload independent). Either way it appends
// the write step to dst, then every evict-path it makes due.
func (o *ORAM) PlanWrite(key string, value []byte, tombstone bool, dst []*Plan) ([]*Plan, error) {
	if len(key) > o.p.KeySize {
		return dst, fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(key), o.p.KeySize)
	}
	if len(value) > o.p.ValueSize {
		return dst, fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(value), o.p.ValueSize)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p, err := o.planWriteLocked(key, value, tombstone)
	if err != nil {
		return dst, err
	}
	return o.planDue(append(dst, p), nil)
}

// planDue appends every step the schedule owes after an access that read
// path, in the order nextDue plans them.
func (o *ORAM) planDue(dst []*Plan, path []SlotRead) ([]*Plan, error) {
	for {
		p, rest, err := o.nextDue(path)
		if p == nil || err != nil {
			return dst, err
		}
		dst, path = append(dst, p), rest
	}
}

// nextDue plans the next step the schedule owes after an access that read
// path (see due). It returns the plan (nil when nothing is owed) and the part
// of path after the reshuffled bucket.
func (o *ORAM) nextDue(path []SlotRead) (*Plan, []SlotRead, error) {
	kind, bucket, rest := o.due(path)
	if kind == 0 {
		return nil, nil, nil
	}
	p, err := o.planEvictionLocked(kind, bucket, nil)
	return p, rest, err
}

// due names the next step the schedule owes after an access that read path:
// an early reshuffle of the first bucket on it whose slot budget is
// exhausted, else an evict-path if the access counter owes one, else none
// (kind 0). It returns the step's kind, the bucket a reshuffle rewrites, and
// the part of path after it.
func (o *ORAM) due(path []SlotRead) (PlanKind, int, []SlotRead) {
	for i, r := range path {
		if o.meta[r.Bucket].count >= o.p.S {
			return ReshuffleStep, r.Bucket, path[i+1:]
		}
	}
	if o.accessCount >= uint64(o.p.A)*(o.evictCount+1) {
		return EvictStep, 0, nil
	}
	return 0, 0, nil
}

func (o *ORAM) planReadLocked(key string, forcedLeaf int, forcedSlots []int) (*Plan, error) {
	// Stash hit.
	if key != "" {
		if e, ok := o.stash[key]; ok {
			e.leaf = o.randLeaf() // remap on every logical access
			o.remap(key, e.leaf)
			if e.cacheable && forcedSlots == nil {
				p := o.newPlan(AccessStep)
				p.Key, p.entry = key, e
				return p, nil
			}
			// Non-cacheable resident block: a dummy path read is mandatory
			// to keep the observed path distribution uniform (§6.3). After
			// this logical access the entry is uniformly remapped, hence
			// cacheable again.
			e.cacheable = true
			p, err := o.dummyPathLocked(key, forcedLeaf, forcedSlots)
			if err != nil {
				return nil, err
			}
			p.entry = e
			return p, nil
		}
	}

	if ki, known := o.pos[key]; known && o.keys[ki].bucket >= 0 {
		oldLeaf, bucket, rpos := int(o.keys[ki].leaf), int(o.keys[ki].bucket), int(o.keys[ki].rpos)
		if forcedLeaf >= 0 && forcedLeaf != oldLeaf {
			return nil, fmt.Errorf("%w: key %q logged leaf %d, position map says %d", ErrReplay, key, forcedLeaf, oldLeaf)
		}
		path := o.scratchPath(oldLeaf)
		p := o.newPlan(AccessStep)
		p.Key, p.Leaf = key, oldLeaf
		e := o.newEntry(stashEntry{key: o.keys[ki].name, ki: ki, cacheable: true, pending: true})
		for lvl, b := range path {
			m := &o.meta[b]
			var forced = -1
			if forcedSlots != nil && !o.local.rewritten(b) {
				forced = forcedSlots[lvl]
			}
			if b == bucket {
				phys := m.perm[rpos]
				if forced >= 0 && forced != phys {
					return nil, fmt.Errorf("%w: key %q logged slot %d in bucket %d, metadata says %d", ErrReplay, key, forced, b, phys)
				}
				if !m.valid().has(phys) {
					return nil, fmt.Errorf("ringoram: occupied real slot invalid (bucket %d pos %d)", b, rpos)
				}
				// An occupied position is no filler, and with its slot read it
				// does not become one.
				m.valid().unset(phys)
				m.count++
				m.addrs[rpos] = -1
				m.occ().unset(rpos)
				o.markBucket(b, bucketTouched)
				p.entry = e
				p.Reads = append(p.Reads, o.readOf(b, phys))
				p.Reads[len(p.Reads)-1].entry = e
				continue
			}
			phys, err := o.consumeFiller(b, forced)
			if err != nil {
				return nil, err
			}
			p.Reads = append(p.Reads, o.readOf(b, phys))
		}
		if p.entry == nil {
			return nil, fmt.Errorf("ringoram: key %q resides in bucket %d, off its path (leaf %d)", key, bucket, oldLeaf)
		}
		o.keys[ki].bucket = -1
		o.stashAdd(e)
		e.leaf = o.randLeaf()
		o.remap(key, e.leaf)
		o.accessCount++
		if err := o.noteStash(); err != nil {
			return nil, err
		}
		return p, nil
	}

	// Unknown key (or explicit padding): pure dummy path read.
	return o.dummyPathLocked(key, forcedLeaf, forcedSlots)
}

// dummyPathLocked plans an access of key that reads one filler slot per
// bucket along a path: leaf's, or a uniformly random one when leaf < 0.
func (o *ORAM) dummyPathLocked(key string, leaf int, forcedSlots []int) (*Plan, error) {
	if leaf < 0 {
		leaf = o.randLeaf()
	}
	p := o.newPlan(AccessStep)
	p.Key, p.Leaf = key, leaf
	for lvl, b := range o.scratchPath(leaf) {
		forced := -1
		if forcedSlots != nil && !o.local.rewritten(b) {
			forced = forcedSlots[lvl]
		}
		phys, err := o.consumeFiller(b, forced)
		if err != nil {
			return nil, err
		}
		p.Reads = append(p.Reads, o.readOf(b, phys))
	}
	o.accessCount++
	return p, nil
}

// planWriteLocked plans a write step: the block into the stash unless key is
// "", and one access counted either way.
func (o *ORAM) planWriteLocked(key string, value []byte, tombstone bool) (*Plan, error) {
	if key != "" {
		if err := o.writeLocked(key, value, tombstone); err != nil {
			return nil, err
		}
	}
	o.accessCount++
	return o.newPlan(WriteStep), nil
}

// writeLocked puts a written block into the stash.
func (o *ORAM) writeLocked(key string, value []byte, tombstone bool) error {
	if _, known := o.pos[key]; !known {
		if len(o.keys) >= o.p.NumBlocks {
			return fmt.Errorf("%w: %d keys", ErrFull, len(o.keys))
		}
	}
	newLeaf := o.randLeaf()
	ki := o.remap(key, newLeaf)
	k := &o.keys[ki]
	e, ok := o.stash[key]
	if ok {
		if e.pending { // a block a planned read has yet to deliver: superseded
			e.slot = o.blocks.take()
		}
		e.leaf = newLeaf
		e.cacheable = true
		e.pending = false
	} else {
		if k.bucket >= 0 {
			// Logically remove the stale tree copy without reading it: the
			// slot keeps its (now meaningless) ciphertext and becomes valid
			// filler (an occupied slot is always valid).
			m := &o.meta[k.bucket]
			m.addrs[k.rpos] = -1
			m.occ().unset(int(k.rpos))
			m.filler().set(int(k.rpos))
			o.markBucket(int(k.bucket), bucketTouched)
			k.bucket = -1
		}
		e = o.newEntry(stashEntry{key: k.name, ki: ki, slot: o.blocks.take(), leaf: newLeaf, cacheable: true})
		o.stashAdd(e)
	}
	kind := byte(slotReal)
	if tombstone {
		kind = slotTombstone
	}
	if err := o.cdc.encodePlain(e.slot, kind, block{key: e.key, value: value}); err != nil {
		return err
	}
	return o.noteStash()
}

// Complete applies a step's fetched slots, in plan order: it delivers every
// read that carries a pending block, then returns the access's value, or the
// images of the bucket versions an eviction writes. A write step completes
// with nothing. data must be parallel to p.Reads: a sealed slot from storage,
// nil for a Local read, which the local-version table serves. Only the slots
// that carry a block are ever inspected: a filler's entry may be nil, which
// is what lets a caller that knows where a bucket's blocks sit skip fetching
// the rest.
//
// The value is the caller's to keep: a capacity-clipped copy carved by a
// slab.Bytes. With the local-version table on, an eviction files its images
// there and returns none; otherwise the caller keeps them until it seals them
// (SealImage) or a later rewrite supersedes them. The returned slice is the
// ORAM's scratch, valid until the next Complete: keep the images by value.
//
// Completion is the plan's death in every caller: it goes back to the pool on
// success. An error leaves it out of the pool so the caller can inspect it.
func (o *ORAM) Complete(p *Plan, data [][]byte) (value []byte, found bool, images []BucketImage, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if p.completed {
		return nil, false, nil, errors.New("ringoram: plan completed twice")
	}
	p.completed = true
	if len(data) != len(p.Reads) {
		return nil, false, nil, fmt.Errorf("ringoram: %d slots delivered, plan has %d", len(data), len(p.Reads))
	}
	if err := o.local.check(p.Reads); err != nil {
		return nil, false, nil, err
	}
	for i, r := range p.Reads {
		if r.entry == nil || !r.entry.pending {
			continue
		}
		if err := o.deliver(r, data[i], r.entry); err != nil {
			return nil, false, nil, err
		}
	}
	switch p.Kind {
	case AccessStep:
		value, found, err = o.accessResult(p.entry)
	case EvictStep, ReshuffleStep:
		images, err = o.writeImages(p)
	}
	if err == nil {
		p.Key, p.entry = "", nil
		pool := &o.planPool[p.Kind.pool()]
		*pool = append(*pool, p)
	}
	return value, found, images, err
}

// accessResult resolves an access's logical result from the block it
// returns: none for an unknown key or padding.
func (o *ORAM) accessResult(e *stashEntry) ([]byte, bool, error) {
	if e == nil {
		return nil, false, nil
	}
	if e.pending {
		return nil, false, errors.New("ringoram: completion out of order: entry still pending")
	}
	blk, err := o.stashBlock(e)
	if err != nil || blk.tombstone {
		return nil, false, err
	}
	return o.vals.Copy(blk.value), true, nil
}

// stashBlock decodes the block a delivered stash entry's slot holds.
func (o *ORAM) stashBlock(e *stashEntry) (block, error) {
	_, blk, err := o.cdc.parse(e.slot)
	if err != nil {
		return block{}, fmt.Errorf("%w: stash entry %q: %v", ErrCorrupt, e.key, err)
	}
	return blk, nil
}

// deliver moves the block a read fetched into a pooled slot, the read's
// pending stash entry's. A local read is served from the local-version table
// and copied into the slot; a remote read's data is opened straight into it
// under the (bucket, version) binding it was planned against. Either must
// hold the entry's key.
func (o *ORAM) deliver(r SlotRead, data []byte, e *stashEntry) error {
	slot := o.blocks.take()
	var plain []byte
	var err error
	if r.local {
		plain, err = o.local.serve(r)
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
	case err == nil && string(blk.keyB) != e.key:
		err = fmt.Errorf("holds key %q, want %q", blk.keyB, e.key)
	}
	if err != nil {
		o.blocks.put(slot)
		return fmt.Errorf("%w: bucket %d slot %d: %v", ErrCorrupt, r.Bucket, r.Slot, err)
	}
	if r.local {
		copy(slot, plain)
		o.copiedSlots.Add(1)
	}
	e.slot, e.pending = slot, false
	return nil
}

// shuffle fills perm with a fresh uniform permutation of 0..len(perm)-1 in
// place, drawing from the ORAM's generator exactly as rand.Perm does, so a
// seeded run keeps its stream.
func (o *ORAM) shuffle(perm []int) {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := o.rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// planEvictionLocked plans the read and write phases of the next evict-path
// (kind EvictStep: the full path, deepest placement first) or of an early
// reshuffle of bucket (kind ReshuffleStep). forcedSlots, when non-nil,
// dictates the physical slots of the read phase (recovery replay).
//
// The planner runs once per A accesses over L+1 buckets, so everything it
// needs — the plan, its slices, each planned bucket's permutation copy and
// placements — comes from the plan pool, and the new permutation is drawn in
// place: the steady state allocates nothing here.
func (o *ORAM) planEvictionLocked(kind PlanKind, bucket int, forcedSlots [][]int) (*Plan, error) {
	plan := o.newPlan(kind)
	isEvict := kind == EvictStep
	if isEvict {
		plan.Buckets = o.geo.appendPath(plan.Buckets, o.geo.evictLeaf(o.evictCount))
	} else {
		plan.Buckets = append(plan.Buckets, bucket)
	}
	buckets := plan.Buckets

	// Read phase: every valid occupied real block, padded with fillers to Z
	// reads per bucket. Blocks move to the stash as pending entries.
	for bi, b := range buckets {
		m := &o.meta[b]
		start := len(plan.Reads)
		var forced []int
		if forcedSlots != nil && !o.local.rewritten(b) {
			forced = forcedSlots[bi]
		}
		var forcedUsed map[int]bool
		if forced != nil {
			forcedUsed = make(map[int]bool, len(forced))
		}
		// Occupied reals first, in position order.
		valid, occ := m.valid(), m.occ()
		for i, w := range occ {
			for ; w != 0; w &= w - 1 {
				r := i<<6 + bits.TrailingZeros64(w)
				phys := m.perm[r]
				if !valid.has(phys) {
					return nil, fmt.Errorf("ringoram: occupied real slot invalid (bucket %d pos %d)", b, r)
				}
				if forced != nil {
					if !slices.Contains(forced, phys) {
						return nil, fmt.Errorf("%w: logged eviction misses real slot %d of bucket %d", ErrReplay, phys, b)
					}
					forcedUsed[phys] = true
				}
				valid.unset(phys)
				m.count++
				ki := m.addrs[r]
				m.addrs[r] = -1
				occ.unset(r)
				k := &o.keys[ki]
				k.bucket = -1
				e := o.newEntry(stashEntry{key: k.name, ki: ki, leaf: int(k.leaf), pending: true})
				o.stashAdd(e)
				plan.Reads = append(plan.Reads, o.readOf(b, phys))
				plan.Reads[len(plan.Reads)-1].entry = e
			}
		}
		// Pad with fillers.
		if forced != nil {
			for _, s := range forced {
				if forcedUsed[s] {
					continue
				}
				phys, err := o.consumeFiller(b, s)
				if err != nil {
					return nil, err
				}
				plan.Reads = append(plan.Reads, o.readOf(b, phys))
			}
		} else {
			// A bucket may run out (a short read phase; harmless and rare).
			for len(plan.Reads)-start < o.p.Z {
				phys := o.takeFiller(m)
				if phys < 0 {
					break
				}
				plan.Reads = append(plan.Reads, o.readOf(b, phys))
			}
		}
		o.markBucket(b, bucketTouched)
	}
	if err := o.noteStash(); err != nil {
		return nil, err
	}

	// Write phase planning: place stash blocks as deep as possible. Writes
	// are parallel to Buckets (root first); an evict-path fills them bottom-up.
	if cap(plan.writes) < len(buckets) {
		plan.writes = append(plan.writes[:cap(plan.writes)], make([]plannedBucket, len(buckets)-cap(plan.writes))...)
	}
	plan.writes = plan.writes[:len(buckets)]
	for n := range buckets {
		wi := n
		if isEvict {
			wi = len(buckets) - 1 - n // deepest first
		}
		b := buckets[wi]
		lvl := bucketLevel(b)
		pb := &plan.writes[wi]
		pb.bucket, pb.placed = b, pb.placed[:0]
		for i := 0; i < len(o.stashList) && len(pb.placed) < o.p.Z; {
			e := o.stashList[i]
			if o.geo.pathBucket(e.leaf, lvl) != b {
				i++
				continue
			}
			pb.placed = append(pb.placed, e)
			o.stashRemove(e) // moves the last entry to i: look at i again
		}
		m := &o.meta[b]
		o.shuffle(m.perm)
		m.count = 0
		m.writeVer++
		for r := range m.addrs {
			m.addrs[r] = -1
		}
		for r, e := range pb.placed {
			m.addrs[r] = e.ki
			k := &o.keys[e.ki]
			k.bucket, k.rpos = int32(b), int32(r)
		}
		m.rewrite(len(pb.placed))
		pb.ver = m.writeVer
		o.local.claim(b, pb.ver)
		// A later plan may rewrite this bucket (and m.perm, in place) before
		// this one completes: the plan keeps its own copy.
		pb.perm = append(pb.perm[:0], m.perm...)
		o.markBucket(b, bucketRewritten)
	}
	if isEvict {
		o.evictCount++
		// Whatever could not be flushed is skewed away from recent evict
		// paths; serving it without a dummy read would leak (§6.3).
		for _, e := range o.stashList {
			e.cacheable = false
		}
	}
	return plan, nil
}

// writeImages makes the image of every bucket version an eviction writes and
// retires the entries whose blocks moved into them.
func (o *ORAM) writeImages(p *Plan) ([]BucketImage, error) {
	// Every placed block must be delivered before any moves into an image:
	// an earlier plan's completion delivered it, or this plan's just did.
	for i := range p.writes {
		for _, e := range p.writes[i].placed {
			if e.pending {
				return nil, fmt.Errorf("ringoram: writing bucket %d: block %q still pending (completion order violated)", p.writes[i].bucket, e.key)
			}
		}
	}
	images := o.images[:0]
	for i := range p.writes {
		im := o.imageOf(&p.writes[i])
		if o.local.versions != nil {
			o.local.keep(im.Bucket, localVer{ver: im.Ver, buf: im.buf})
			continue
		}
		images = append(images, im)
	}
	o.images = images
	// The placed entries left the stash when the write phase planned them and
	// their slots have moved into the images: recycle the entries.
	// Plan-ordered completion means no earlier plan still references them, and
	// any later access finds the key in the tree, not in these entries.
	for i := range p.writes {
		for _, e := range p.writes[i].placed {
			*e = stashEntry{}
			o.entryPool = append(o.entryPool, e)
		}
	}
	return images, nil
}
