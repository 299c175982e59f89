package ringoram

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"obladi/internal/cryptoutil"
	"obladi/internal/slab"
)

// Store is the slot-granularity storage interface the ORAM client drives.
// Implementations decide how writes map onto shadow-paged epochs. A store
// must not retain the slots WriteBucket is handed: the ORAM reuses their
// bytes once the call returns.
type Store interface {
	ReadSlot(bucket, slot int) ([]byte, error)
	WriteBucket(bucket int, slots [][]byte) error
}

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

// bucketMeta is the client-side metadata for one bucket.
type bucketMeta struct {
	perm     []int    // perm[pos] = physical slot; pos < Z real, else dummy
	addrs    []string // addrs[r]: key at real position r ("" = empty)
	valid    []bool   // indexed by physical slot
	count    int      // slots consumed since last write
	writeVer uint64   // bumped on every rewrite; binds slot ciphertexts
}

// keyEnt is one position-map entry: the leaf a key is mapped to and, while
// the block is resident in the tree, the bucket and real position holding it.
// Entries live in a table in first-write order and are never removed (a
// deleted key keeps its entry, §6.3), so a key's index is stable: full
// checkpoints walk the table in order, which makes their bytes a function of
// the operation history instead of map iteration order.
type keyEnt struct {
	name   string
	leaf   int32
	bucket int32 // heap index of the bucket holding the block; -1 when not in the tree
	rpos   int32 // real position inside that bucket
	dirty  bool  // remapped since the last ClearDirty
}

// stashEntry is a client-side buffered block. Entries are shared by pointer
// between the stash and in-flight plans so that a completion can deliver a
// value to a block that a later-planned eviction has already placed.
type stashEntry struct {
	key       string
	value     []byte
	tombstone bool
	leaf      int
	idx       int  // position in ORAM.stashList
	cacheable bool // safe to serve without a dummy path read (§6.3)
	pending   bool // value not yet delivered by a completion
	arenaVal  bool // value is a slab owned by the ORAM's value arena
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

	// Hot-path scratch, all guarded by mu (planning, completion and sealing
	// are serialized per ORAM): codec plaintext buffers for seal and open,
	// the Appendix A binding encoder, and the seal occupancy index.
	encPlain  []byte
	decPlain  []byte
	bindBuf   []byte
	occ       []*placement
	fillerBuf []int
	pathBuf   []int
	varena    valArena
	// vals carves the values CompleteAccess returns: they escape to the
	// caller, so they are copied once into chunks that are never reused.
	vals slab.Bytes
	// writeBuf backs the []BucketWrite CompleteEvict returns.
	writeBuf []BucketWrite
	// planPool, evictPool and entryPool recycle the per-access and
	// per-eviction objects. CompleteAccess and CompleteEvict retire their
	// plans (with every slice the plan owns); CompleteEvict also retires
	// entries once the seal writes them back into the tree. All guarded by mu.
	planPool  []*AccessPlan
	evictPool []*EvictPlan
	entryPool []*stashEntry
	// bufPool recycles bucket serialization buffers (one contiguous
	// ciphertext arena + per-slot headers): whoever holds a BucketWrite
	// returns its buffer with Recycle once nothing reads the slots any more
	// (a store copies what it keeps). realPool is the same for the Z-slot
	// buffers of buckets sealed without dummies.
	bufPool, realPool *sync.Pool
	// realOnly is how many buckets, from the root in heap order, are sealed as
	// their Z real positions alone (see SealRealOnly).
	realOnly int
}

// bucketBuf is a pooled serialization buffer for one bucket: a contiguous
// ciphertext arena subsliced into per-slot frames.
type bucketBuf struct {
	arena []byte
	slots [][]byte
	pool  *sync.Pool
}

// valArenaChunk sizes the value arena's carve chunks (at least one slab).
const valArenaChunk = 64 << 10

// valArena owns the stash's values, decoded or written: fixed-capacity slabs
// carved from large chunks and recycled through a free list when their stash
// entry is sealed back into the tree, so neither the steady-state read path
// nor a write allocates per value. All access is guarded by the ORAM's mu.
// Slabs never shrink the value-size bound, so a recycled slab fits any future
// value.
type valArena struct {
	slab  int // slab capacity (== ValueSize)
	chunk []byte
	free  [][]byte
}

// take returns an empty slab with cap >= a.slab.
func (a *valArena) take() []byte {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b[:0]
	}
	if len(a.chunk) < a.slab || a.slab == 0 {
		n := valArenaChunk
		if n < a.slab {
			n = a.slab
		}
		a.chunk = make([]byte, n)
	}
	b := a.chunk[0:0:a.slab]
	a.chunk = a.chunk[a.slab:]
	return b
}

// copyVal clones v into an arena slab.
func (a *valArena) copyVal(v []byte) []byte { return append(a.take(), v...) }

// release returns a slab for reuse. Only slabs handed out by take/copyVal may
// be released; entry.arenaVal is the callers' ownership tag.
func (a *valArena) release(b []byte) { a.free = append(a.free, b) }

// releaseEntryVal recycles an entry's arena slab (if it owns one) before its
// value is replaced or dropped.
func (o *ORAM) releaseEntryVal(e *stashEntry) {
	if e.arenaVal {
		o.varena.release(e.value)
		e.arenaVal = false
	}
	e.value = nil
}

// setEntryVal replaces an entry's value with an arena copy of v.
func (o *ORAM) setEntryVal(e *stashEntry, v []byte) {
	o.releaseEntryVal(e)
	e.value, e.arenaVal = o.varena.copyVal(v), true
}

// newPlan takes a retired AccessPlan from the pool (keeping its Reads
// capacity) or allocates a fresh one, zeroed either way. The steady-state
// read path cycles the same handful of plans instead of allocating one (plus
// a Reads slice) per access.
func (o *ORAM) newPlan() *AccessPlan {
	n := len(o.planPool)
	if n == 0 {
		return &AccessPlan{}
	}
	p := o.planPool[n-1]
	o.planPool[n-1] = nil
	o.planPool = o.planPool[:n-1]
	*p = AccessPlan{Reads: p.Reads[:0]}
	return p
}

// newEntry clones v into a pooled stashEntry. Entries go back to the pool
// when an eviction seals them into the tree — the one point where nothing
// (stash, position map, outstanding plans) can still reference them.
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
	// Ver is the bucket version whose ciphertext binding applies.
	Ver uint64
	// target marks the slot holding the access's block.
	target bool
	// entry receives the decoded block for eviction/reshuffle reads.
	entry *stashEntry
}

// AccessPlan is the outcome of planning one logical access.
type AccessPlan struct {
	Key string
	// Leaf is the path read by this access (-1 when no path is read).
	Leaf int
	// Reads lists the physical slots to fetch, root to leaf.
	Reads []SlotRead

	cached      bool // served locally, no I/O
	cachedEntry *stashEntry
	targetIdx   int
	targetEntry *stashEntry
	completed   bool
}

// Cached reports whether the plan requires no storage reads.
func (p *AccessPlan) Cached() bool { return p == nil || p.cached }

// BucketWrite is one serialized bucket the caller must write back. Slots
// subslice one contiguous pooled arena, which the caller owns until it calls
// Recycle.
type BucketWrite struct {
	Bucket int
	Ver    uint64
	Slots  [][]byte
	// Real lists the physical slots holding the blocks this version placed;
	// every other slot is filler (a dummy or an empty real). It is the
	// eviction plan's scratch, valid until the next CompleteEvict: copy to keep.
	// In a bucket sealed without dummies (SealRealOnly) Slots is indexed by real
	// position, and the block at physical slot Real[i] is Slots[i].
	Real []int

	buf *bucketBuf
}

// Recycle returns the write's backing arena to the ORAM's buffer pool, for
// the next seal to overwrite. Call it once nothing reads Slots any more: the
// write was superseded or discarded before it reached storage, or the store
// call that wrote it returned (a store copies what it keeps, so a flushed
// write is the caller's again) and no local read is still served from it.
// Safe to call more than once; Slots must not be used afterwards, and in race
// builds the arena is poisoned so a read of it fails authentication instead
// of passing with stale bytes.
func (w *BucketWrite) Recycle() {
	if b := w.buf; b != nil {
		w.buf = nil
		w.Slots = nil
		poison(b.arena)
		b.pool.Put(b)
	}
}

// placement records a block assigned to a bucket by an eviction write phase.
type placement struct {
	key   string
	pos   int
	entry *stashEntry
}

// plannedBucket is the write-phase plan for one bucket.
type plannedBucket struct {
	bucket int
	ver    uint64
	perm   []int
	placed []placement
	real   []int // physical slots of placed, filled by the seal
}

// EvictPlan is the outcome of planning an evict-path or early reshuffle. A
// plan and its slices belong to the ORAM's pool again once CompleteEvict
// succeeds; callers must not touch it afterwards.
type EvictPlan struct {
	// Buckets lists the buckets rewritten, in read order.
	Buckets []int
	// Reads lists all physical slot reads of the read phase, bucket by
	// bucket in Buckets order: each bucket's reads are one contiguous run
	// (at most Z, fewer only when a bucket ran out of filler slots).
	Reads []SlotRead

	writes    []plannedBucket // parallel to Buckets
	completed bool
}

// newEvictPlan takes a retired EvictPlan from the pool, keeping the capacity
// of every slice it owns, or allocates a fresh one.
func (o *ORAM) newEvictPlan() *EvictPlan {
	n := len(o.evictPool)
	if n == 0 {
		return &EvictPlan{}
	}
	p := o.evictPool[n-1]
	o.evictPool[n-1] = nil
	o.evictPool = o.evictPool[:n-1]
	p.Buckets, p.Reads, p.writes = p.Buckets[:0], p.Reads[:0], p.writes[:0]
	p.completed = false
	return p
}

// New creates an ORAM with freshly initialized buckets written to store.
// key may be nil only when p.DisableEncryption is set. The first realOnly
// buckets are written as SealRealOnly writes them, from this first write on;
// 0 writes every bucket whole.
func New(store Store, key *cryptoutil.Key, p Params, realOnly int) (*ORAM, error) {
	o, err := newClient(key, p)
	if err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("ringoram: nil store")
	}
	o.realOnly = realOnly
	// Initialize every bucket: empty reals + dummies, fresh permutations.
	// Parallel workers keep setup tolerable for latency-injected stores.
	const workers = 16
	jobs := make(chan BucketWrite)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := store.WriteBucket(j.Bucket, j.Slots); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				j.Recycle() // the store copied it
			}
		}()
	}
	var initErr error
	for b := 0; b < o.geo.NumBuckets; b++ {
		o.meta[b] = o.freshMeta()
		w, err := o.sealBucket(b, o.meta[b], nil)
		if err != nil {
			initErr = err
			break
		}
		jobs <- w
	}
	close(jobs)
	wg.Wait()
	close(errs)
	if initErr == nil {
		initErr = <-errs
	}
	if initErr != nil {
		return nil, fmt.Errorf("ringoram: initializing tree: %w", initErr)
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
	o.encPlain = make([]byte, o.cdc.plainSize())
	o.decPlain = make([]byte, 0, o.cdc.plainSize())
	o.varena.slab = p.ValueSize
	o.bindBuf = make([]byte, 0, cryptoutil.BindingSize)
	o.occ = make([]*placement, p.Z)
	o.pathBuf = make([]int, 0, geo.Levels+1)
	o.bufPool = newBufPool(geo.SlotsPer, o.cdc.slotSize())
	o.realPool = newBufPool(p.Z, o.cdc.slotSize())
	return o, nil
}

// newBufPool makes a pool of bucket buffers of n slots; a buffer goes back to
// the pool it came from.
func newBufPool(n, slotSize int) *sync.Pool {
	pool := &sync.Pool{}
	pool.New = func() any {
		return &bucketBuf{arena: make([]byte, n*slotSize), slots: make([][]byte, n), pool: pool}
	}
	return pool
}

// binding encodes the Appendix A (id, epoch, batch=0) freshness triple into
// the ORAM's scratch buffer; caller holds mu and must use it before the next
// binding call.
func (o *ORAM) binding(id, epoch uint64) []byte {
	o.bindBuf = cryptoutil.AppendBinding(o.bindBuf[:0], id, epoch, 0)
	return o.bindBuf
}

func (o *ORAM) freshMeta() bucketMeta {
	n := o.geo.SlotsPer
	m := bucketMeta{
		perm:     o.rng.Perm(n),
		addrs:    make([]string, o.p.Z),
		valid:    make([]bool, n),
		count:    0,
		writeVer: 1,
	}
	for i := range m.valid {
		m.valid[i] = true
	}
	return m
}

// Params returns the validated configuration.
func (o *ORAM) Params() Params { return o.p }

// Geometry returns the derived tree shape.
func (o *ORAM) Geometry() Geometry { return o.geo }

// SlotSize returns the physical slot size in bytes.
func (o *ORAM) SlotSize() int { return o.cdc.slotSize() }

// SealRealOnly makes every later seal of the first n buckets (heap order, the
// root first) produce only the bucket's Z real positions, in position order,
// and no dummies: such a bucket can be read back whole but no longer slot by
// physical slot, so only a caller that keeps those buckets' blocks itself and
// never reads them from storage may ask for it. Metadata, permutations and
// the generator's stream do not change; the dummies become metadata only.
func (o *ORAM) SealRealOnly(n int) {
	o.mu.Lock()
	o.realOnly = n
	o.mu.Unlock()
}

// BlockSlots appends, for each real position 0..Z-1 of bucket b in order, the
// physical slot of the block the position holds, or -1 where it holds none
// (never filled, blanked by an overwrite, or read since the bucket was
// written). It is what a caller needs to rebuild its copy of a bucket sealed
// by SealRealOnly from the bucket's stored slots.
func (o *ORAM) BlockSlots(b int, dst []int) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := &o.meta[b]
	for r := 0; r < o.p.Z; r++ {
		if phys := m.perm[r]; m.addrs[r] != "" && m.valid[phys] {
			dst = append(dst, phys)
		} else {
			dst = append(dst, -1)
		}
	}
	return dst
}

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
// first. Used by the executor to adjust replayed slot choices for buckets
// it has already rewritten.
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

// addKey allocates key's position-map entry.
func (o *ORAM) addKey(key string) int32 {
	i := int32(len(o.keys))
	o.keys = append(o.keys, keyEnt{name: key, bucket: -1})
	o.pos[key] = i
	return i
}

// remap points key at leaf, allocating its position-map entry on first
// write, and records the change for the next delta checkpoint. It returns
// the key's entry.
func (o *ORAM) remap(key string, leaf int) *keyEnt {
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
	return k
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

// fillerPositions returns the logical positions usable as dummy reads:
// dummy positions and unoccupied real positions whose slot is still valid.
// The returned slice is mu-guarded scratch, valid until the next call — it
// runs once per consumed slot, so it must not allocate in steady state.
func (o *ORAM) fillerPositions(m *bucketMeta) []int {
	out := o.fillerBuf[:0]
	for pos := 0; pos < o.geo.SlotsPer; pos++ {
		if pos < o.p.Z && m.addrs[pos] != "" {
			continue
		}
		if m.valid[m.perm[pos]] {
			out = append(out, pos)
		}
	}
	o.fillerBuf = out
	return out
}

// consumeFiller invalidates and returns a filler slot of bucket b, honoring
// a forced physical slot during replay (forced < 0 means choose randomly).
func (o *ORAM) consumeFiller(b int, forced int) (int, error) {
	m := &o.meta[b]
	if forced >= 0 {
		if forced >= o.geo.SlotsPer || !m.valid[forced] {
			return 0, fmt.Errorf("%w: bucket %d slot %d not a valid filler", ErrReplay, b, forced)
		}
		for pos := 0; pos < o.p.Z; pos++ {
			if m.perm[pos] == forced && m.addrs[pos] != "" {
				return 0, fmt.Errorf("%w: bucket %d slot %d holds a real block", ErrReplay, b, forced)
			}
		}
		m.valid[forced] = false
		m.count++
		o.markBucket(b, bucketTouched)
		return forced, nil
	}
	fillers := o.fillerPositions(m)
	if len(fillers) == 0 {
		// Cannot happen when early reshuffles run on schedule; treated as
		// an internal invariant violation.
		return 0, fmt.Errorf("ringoram: bucket %d has no valid filler slot (count=%d)", b, m.count)
	}
	pos := fillers[o.rng.IntN(len(fillers))]
	phys := m.perm[pos]
	m.valid[phys] = false
	m.count++
	o.markBucket(b, bucketTouched)
	return phys, nil
}

// reshuffleDue lists path buckets whose slot budget is exhausted.
func (o *ORAM) reshuffleDue(path []int) []int {
	var due []int
	for _, b := range path {
		if o.meta[b].count >= o.p.S {
			due = append(due, b)
		}
	}
	return due
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

// PlanRead plans a logical read. It returns the plan and any buckets that
// now require an early reshuffle. A nil error with plan.Cached() true means
// the value can be produced by CompleteAccess with no storage reads.
func (o *ORAM) PlanRead(key string) (*AccessPlan, []int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.planReadLocked(key, -1, nil)
}

// PlanDummyRead plans a padding read: a uniformly random path with one
// filler slot per bucket.
func (o *ORAM) PlanDummyRead() (*AccessPlan, []int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.planReadLocked("", -1, nil)
}

// ReplayRead replays a logged access (key may be "" for padding) using the
// logged leaf and physical slot choices.
func (o *ORAM) ReplayRead(key string, leaf int, slots []int) (*AccessPlan, []int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(slots) != o.geo.Levels+1 {
		return nil, nil, fmt.Errorf("%w: logged %d slots, path has %d buckets", ErrReplay, len(slots), o.geo.Levels+1)
	}
	return o.planReadLocked(key, leaf, slots)
}

func (o *ORAM) planReadLocked(key string, forcedLeaf int, forcedSlots []int) (*AccessPlan, []int, error) {
	// Stash hit.
	if key != "" {
		if e, ok := o.stash[key]; ok {
			e.leaf = o.randLeaf() // remap on every logical access
			o.remap(key, e.leaf)
			if e.cacheable && forcedSlots == nil {
				p := o.newPlan()
				p.Key, p.Leaf, p.cached, p.cachedEntry, p.targetIdx = key, -1, true, e, -1
				return p, nil, nil
			}
			// Non-cacheable resident block: a dummy path read is mandatory
			// to keep the observed path distribution uniform (§6.3). After
			// this logical access the entry is uniformly remapped, hence
			// cacheable again.
			e.cacheable = true
			leaf := forcedLeaf
			if leaf < 0 {
				leaf = o.randLeaf()
			}
			plan, due, err := o.dummyPathLocked(leaf, forcedSlots)
			if err != nil {
				return nil, nil, err
			}
			plan.Key = key
			plan.cachedEntry = e
			return plan, due, nil
		}
	}

	if ki, known := o.pos[key]; known && o.keys[ki].bucket >= 0 {
		oldLeaf, bucket, rpos := int(o.keys[ki].leaf), int(o.keys[ki].bucket), int(o.keys[ki].rpos)
		if forcedLeaf >= 0 && forcedLeaf != oldLeaf {
			return nil, nil, fmt.Errorf("%w: key %q logged leaf %d, position map says %d", ErrReplay, key, forcedLeaf, oldLeaf)
		}
		path := o.scratchPath(oldLeaf)
		plan := o.newPlan()
		plan.Key, plan.Leaf, plan.targetIdx = key, oldLeaf, -1
		if cap(plan.Reads) < len(path) {
			plan.Reads = make([]SlotRead, 0, len(path))
		}
		for lvl, b := range path {
			m := &o.meta[b]
			var forced = -1
			if forcedSlots != nil {
				forced = forcedSlots[lvl]
			}
			if b == bucket {
				phys := m.perm[rpos]
				if forced >= 0 && forced != phys {
					return nil, nil, fmt.Errorf("%w: key %q logged slot %d in bucket %d, metadata says %d", ErrReplay, key, forced, b, phys)
				}
				if !m.valid[phys] {
					return nil, nil, fmt.Errorf("ringoram: occupied real slot invalid (bucket %d pos %d)", b, rpos)
				}
				m.valid[phys] = false
				m.count++
				m.addrs[rpos] = ""
				o.markBucket(b, bucketTouched)
				plan.targetIdx = len(plan.Reads)
				plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: m.writeVer, target: true})
				continue
			}
			phys, err := o.consumeFiller(b, forced)
			if err != nil {
				return nil, nil, err
			}
			plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: o.meta[b].writeVer})
		}
		if plan.targetIdx < 0 {
			return nil, nil, fmt.Errorf("ringoram: key %q resides in bucket %d, off its path (leaf %d)", key, bucket, oldLeaf)
		}
		o.keys[ki].bucket = -1
		e := o.newEntry(stashEntry{key: key, cacheable: true, pending: true})
		o.stashAdd(e)
		plan.targetEntry = e
		e.leaf = o.randLeaf()
		o.remap(key, e.leaf)
		o.accessCount++
		if err := o.noteStash(); err != nil {
			return nil, nil, err
		}
		return plan, o.reshuffleDue(path), nil
	}

	// Unknown key (or explicit padding): pure dummy path read.
	leaf := forcedLeaf
	if leaf < 0 {
		leaf = o.randLeaf()
	}
	plan, due, err := o.dummyPathLocked(leaf, forcedSlots)
	if err != nil {
		return nil, nil, err
	}
	plan.Key = key
	return plan, due, nil
}

// dummyPathLocked consumes one filler slot per bucket along leaf's path.
func (o *ORAM) dummyPathLocked(leaf int, forcedSlots []int) (*AccessPlan, []int, error) {
	path := o.scratchPath(leaf)
	plan := o.newPlan()
	plan.Leaf, plan.targetIdx = leaf, -1
	if cap(plan.Reads) < len(path) {
		plan.Reads = make([]SlotRead, 0, len(path))
	}
	for lvl, b := range path {
		forced := -1
		if forcedSlots != nil {
			forced = forcedSlots[lvl]
		}
		phys, err := o.consumeFiller(b, forced)
		if err != nil {
			return nil, nil, err
		}
		plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: o.meta[b].writeVer})
	}
	o.accessCount++
	return plan, o.reshuffleDue(path), nil
}

// PlanWrite applies a logical write (or delete, when tombstone is set) as a
// dummiless write (§6.3): the block goes directly to the stash, so no storage
// reads are needed and there is nothing to complete. The write counts as one
// access toward the eviction schedule (EvictDue).
func (o *ORAM) PlanWrite(key string, value []byte, tombstone bool) error {
	if key == "" {
		return errors.New("ringoram: empty key")
	}
	if len(key) > o.p.KeySize {
		return fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(key), o.p.KeySize)
	}
	if len(value) > o.p.ValueSize {
		return fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(value), o.p.ValueSize)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, known := o.pos[key]; !known {
		if len(o.keys) >= o.p.NumBlocks {
			return fmt.Errorf("%w: %d keys", ErrFull, len(o.keys))
		}
	}
	newLeaf := o.randLeaf()
	k := o.remap(key, newLeaf)
	if e, ok := o.stash[key]; ok {
		o.setEntryVal(e, value)
		e.tombstone = tombstone
		e.leaf = newLeaf
		e.cacheable = true
		e.pending = false
	} else {
		if k.bucket >= 0 {
			// Logically remove the stale tree copy without reading it: the
			// slot keeps its (now meaningless) ciphertext and remains valid
			// filler.
			o.meta[k.bucket].addrs[k.rpos] = ""
			o.markBucket(int(k.bucket), bucketTouched)
			k.bucket = -1
		}
		e := o.newEntry(stashEntry{key: key, tombstone: tombstone, leaf: newLeaf, cacheable: true})
		o.setEntryVal(e, value)
		o.stashAdd(e)
	}
	o.accessCount++
	return o.noteStash()
}

// BumpWrite advances the access counter by one write-batch slot without any
// logical effect. It pads write batches (keeping the eviction schedule
// workload independent) and replays logged write bumps during recovery.
func (o *ORAM) BumpWrite() {
	o.mu.Lock()
	o.accessCount++
	o.mu.Unlock()
}

// EvictDue reports whether an evict-path operation is owed.
func (o *ORAM) EvictDue() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.accessCount >= uint64(o.p.A)*(o.evictCount+1)
}

// CompleteAccess applies the fetched slot data for a read plan and returns
// the read value. The value
// is the caller's to keep: a capacity-clipped copy carved by a slab.Bytes.
// data must be parallel to plan.Reads. Only the slot that carries the
// access's block is ever inspected: the entry of every other read (a filler)
// may be nil, which is what lets a caller that knows where a bucket's blocks
// sit skip fetching the rest.
func (o *ORAM) CompleteAccess(plan *AccessPlan, data [][]byte) (value []byte, found bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if plan.completed {
		return nil, false, errors.New("ringoram: plan completed twice")
	}
	plan.completed = true
	// Completion is the plan's death in every caller: recycle it on success.
	// Error returns leave it out of the pool so the caller can inspect it.
	defer func() {
		if err == nil {
			o.planPool = append(o.planPool, plan)
		}
	}()
	if !plan.cached && len(data) != len(plan.Reads) {
		return nil, false, fmt.Errorf("ringoram: %d slots delivered, plan has %d", len(data), len(plan.Reads))
	}
	if plan.targetIdx >= 0 && plan.targetEntry.pending {
		r := plan.Reads[plan.targetIdx]
		kind, blk, derr := o.cdc.decodeSlotInto(o.decPlain, data[plan.targetIdx], o.binding(uint64(r.Bucket), r.Ver))
		e := plan.targetEntry
		switch {
		case derr != nil || (kind != slotReal && kind != slotTombstone):
			if !o.p.TolerateCorrupt {
				if derr == nil {
					derr = fmt.Errorf("slot kind %d", kind)
				}
				return nil, false, fmt.Errorf("%w: bucket %d slot %d: %v", ErrCorrupt, r.Bucket, r.Slot, derr)
			}
			o.releaseEntryVal(e)
			e.tombstone = true
			e.pending = false
		case string(blk.keyB) != plan.Key:
			if !o.p.TolerateCorrupt {
				return nil, false, fmt.Errorf("%w: bucket %d slot %d holds key %q, want %q", ErrCorrupt, r.Bucket, r.Slot, blk.keyB, plan.Key)
			}
			o.releaseEntryVal(e)
			e.tombstone = true
			e.pending = false
		default:
			// blk.value aliases the decode scratch: copy it into the stash's
			// value arena, which owns it until the entry is sealed back.
			o.setEntryVal(e, blk.value)
			e.tombstone = blk.tombstone
			e.pending = false
		}
	}
	// Resolve the logical result.
	entry := plan.targetEntry
	if entry == nil {
		entry = plan.cachedEntry
	}
	if entry == nil {
		return nil, false, nil // unknown key or padding
	}
	if entry.pending {
		return nil, false, errors.New("ringoram: completion out of order: entry still pending")
	}
	if entry.tombstone {
		return nil, false, nil
	}
	return o.vals.Copy(entry.value), true, nil
}

// PlanEvict plans the next deterministic evict-path operation.
func (o *ORAM) PlanEvict() (*EvictPlan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.planEvictionLocked(o.scratchPath(o.geo.evictLeaf(o.evictCount)), true, nil)
}

// ReplayEvict replays a logged evict-path with the logged per-bucket slots.
func (o *ORAM) ReplayEvict(slots [][]int) (*EvictPlan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	path := o.scratchPath(o.geo.evictLeaf(o.evictCount))
	if len(slots) != len(path) {
		return nil, fmt.Errorf("%w: logged %d buckets, evict path has %d", ErrReplay, len(slots), len(path))
	}
	return o.planEvictionLocked(path, true, slots)
}

// PlanReshuffle plans an early reshuffle of a single bucket.
func (o *ORAM) PlanReshuffle(bucket int) (*EvictPlan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if bucket < 0 || bucket >= o.geo.NumBuckets {
		return nil, fmt.Errorf("ringoram: reshuffle of bucket %d out of range", bucket)
	}
	return o.planEvictionLocked([]int{bucket}, false, nil)
}

// ReplayReshuffle replays a logged early reshuffle.
func (o *ORAM) ReplayReshuffle(bucket int, slots []int) (*EvictPlan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if bucket < 0 || bucket >= o.geo.NumBuckets {
		return nil, fmt.Errorf("%w: reshuffle bucket %d out of range", ErrReplay, bucket)
	}
	return o.planEvictionLocked([]int{bucket}, false, [][]int{slots})
}

// bucketLevel returns the depth of a heap bucket index.
func bucketLevel(b int) int {
	lvl := 0
	for b > 0 {
		b = (b - 1) / 2
		lvl++
	}
	return lvl
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

// planEvictionLocked implements the shared read/write planning of evict-path
// (buckets = full path, deepest placement first) and early reshuffle
// (single bucket). forcedSlots, when non-nil, dictates the physical slots of
// the read phase (recovery replay). buckets may be scratch: it is copied.
//
// The planner runs once per A accesses over L+1 buckets, so everything it
// needs — the plan, its slices, each planned bucket's permutation copy and
// placements — comes from the plan pool, and the new permutation is drawn in
// place: the steady state allocates nothing here.
func (o *ORAM) planEvictionLocked(buckets []int, isEvict bool, forcedSlots [][]int) (*EvictPlan, error) {
	plan := o.newEvictPlan()
	plan.Buckets = append(plan.Buckets, buckets...)
	buckets = plan.Buckets

	// Read phase: every valid occupied real block, padded with fillers to Z
	// reads per bucket. Blocks move to the stash as pending entries.
	for bi, b := range buckets {
		m := &o.meta[b]
		start := len(plan.Reads)
		var forced []int
		if forcedSlots != nil {
			forced = forcedSlots[bi]
		}
		var forcedUsed map[int]bool
		if forced != nil {
			forcedUsed = make(map[int]bool, len(forced))
		}
		// Occupied reals first.
		for r := 0; r < o.p.Z; r++ {
			key := m.addrs[r]
			if key == "" {
				continue
			}
			phys := m.perm[r]
			if !m.valid[phys] {
				return nil, fmt.Errorf("ringoram: occupied real slot invalid (bucket %d pos %d)", b, r)
			}
			if forced != nil {
				ok := false
				for _, s := range forced {
					if s == phys {
						ok = true
						break
					}
				}
				if !ok {
					return nil, fmt.Errorf("%w: logged eviction misses real slot %d of bucket %d", ErrReplay, phys, b)
				}
				forcedUsed[phys] = true
			}
			m.valid[phys] = false
			m.count++
			m.addrs[r] = ""
			k := &o.keys[o.pos[key]]
			k.bucket = -1
			e := o.newEntry(stashEntry{key: key, leaf: int(k.leaf), pending: true})
			o.stashAdd(e)
			plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: m.writeVer, entry: e})
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
				plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: m.writeVer})
			}
		} else {
			for len(plan.Reads)-start < o.p.Z {
				fillers := o.fillerPositions(m)
				if len(fillers) == 0 {
					break // short read phase; harmless and rare
				}
				phys, err := o.consumeFiller(b, m.perm[fillers[o.rng.IntN(len(fillers))]])
				if err != nil {
					return nil, err
				}
				plan.Reads = append(plan.Reads, SlotRead{Bucket: b, Slot: phys, Ver: m.writeVer})
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
			pb.placed = append(pb.placed, placement{key: e.key, pos: len(pb.placed), entry: e})
			o.stashRemove(e) // moves the last entry to i: look at i again
		}
		m := &o.meta[b]
		o.shuffle(m.perm)
		for i := range m.valid {
			m.valid[i] = true
		}
		for r := range m.addrs {
			m.addrs[r] = ""
		}
		m.count = 0
		m.writeVer++
		for _, pl := range pb.placed {
			m.addrs[pl.pos] = pl.key
			k := &o.keys[o.pos[pl.key]]
			k.bucket, k.rpos = int32(b), int32(pl.pos)
		}
		pb.ver = m.writeVer
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

// CompleteEvict applies the fetched read-phase data and returns the bucket
// writes the caller must perform (or buffer). data is parallel to
// plan.Reads. As in CompleteAccess, only reads that carry a block are
// inspected; a filler's entry may be nil. The returned slice is the ORAM's
// scratch, valid until the next CompleteEvict (as each write's Real is): keep
// the writes by value.
func (o *ORAM) CompleteEvict(plan *EvictPlan, data [][]byte) ([]BucketWrite, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if plan.completed {
		return nil, errors.New("ringoram: eviction completed twice")
	}
	plan.completed = true
	if len(data) != len(plan.Reads) {
		return nil, fmt.Errorf("ringoram: %d slots delivered, plan has %d", len(data), len(plan.Reads))
	}
	for i, r := range plan.Reads {
		if r.entry == nil || !r.entry.pending {
			continue
		}
		kind, blk, err := o.cdc.decodeSlotInto(o.decPlain, data[i], o.binding(uint64(r.Bucket), r.Ver))
		if err != nil || (kind != slotReal && kind != slotTombstone) {
			if !o.p.TolerateCorrupt {
				if err == nil {
					err = fmt.Errorf("slot kind %d", kind)
				}
				return nil, fmt.Errorf("%w: bucket %d slot %d: %v", ErrCorrupt, r.Bucket, r.Slot, err)
			}
			o.releaseEntryVal(r.entry)
			r.entry.tombstone = true
			r.entry.pending = false
			continue
		}
		if string(blk.keyB) != r.entry.key {
			if !o.p.TolerateCorrupt {
				return nil, fmt.Errorf("%w: bucket %d slot %d holds key %q, want %q", ErrCorrupt, r.Bucket, r.Slot, blk.keyB, r.entry.key)
			}
			o.releaseEntryVal(r.entry)
			r.entry.tombstone = true
			r.entry.pending = false
			continue
		}
		o.setEntryVal(r.entry, blk.value)
		r.entry.tombstone = blk.tombstone
		r.entry.pending = false
	}
	writes := o.writeBuf[:0]
	for i := range plan.writes {
		pb := &plan.writes[i]
		w, err := o.sealPlannedBucket(pb)
		if err != nil {
			return nil, err
		}
		writes = append(writes, w)
	}
	o.writeBuf = writes
	// The placed entries left the stash when the write phase planned them and
	// their values are now sealed inside the bucket arenas: recycle the slabs.
	// Plan-ordered completion means no earlier plan still references them, and
	// any later access finds the key in the tree, not in these entries.
	for i := range plan.writes {
		for _, pl := range plan.writes[i].placed {
			if pl.entry != nil {
				o.releaseEntryVal(pl.entry)
				o.entryPool = append(o.entryPool, pl.entry)
			}
		}
	}
	// Completion is the plan's death in every caller: recycle it.
	o.evictPool = append(o.evictPool, plan)
	return writes, nil
}

// sealPlannedBucket serializes a bucket per a write-phase plan. Every slot is
// sealed in place into one contiguous pooled arena (two allocations per
// bucket when the pool is cold, zero when warm) instead of one buffer per
// slot; the arena travels with the returned BucketWrite. A bucket below
// realOnly gets its Z real positions in position order and nothing else.
func (o *ORAM) sealPlannedBucket(pb *plannedBucket) (BucketWrite, error) {
	n, pool := o.geo.SlotsPer, o.bufPool
	trim := pb.bucket < o.realOnly
	if trim {
		n, pool = o.p.Z, o.realPool
	}
	bb := pool.Get().(*bucketBuf)
	slotSize := o.cdc.slotSize()
	binding := o.binding(uint64(pb.bucket), pb.ver)
	occ := o.occ
	for i := range occ {
		occ[i] = nil
	}
	pb.real = pb.real[:0]
	for i := range pb.placed {
		occ[pb.placed[i].pos] = &pb.placed[i]
		pb.real = append(pb.real, pb.perm[pb.placed[i].pos])
	}
	for pos := 0; pos < n; pos++ {
		at := pb.perm[pos]
		if trim {
			at = pos
		}
		dst := bb.arena[at*slotSize : at*slotSize : (at+1)*slotSize]
		var data []byte
		var err error
		switch {
		case pos >= o.p.Z:
			data, err = o.cdc.encodeSlotTo(dst, slotDummy, block{}, binding, o.encPlain)
		case occ[pos] != nil:
			pl := occ[pos]
			if pl.entry.pending {
				bb.pool.Put(bb)
				return BucketWrite{}, fmt.Errorf("ringoram: serializing bucket %d: block %q still pending (completion order violated)", pb.bucket, pl.key)
			}
			kind := byte(slotReal)
			if pl.entry.tombstone {
				kind = slotTombstone
			}
			data, err = o.cdc.encodeSlotTo(dst, kind, block{key: pl.key, value: pl.entry.value, tombstone: pl.entry.tombstone}, binding, o.encPlain)
		default:
			data, err = o.cdc.encodeSlotTo(dst, slotEmptyReal, block{}, binding, o.encPlain)
		}
		if err != nil {
			bb.pool.Put(bb)
			return BucketWrite{}, err
		}
		bb.slots[at] = data
	}
	return BucketWrite{Bucket: pb.bucket, Ver: pb.ver, Slots: bb.slots, Real: pb.real, buf: bb}, nil
}

// sealBucket serializes a bucket straight from current metadata; used for
// tree initialization where all real positions are empty.
func (o *ORAM) sealBucket(bucket int, m bucketMeta, values map[string][]byte) (BucketWrite, error) {
	pb := plannedBucket{bucket: bucket, ver: m.writeVer, perm: m.perm}
	for r, key := range m.addrs {
		if key == "" {
			continue
		}
		pb.placed = append(pb.placed, placement{
			key: key, pos: r,
			entry: &stashEntry{key: key, value: values[key]},
		})
	}
	return o.sealPlannedBucket(&pb)
}
