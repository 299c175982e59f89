package meta

import (
	"fmt"
	"math/bits"
	"slices"
)

// SlotRead is one physical slot the caller must fetch.
type SlotRead struct {
	Bucket, Slot int
	// Ver is the bucket version the read was planned against: the version
	// whose ciphertext binding applies, or whose plaintext a local read must
	// be served from.
	Ver uint64
	// Seed is that version's seed, which the slot's nonce derives from.
	Seed Seed
	// img is the kept version a local read is served from (see Local).
	img Image
	// blk is the pending block the slot delivers to the stash: the access's
	// target, or a block an eviction reads out of its bucket. 0 for a filler.
	blk Block
}

// Local reports whether the byte plane serves the read from the version
// the local-version table keeps (see local.go): the caller fetches nothing
// for it.
func (r SlotRead) Local() bool { return r.img != 0 }

// Image returns the handle of the version a local read is served from, 0
// for a read from storage.
func (r SlotRead) Image() Image { return r.img }

// Block returns the block the slot holds, 0 for a filler. Only these slots
// are ever inspected at completion.
func (r SlotRead) Block() Block { return r.blk }

// readOf plans a read of slot s of bucket b's current version, local when
// the table serves it.
func (m *Machine) readOf(b, s int) SlotRead {
	bm := &m.buckets[b]
	return SlotRead{Bucket: b, Slot: s, Ver: bm.writeVer, Seed: bm.seed, img: m.local.serves(b, bm.writeVer)}
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

// Plan is one planned step of the schedule: the metadata is already mutated,
// the slots it reads are listed, and completion (machine.go) applies them. A
// plan and its slices belong to the machine's pool again once Complete
// retires it; callers must not touch it afterwards.
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

	blk       Block         // an access's block, its target read's or the stash's
	writes    []BucketWrite // an eviction's, parallel to Buckets
	completed bool
}

// Writes returns the bucket versions an eviction writes, parallel to
// Buckets: the plan's own slice.
func (p *Plan) Writes() []BucketWrite { return p.writes }

// BucketWrite is the version of one bucket an eviction writes: its number
// and seed, its handle in the local-version table (0 while the table is off),
// its permutation, and the blocks it holds, the i-th at real position i.
type BucketWrite struct {
	Bucket int
	Ver    uint64
	Seed   Seed
	Image  Image
	// Perm is the version's own copy of its permutation (perm[pos] is the
	// physical slot of position pos; pos < Z real, else dummy): a later plan
	// may rewrite the bucket before this one completes.
	Perm   []uint16
	Placed []Block
}

// newPlan takes a retired plan from the pool, keeping the capacity of every
// slice it owns, or allocates a fresh one, and readies it as a step of the
// given kind that reads no path. The steady state cycles the same plans
// instead of allocating one (plus its slices) per step.
func (m *Machine) newPlan(kind PlanKind) *Plan {
	var p *Plan
	if pool := &m.planPool[kind.pool()]; len(*pool) > 0 {
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

// scratchPath returns the root-first path to leaf in the machine's scratch,
// valid until the next call.
func (m *Machine) scratchPath(leaf int) []int {
	m.pathBuf = m.geo.AppendPath(m.pathBuf[:0], leaf)
	return m.pathBuf
}

// takeFiller draws a filler position of bm uniformly — the k-th member of
// its filler set for the draw k, which is the position the ascending list of
// fillers held at index k — consumes its slot and returns the slot, or -1
// (drawing nothing) when bm has no filler left.
func (m *Machine) takeFiller(bm bucketView) int {
	fillers := bm.filler
	n := fillers.len()
	if n == 0 {
		return -1
	}
	pos := fillers.nth(m.rng.IntN(n))
	bm.consume(pos)
	return int(bm.perm[pos])
}

// consumeFiller invalidates and returns a filler slot of bucket b, honoring
// a forced physical slot during replay (forced < 0 means choose randomly).
func (m *Machine) consumeFiller(b int, forced int) (int, error) {
	bm := m.bucket(b)
	if forced >= 0 {
		if forced >= m.geo.SlotsPer || !bm.valid.has(forced) {
			return 0, fmt.Errorf("%w: bucket %d slot %d not a valid filler", ErrReplay, b, forced)
		}
		pos := slices.Index(bm.perm, uint16(forced))
		if pos < m.p.Z && bm.occ.has(pos) {
			return 0, fmt.Errorf("%w: bucket %d slot %d holds a real block", ErrReplay, b, forced)
		}
		bm.consume(pos)
		m.markBucket(b, bucketTouched)
		return forced, nil
	}
	phys := m.takeFiller(bm)
	if phys < 0 {
		// Cannot happen when early reshuffles run on schedule; treated as
		// an internal invariant violation.
		return 0, fmt.Errorf("ringoram: bucket %d has no valid filler slot (count=%d)", b, bm.count())
	}
	m.markBucket(b, bucketTouched)
	return phys, nil
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
// the stash serves reads no slot. A key longer than KeySize is refused before
// anything is planned; on any other error dst holds the steps planned before
// it.
func (m *Machine) PlanRead(key string, dst []*Plan) ([]*Plan, error) {
	if err := m.checkKey(key); err != nil {
		return dst, err
	}
	p, err := m.planRead(key, -1, nil)
	if err != nil {
		return dst, err
	}
	return m.planDue(append(dst, p), p.Reads)
}

// PlanWrite applies a logical write (or delete, when tombstone is set) of
// key as a dummiless write (§6.3): the block goes directly to the stash, so
// the step reads nothing, and the plane stores value as the block (Put). key
// "" is a padding bump, which only counts the access (keeping the eviction
// schedule workload independent) and stores no block. Either way it appends
// the write step to dst, then every evict-path it makes due. A key over
// KeySize or a value over ValueSize is refused before anything is planned. A
// stash overflow is an error that still stores the block, which is in the
// stash.
func (m *Machine) PlanWrite(key string, value []byte, tombstone bool, dst []*Plan) ([]*Plan, error) {
	if len(value) > m.p.ValueSize {
		return dst, fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(value), m.p.ValueSize)
	}
	if err := m.checkKey(key); err != nil {
		return dst, err
	}
	p, b, err := m.planWrite(key)
	if b != 0 {
		if perr := m.plane.Put(b, m.Key(b), value, tombstone); err == nil {
			err = perr
		}
	}
	if err != nil {
		return dst, err
	}
	return m.planDue(append(dst, p), nil)
}

func (m *Machine) checkKey(key string) error {
	if len(key) > m.p.KeySize {
		return fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(key), m.p.KeySize)
	}
	return nil
}

// planDue appends every step the schedule owes after an access that read
// path, in the order nextDue plans them.
func (m *Machine) planDue(dst []*Plan, path []SlotRead) ([]*Plan, error) {
	for {
		p, rest, err := m.nextDue(path)
		if p == nil || err != nil {
			return dst, err
		}
		dst, path = append(dst, p), rest
	}
}

// nextDue plans the next step the schedule owes after an access that read
// path (see due). It returns the plan (nil when nothing is owed) and the part
// of path after the reshuffled bucket.
func (m *Machine) nextDue(path []SlotRead) (*Plan, []SlotRead, error) {
	kind, bucket, rest := m.due(path)
	if kind == 0 {
		return nil, nil, nil
	}
	p, err := m.planEviction(kind, bucket, nil)
	return p, rest, err
}

// due names the next step the schedule owes after an access that read path:
// an early reshuffle of the first bucket on it whose slot budget is
// exhausted, else an evict-path if the access counter owes one, else none
// (kind 0). It returns the step's kind, the bucket a reshuffle rewrites, and
// the part of path after it.
func (m *Machine) due(path []SlotRead) (PlanKind, int, []SlotRead) {
	for i, r := range path {
		if m.bucket(r.Bucket).count() >= m.p.S {
			return ReshuffleStep, r.Bucket, path[i+1:]
		}
	}
	if m.accessCount >= uint64(m.p.A)*(m.evictCount+1) {
		return EvictStep, 0, nil
	}
	return 0, 0, nil
}

func (m *Machine) planRead(key string, forcedLeaf int, forcedSlots []int) (*Plan, error) {
	ki, known := m.keys.lookup(key)
	// Stash hit.
	if e, ok := m.stash[ki]; known && ok {
		e.leaf = m.randLeaf() // remap on every logical access
		m.remap(ki, e.leaf)
		if e.cacheable && forcedSlots == nil {
			p := m.newPlan(AccessStep)
			p.Key, p.blk = key, e.blk
			return p, nil
		}
		// Non-cacheable resident block: a dummy path read is mandatory to
		// keep the observed path distribution uniform (§6.3). After this
		// logical access the entry is uniformly remapped, hence cacheable
		// again.
		e.cacheable = true
		p, err := m.dummyPath(key, forcedLeaf, forcedSlots)
		if err != nil {
			return nil, err
		}
		p.blk = e.blk
		return p, nil
	}

	if known && m.keys.bucket[ki] >= 0 {
		oldLeaf, bucket, rpos := int(m.keys.leaf[ki]), int(m.keys.bucket[ki]), int(m.keys.rpos[ki])
		if forcedLeaf >= 0 && forcedLeaf != oldLeaf {
			return nil, fmt.Errorf("%w: key %q logged leaf %d, position map says %d", ErrReplay, key, forcedLeaf, oldLeaf)
		}
		path := m.scratchPath(oldLeaf)
		p := m.newPlan(AccessStep)
		p.Key, p.Leaf = key, oldLeaf
		e := m.newEntry(stashEntry{key: m.keys.name(ki), ki: ki, cacheable: true, pending: true})
		for lvl, b := range path {
			bm := m.bucket(b)
			var forced = -1
			if forcedSlots != nil && !m.local.rewritten(b) {
				forced = forcedSlots[lvl]
			}
			if b == bucket {
				phys := int(bm.perm[rpos])
				if forced >= 0 && forced != phys {
					return nil, fmt.Errorf("%w: key %q logged slot %d in bucket %d, metadata says %d", ErrReplay, key, forced, b, phys)
				}
				if !bm.valid.has(phys) {
					return nil, fmt.Errorf("ringoram: occupied real slot invalid (bucket %d pos %d)", b, rpos)
				}
				// An occupied position is no filler, and with its slot read it
				// does not become one.
				bm.valid.unset(phys)
				bm.addrs[rpos] = -1
				bm.occ.unset(rpos)
				m.markBucket(b, bucketTouched)
				p.blk = e.blk
				p.Reads = append(p.Reads, m.readOf(b, phys))
				p.Reads[len(p.Reads)-1].blk = e.blk
				continue
			}
			phys, err := m.consumeFiller(b, forced)
			if err != nil {
				return nil, err
			}
			p.Reads = append(p.Reads, m.readOf(b, phys))
		}
		if p.blk == 0 {
			return nil, fmt.Errorf("ringoram: key %q resides in bucket %d, off its path (leaf %d)", key, bucket, oldLeaf)
		}
		m.keys.bucket[ki] = -1
		m.stashAdd(e)
		e.leaf = m.randLeaf()
		m.remap(ki, e.leaf)
		m.accessCount++
		if err := m.noteStash(); err != nil {
			return nil, err
		}
		return p, nil
	}

	// Unknown key (or explicit padding): pure dummy path read.
	return m.dummyPath(key, forcedLeaf, forcedSlots)
}

// dummyPath plans an access of key that reads one filler slot per bucket
// along a path: leaf's, or a uniformly random one when leaf < 0.
func (m *Machine) dummyPath(key string, leaf int, forcedSlots []int) (*Plan, error) {
	if leaf < 0 {
		leaf = m.randLeaf()
	}
	p := m.newPlan(AccessStep)
	p.Key, p.Leaf = key, leaf
	for lvl, b := range m.scratchPath(leaf) {
		forced := -1
		if forcedSlots != nil && !m.local.rewritten(b) {
			forced = forcedSlots[lvl]
		}
		phys, err := m.consumeFiller(b, forced)
		if err != nil {
			return nil, err
		}
		p.Reads = append(p.Reads, m.readOf(b, phys))
	}
	m.accessCount++
	return p, nil
}

// planWrite plans a write step: the block into the stash unless key is "",
// and one access counted either way. It returns the block written.
func (m *Machine) planWrite(key string) (*Plan, Block, error) {
	var b Block
	if key != "" {
		var err error
		if b, err = m.write(key); err != nil {
			return nil, b, err
		}
	}
	m.accessCount++
	return m.newPlan(WriteStep), b, nil
}

// write puts a written block into the stash and returns it.
func (m *Machine) write(key string) (Block, error) {
	ki, known := m.keys.lookup(key)
	if !known {
		if m.keys.len() >= m.p.NumBlocks {
			return 0, fmt.Errorf("%w: %d keys", ErrFull, m.keys.len())
		}
		var err error
		if ki, err = m.keys.add(key); err != nil {
			return 0, err
		}
	}
	newLeaf := m.randLeaf()
	m.remap(ki, newLeaf)
	e, ok := m.stash[ki]
	if ok {
		// A block a planned read has yet to deliver is superseded: the
		// read's completion skips it.
		e.leaf = newLeaf
		e.cacheable = true
		e.pending = false
	} else {
		if b := int(m.keys.bucket[ki]); b >= 0 {
			// Logically remove the stale tree copy without reading it: the
			// slot keeps its (now meaningless) ciphertext and becomes valid
			// filler (an occupied slot is always valid).
			bm, r := m.bucket(b), int(m.keys.rpos[ki])
			bm.addrs[r] = -1
			bm.occ.unset(r)
			bm.filler.set(r)
			m.markBucket(b, bucketTouched)
			m.keys.bucket[ki] = -1
		}
		e = m.newEntry(stashEntry{key: m.keys.name(ki), ki: ki, leaf: newLeaf, cacheable: true})
		m.stashAdd(e)
	}
	return e.blk, m.noteStash()
}

// planEviction plans the read and write phases of the next evict-path (kind
// EvictStep: the full path, deepest placement first) or of an early
// reshuffle of bucket (kind ReshuffleStep). forcedSlots, when non-nil,
// dictates the physical slots of the read phase (recovery replay), which
// must be as many per bucket as live planning reads.
//
// The planner runs once per A accesses over L+1 buckets, so everything it
// needs — the plan, its slices, each planned bucket's permutation copy and
// placements — comes from the plan pool, and the new permutation is drawn in
// place: the steady state allocates nothing here.
func (m *Machine) planEviction(kind PlanKind, bucket int, forcedSlots [][]int) (*Plan, error) {
	plan := m.newPlan(kind)
	isEvict := kind == EvictStep
	if isEvict {
		plan.Buckets = m.geo.AppendPath(plan.Buckets, m.geo.EvictLeaf(m.evictCount))
	} else {
		plan.Buckets = append(plan.Buckets, bucket)
	}
	buckets := plan.Buckets

	// Read phase: every valid occupied real block, padded with fillers to Z
	// reads per bucket. Blocks move to the stash as pending entries.
	for bi, b := range buckets {
		bm := m.bucket(b)
		start := len(plan.Reads)
		var forced []int
		if forcedSlots != nil && !m.local.rewritten(b) {
			forced = forcedSlots[bi]
		}
		// Live planning reads every occupied real and fillers up to Z, fewer
		// only when the bucket runs out of them: a logged bucket must list
		// exactly as many.
		valid, occ := bm.valid, bm.occ
		want := occ.len() + min(m.p.Z-occ.len(), bm.filler.len())
		var forcedUsed map[int]bool
		if forced != nil {
			if len(forced) != want {
				return nil, fmt.Errorf("%w: logged %d slots of bucket %d, its eviction reads %d", ErrReplay, len(forced), b, want)
			}
			forcedUsed = make(map[int]bool, len(forced))
		}
		// Occupied reals first, in position order.
		for i, w := range occ {
			for ; w != 0; w &= w - 1 {
				r := i<<6 + bits.TrailingZeros64(w)
				phys := int(bm.perm[r])
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
				ki := bm.addrs[r]
				bm.addrs[r] = -1
				occ.unset(r)
				m.keys.bucket[ki] = -1
				e := m.newEntry(stashEntry{key: m.keys.name(ki), ki: ki, leaf: int(m.keys.leaf[ki]), pending: true})
				m.stashAdd(e)
				plan.Reads = append(plan.Reads, m.readOf(b, phys))
				plan.Reads[len(plan.Reads)-1].blk = e.blk
			}
		}
		// Pad with fillers.
		if forced != nil {
			for _, s := range forced {
				if forcedUsed[s] {
					continue
				}
				phys, err := m.consumeFiller(b, s)
				if err != nil {
					return nil, err
				}
				plan.Reads = append(plan.Reads, m.readOf(b, phys))
			}
			if n := len(plan.Reads) - start; n != want {
				return nil, fmt.Errorf("%w: logged slots of bucket %d repeat a real slot: %d reads, its eviction reads %d", ErrReplay, b, n, want)
			}
		} else {
			// A bucket may run out (a short read phase; harmless and rare).
			for len(plan.Reads)-start < m.p.Z {
				phys := m.takeFiller(bm)
				if phys < 0 {
					break
				}
				plan.Reads = append(plan.Reads, m.readOf(b, phys))
			}
		}
		m.markBucket(b, bucketTouched)
	}
	if err := m.noteStash(); err != nil {
		return nil, err
	}

	// Write phase planning: place stash blocks as deep as possible. Writes
	// are parallel to Buckets (root first); an evict-path fills them bottom-up.
	if cap(plan.writes) < len(buckets) {
		plan.writes = append(plan.writes[:cap(plan.writes)], make([]BucketWrite, len(buckets)-cap(plan.writes))...)
	}
	plan.writes = plan.writes[:len(buckets)]
	for n := range buckets {
		wi := n
		if isEvict {
			wi = len(buckets) - 1 - n // deepest first
		}
		b := buckets[wi]
		lvl := BucketLevel(b)
		w := &plan.writes[wi]
		w.Bucket, w.Placed = b, w.Placed[:0]
		bm := m.bucket(b)
		for r := range bm.addrs {
			bm.addrs[r] = -1
		}
		for i := 0; i < len(m.stashList) && len(w.Placed) < m.p.Z; {
			e := m.stashList[i]
			if m.geo.PathBucket(e.leaf, lvl) != b {
				i++
				continue
			}
			r := len(w.Placed)
			w.Placed = append(w.Placed, e.blk)
			bm.addrs[r] = e.ki
			m.keys.bucket[e.ki], m.keys.rpos[e.ki] = int32(b), uint16(r)
			m.stashRemove(e) // moves the last entry to i: look at i again
		}
		m.shuffle(bm.perm)
		bm.writeVer++
		bm.seed = m.plane.Seed(b, bm.writeVer)
		bm.rewrite(len(w.Placed))
		w.Ver, w.Seed = bm.writeVer, bm.seed
		w.Image = m.local.claim(b, w.Ver)
		w.Perm = append(w.Perm[:0], bm.perm...)
		m.markBucket(b, bucketRewritten)
	}
	if isEvict {
		m.evictCount++
		// Whatever could not be flushed is skewed away from recent evict
		// paths; serving it without a dummy read would leak (§6.3).
		for _, e := range m.stashList {
			e.cacheable = false
		}
	}
	return plan, nil
}
