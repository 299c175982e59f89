// Package ringoram implements Ring ORAM (Ren et al., USENIX Security 2015)
// with the Obladi modifications of §6.3 of the paper: dummiless writes and
// stash-cacheability tagging.
//
// The package separates *planning* from *I/O*: PlanRead / PlanWrite /
// PlanEvict / PlanReshuffle mutate client-side metadata and return the exact
// physical slot reads and bucket writes the access requires, without touching
// storage. Callers (the sequential wrapper in this package, and the parallel
// epoch executor in internal/oramexec) perform the I/O and feed results back
// through the matching Complete* methods. This split is what lets Obladi
// pipeline an epoch's physical reads, defer all physical writes to the epoch
// boundary, and replay logged slot choices deterministically after a crash.
package ringoram

import (
	"errors"
	"fmt"
	"math/bits"
)

// Params configures a Ring ORAM instance.
type Params struct {
	// NumBlocks is N, the maximum number of distinct logical keys.
	NumBlocks int
	// Z is the number of real slots per bucket.
	Z int
	// S is the number of dummy slots per bucket.
	S int
	// A is the eviction rate: one evict-path per A logical accesses.
	A int
	// KeySize is the maximum logical key length in bytes.
	KeySize int
	// ValueSize is the maximum value length in bytes. Slots have a fixed
	// physical size derived from KeySize and ValueSize.
	ValueSize int
	// StashLimit bounds the stash; 0 selects a default derived from the
	// tree geometry. The durability layer pads the logged stash to this
	// size so its true size is never revealed.
	StashLimit int
	// DisableEncryption stores slots in plaintext. Only for measuring
	// crypto overhead (the "Parallel" vs "ParallelCrypto" series of
	// Figure 10a); never secure.
	DisableEncryption bool
	// DisableDummilessWrites makes logical writes perform a full physical
	// path read like canonical Ring ORAM, instead of Obladi's
	// direct-to-stash write (§6.3). Ablation knob.
	DisableDummilessWrites bool
	// TolerateCorrupt treats undecryptable target slots as absent keys
	// instead of errors. Required when running against the lossy "dummy"
	// measurement backend; never enable against real storage.
	TolerateCorrupt bool
	// Seed, when non-zero, makes all randomized choices (leaf remaps,
	// dummy-slot selection, permutations) deterministic. Tests only.
	Seed uint64
}

// Geometry is the derived tree shape.
type Geometry struct {
	Levels     int // L: depth of the tree; leaves sit at level L
	Leaves     int // 2^L
	NumBuckets int // 2^(L+1) - 1, heap-ordered, root = 0
	SlotsPer   int // Z + S physical slots per bucket
}

// Validation errors.
var (
	errBadParams = errors.New("ringoram: invalid parameters")
)

// Validate checks the parameters and fills in defaults.
func (p *Params) Validate() error {
	if p.NumBlocks <= 0 {
		return fmt.Errorf("%w: NumBlocks %d", errBadParams, p.NumBlocks)
	}
	if p.Z <= 0 || p.S <= 0 || p.A <= 0 {
		return fmt.Errorf("%w: Z=%d S=%d A=%d must be positive", errBadParams, p.Z, p.S, p.A)
	}
	if p.A > p.S {
		// A bucket must survive A accesses between evictions touching it;
		// with A > S the dummies of a bucket on every path (the root) can
		// be exhausted between two of its evictions faster than early
		// reshuffles amortize. Canonical Ring ORAM requires S >= A.
		return fmt.Errorf("%w: require A (%d) <= S (%d)", errBadParams, p.A, p.S)
	}
	if p.KeySize == 0 {
		p.KeySize = 64
	}
	if p.ValueSize == 0 {
		p.ValueSize = 256
	}
	if p.KeySize < 1 || p.KeySize > 1<<16-1 {
		return fmt.Errorf("%w: KeySize %d", errBadParams, p.KeySize)
	}
	if p.ValueSize < 1 {
		return fmt.Errorf("%w: ValueSize %d", errBadParams, p.ValueSize)
	}
	if p.StashLimit == 0 {
		g := p.Geometry()
		p.StashLimit = p.Z*(g.Levels+1) + 4*p.A + 64
	}
	return nil
}

// Geometry derives the tree shape: the smallest power-of-two leaf count whose
// leaf level alone can hold all N blocks (leaves * Z >= N), matching the
// paper's configurations (e.g. 100K objects at Z=100 -> 10-11 levels).
func (p Params) Geometry() Geometry {
	needLeaves := (p.NumBlocks + p.Z - 1) / p.Z
	l := bits.Len(uint(needLeaves - 1)) // ceil(log2(needLeaves))
	if needLeaves <= 1 {
		l = 0
	}
	if l < 1 {
		l = 1
	}
	leaves := 1 << l
	return Geometry{
		Levels:     l,
		Leaves:     leaves,
		NumBuckets: 2*leaves - 1,
		SlotsPer:   p.Z + p.S,
	}
}

// leafBucket maps a leaf index [0, Leaves) to its heap bucket index.
func (g Geometry) leafBucket(leaf int) int { return g.Leaves - 1 + leaf }

// pathBucket returns the heap index of the bucket at the given level
// (0 = root) on the path from the root to leaf.
func (g Geometry) pathBucket(leaf, level int) int {
	// The bucket at `level` is the ancestor of the leaf bucket obtained by
	// walking up (Levels - level) times.
	b := g.leafBucket(leaf)
	for i := g.Levels; i > level; i-- {
		b = (b - 1) / 2
	}
	return b
}

// path returns all bucket indices from root to leaf, root first.
func (g Geometry) path(leaf int) []int {
	return g.appendPath(make([]int, 0, g.Levels+1), leaf)
}

// appendPath appends the root-first path to leaf to dst.
func (g Geometry) appendPath(dst []int, leaf int) []int {
	for lvl := 0; lvl <= g.Levels; lvl++ {
		dst = append(dst, g.pathBucket(leaf, lvl))
	}
	return dst
}

// evictLeaf returns the g-th eviction target leaf in Ring ORAM's
// deterministic reverse-lexicographic order: the bit-reversal of the
// eviction counter modulo the leaf count. This determinism is what makes
// crash recovery cheap (§8): the set of buckets written by any epoch is a
// pure function of the eviction counter.
func (g Geometry) evictLeaf(evictCount uint64) int {
	n := uint(evictCount) % uint(g.Leaves)
	return int(bits.Reverse(n) >> (bits.UintSize - g.Levels))
}
