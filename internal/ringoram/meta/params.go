// Package meta is Ring ORAM's public machine: the client metadata that alone
// decides the storage trace — the position map, each bucket's permutation,
// valid bits and version, the stash's membership, the access and eviction
// counters and the schedule — and no block or value byte. Obladi's privacy
// argument is that what the adversary sees is a function of this metadata
// and of the public parameters; the package imports nothing but the standard
// library (TestImportsStandardLibraryOnly), so the code that decides the trace
// cannot see a value.
//
// A Machine plans whole logical operations: PlanRead and PlanWrite mutate the
// metadata and return each step — the access, then the early reshuffles and
// evict-paths it made due, Ring ORAM's schedule, which this package alone
// decides (plan.go) — as a Plan that lists the exact physical slot reads. Its
// driver (the executor in package oramexec, or ringoram's Seq) performs the
// I/O and completes each step here, in plan order. The machine drives the
// byte plane (package ringoram's ORAM) it was given once, at New or Restore:
// the plane moves the blocks, known by the handles this package names them
// by (Block), and stores each write's value as the machine plans it.
//
// The package also owns both formats of the recovery log's payloads: a batch
// record, the steps of one planned batch (BatchLog, DecodeBatchLog), which
// Replay plans again one step per entry, refusing any the schedule does not
// owe (batchlog.go); and a checkpoint image of the metadata, whose stash
// values the byte plane hands in (checkpoint.go).
package meta

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	// tree geometry, and a negative limit is refused. The durability layer pads the logged stash to this
	// size so its true size is never revealed.
	StashLimit int
	// DisableEncryption stores slots in plaintext. Only for measuring
	// crypto overhead (the "Parallel" vs "ParallelCrypto" series of
	// Figure 10a); never secure.
	DisableEncryption bool
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

// ErrBadParams is the error Validate and NewPublic refuse parameters with.
var ErrBadParams = errors.New("ringoram: invalid parameters")

// Validate checks the parameters and fills in defaults.
func (p *Params) Validate() error {
	if p.NumBlocks <= 0 {
		return fmt.Errorf("%w: NumBlocks %d", ErrBadParams, p.NumBlocks)
	}
	if p.Z <= 0 || p.S <= 0 || p.A <= 0 {
		return fmt.Errorf("%w: Z=%d S=%d A=%d must be positive", ErrBadParams, p.Z, p.S, p.A)
	}
	if p.A > p.S {
		// A bucket must survive A accesses between evictions touching it;
		// with A > S the dummies of a bucket on every path (the root) can
		// be exhausted between two of its evictions faster than early
		// reshuffles amortize. Canonical Ring ORAM requires S >= A.
		return fmt.Errorf("%w: require A (%d) <= S (%d)", ErrBadParams, p.A, p.S)
	}
	if p.KeySize == 0 {
		p.KeySize = 64
	}
	if p.ValueSize == 0 {
		p.ValueSize = 256
	}
	if p.KeySize < 1 || p.KeySize > 1<<16-1 {
		return fmt.Errorf("%w: KeySize %d", ErrBadParams, p.KeySize)
	}
	if p.ValueSize < 1 {
		return fmt.Errorf("%w: ValueSize %d", ErrBadParams, p.ValueSize)
	}
	if p.StashLimit < 0 {
		return fmt.Errorf("%w: StashLimit %d", ErrBadParams, p.StashLimit)
	}
	// A batch record stores slot indices and slot counts in at most two
	// bytes and bucket ids in four; a checkpoint header stores the bucket
	// and block counts in four, and its sized fields take up to four bytes,
	// a bucket's all ones meaning none. The key table counts in int32.
	g := p.Geometry()
	if g.SlotsPer >= 1<<16 || uint64(g.NumBuckets) >= math.MaxUint32 || p.NumBlocks > math.MaxInt32 {
		return fmt.Errorf("%w: %d slots per bucket, %d buckets and %d blocks exceed the log formats", ErrBadParams, g.SlotsPer, g.NumBuckets, p.NumBlocks)
	}
	if p.StashLimit == 0 {
		p.StashLimit = p.Z*(g.Levels+1) + 4*p.A + 64
	}
	return nil
}

// Public is a deployment's public parameters, validated once: the ORAM's
// Params, the epoch schedule — R read batches of bread keys, then one write
// batch of bwrite — and the full-checkpoint cadence. The adversary may learn
// exactly these, and every padded size the recovery log writes is derived from
// them by a method here, so no caller computes or sets one. NewPublic builds
// the value; nothing changes it afterwards.
type Public struct {
	params                                     Params
	readBatches, readBatchSize, writeBatchSize int
	fullCheckpointEvery                        int
}

// NewPublic validates p, the schedule and the cadence, and returns their one
// value. p gets Validate's defaults; a zero R, bread, bwrite or cadence
// selects 4, 32, 32 or 16, and a negative one is refused.
func NewPublic(p Params, readBatches, readBatchSize, writeBatchSize, fullCheckpointEvery int) (*Public, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pub := &Public{params: p}
	for _, f := range []struct {
		name   string
		v, def int
		dst    *int
	}{
		{"ReadBatches", readBatches, 4, &pub.readBatches},
		{"ReadBatchSize", readBatchSize, 32, &pub.readBatchSize},
		{"WriteBatchSize", writeBatchSize, 32, &pub.writeBatchSize},
		{"FullCheckpointEvery", fullCheckpointEvery, 16, &pub.fullCheckpointEvery},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("%w: %s %d", ErrBadParams, f.name, f.v)
		}
		*f.dst = cmp.Or(f.v, f.def)
	}
	return pub, nil
}

// Params returns the validated ORAM parameters.
func (pub *Public) Params() Params { return pub.params }

// ReadBatches is R, the read batches of an epoch.
func (pub *Public) ReadBatches() int { return pub.readBatches }

// ReadBatchSize is bread, the keys of a read batch.
func (pub *Public) ReadBatchSize() int { return pub.readBatchSize }

// WriteBatchSize is bwrite, the keys of an epoch's write batch.
func (pub *Public) WriteBatchSize() int { return pub.writeBatchSize }

// FullCheckpointEvery is the cadence: every this many epochs a checkpoint
// is full, the others are deltas.
func (pub *Public) FullCheckpointEvery() int { return pub.fullCheckpointEvery }

// CheckpointPad is the shape every checkpoint is padded to (§8): a delta's
// position map to the most keys an epoch can touch, R·bread + bwrite, and the
// stash to its limit. Padding stash entries carry no value bytes, so the
// stash section's size still tracks the real entries' value lengths.
func (pub *Public) CheckpointPad() CheckpointPad {
	return CheckpointPad{
		PosEntries:   pub.readBatches*pub.readBatchSize + pub.writeBatchSize,
		StashEntries: pub.params.StashLimit,
		ValueSize:    0,
	}
}

// LogRecordBound is the most records one shard's recovery log retains. A
// full checkpoint's cut runs at the end of its own epoch's commit stage, so
// just before it the log holds the previous full checkpoint, the C epochs
// since — R read batches, a write batch and a checkpoint each — and, under
// the pipelined boundary, the read batches of the one epoch that overlaps the
// commit (its write batch waits for the boundary slot, which the cut frees):
// C·(R+2) + R + 1 = (C+1)(R+2) − 1.
func (pub *Public) LogRecordBound() int {
	return (pub.fullCheckpointEvery+1)*(pub.readBatches+2) - 1
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

// PathBucket returns the heap index of the bucket at the given level
// (0 = root) on the path from the root to leaf: in 1-based heap numbering
// the leaf bucket is Leaves+leaf and its ancestor at level is that number
// shifted right by Levels-level.
func (g Geometry) PathBucket(leaf, level int) int {
	return (g.Leaves+leaf)>>(g.Levels-level) - 1
}

// Path returns all bucket indices from root to leaf, root first.
func (g Geometry) Path(leaf int) []int {
	return g.AppendPath(make([]int, 0, g.Levels+1), leaf)
}

// AppendPath appends the root-first path to leaf to dst.
func (g Geometry) AppendPath(dst []int, leaf int) []int {
	for lvl := 0; lvl <= g.Levels; lvl++ {
		dst = append(dst, g.PathBucket(leaf, lvl))
	}
	return dst
}

// BucketLevel returns the depth of a heap bucket index.
func BucketLevel(b int) int { return bits.Len(uint(b+1)) - 1 }

// EvictLeaf returns the g-th eviction target leaf in Ring ORAM's
// deterministic reverse-lexicographic order: the bit-reversal of the
// eviction counter modulo the leaf count. This determinism is what makes
// crash recovery cheap (§8): the set of buckets written by any epoch is a
// pure function of the eviction counter.
func (g Geometry) EvictLeaf(evictCount uint64) int {
	n := uint(evictCount) % uint(g.Leaves)
	return int(bits.Reverse(n) >> (bits.UintSize - g.Levels))
}
