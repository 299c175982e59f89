package ringoram

import (
	"errors"
	"slices"
	"testing"

	"obladi/internal/ringoram/meta"
)

func TestValidateDefaults(t *testing.T) {
	p := Params{NumBlocks: 100, Z: 4, S: 6, A: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.KeySize != 64 || p.ValueSize != 256 {
		t.Fatalf("defaults not applied: KeySize=%d ValueSize=%d", p.KeySize, p.ValueSize)
	}
	if p.StashLimit <= 0 {
		t.Fatal("no default stash limit")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Params{
		{NumBlocks: 0, Z: 1, S: 1, A: 1},
		{NumBlocks: 10, Z: 0, S: 1, A: 1},
		{NumBlocks: 10, Z: 1, S: 0, A: 1},
		{NumBlocks: 10, Z: 1, S: 1, A: 0},
		{NumBlocks: 10, Z: 1, S: 2, A: 3}, // A > S
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
}

// TestValidateRejectsNegativeStashLimit: 0 selects the default limit, and a
// negative one is refused up front, not by the first write's overflow.
func TestValidateRejectsNegativeStashLimit(t *testing.T) {
	p := Params{NumBlocks: 100, Z: 4, S: 6, A: 4, StashLimit: -1}
	if err := p.Validate(); !errors.Is(err, meta.ErrBadParams) {
		t.Fatalf("StashLimit -1: %v, want a parameter error", err)
	}
	p.StashLimit = 0
	if err := p.Validate(); err != nil || p.StashLimit <= 0 {
		t.Fatalf("StashLimit 0: %v, limit %d, want the default", err, p.StashLimit)
	}
}

// TestValidateRejectsGeometryPastLogFormats: a batch record stores slot
// indices and per-bucket counts in at most two bytes and bucket ids in four,
// a checkpoint header the bucket and block counts in four, and key-table
// indices are int32, so a geometry past them is refused up front, not by the
// first checkpoint or, in a batch record, truncated silently.
func TestValidateRejectsGeometryPastLogFormats(t *testing.T) {
	for _, c := range []struct {
		p  Params
		ok bool
	}{
		{Params{NumBlocks: 100, Z: 1, S: 65534, A: 1}, true},  // Z+S = 65 535
		{Params{NumBlocks: 100, Z: 1, S: 65535, A: 1}, false}, // Z+S = 65 536
		{Params{NumBlocks: 100, Z: 1, S: 65536, A: 1}, false},
		{Params{NumBlocks: 1 << 30, Z: 1, S: 1, A: 1}, true},  // 2^31 - 1 buckets
		{Params{NumBlocks: 1 << 31, Z: 1, S: 1, A: 1}, false}, // 2^32 - 1 buckets
		{Params{NumBlocks: 1<<31 - 1, Z: 4, S: 6, A: 4}, true},
		{Params{NumBlocks: 1 << 31, Z: 4, S: 6, A: 4}, false}, // more keys than an int32 counts
	} {
		err := c.p.Validate()
		if c.ok && err != nil || !c.ok && !errors.Is(err, meta.ErrBadParams) {
			t.Errorf("Z=%d S=%d NumBlocks=%d (%d buckets): %v, want ok=%v", c.p.Z, c.p.S, c.p.NumBlocks, c.p.Geometry().NumBuckets, err, c.ok)
		}
	}
}

// TestPublicPadsAndLogBound pins the value's derived sizes for the benchmark
// workloads' geometries and schedules, obladi.Open's defaults, and the core
// lifecycle tests' short cadence. Every case leaves StashLimit 0, so the
// stash pad is the limit Validate derives. A pad is part of every checkpoint
// record's size, so a derivation that drifts fails here by number.
func TestPublicPadsAndLogBound(t *testing.T) {
	for _, c := range []struct {
		name                      string
		p                         Params
		r, bread, bwrite, cadence int
		pos, stash, bound         int
	}{
		{"kv-mem, kv-contend", Params{NumBlocks: 16384, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 256}, 4, 32, 64, 0, 192, 304, 101},
		{"bank-disk", Params{NumBlocks: 5250, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 64}, 4, 32, 64, 0, 192, 288, 101},
		{"kv-wire", Params{NumBlocks: 16384, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 256}, 4, 16, 32, 0, 96, 304, 101},
		{"obladi.Open defaults", Params{NumBlocks: 8192, Z: 8, S: 12, A: 8}, 0, 0, 0, 0, 160, 184, 101},
		{"lifecycle", Params{NumBlocks: 256, Z: 4, S: 6, A: 3, KeySize: 32, ValueSize: 32}, 2, 4, 8, 3, 16, 104, 15},
	} {
		pub, err := meta.NewPublic(c.p, c.r, c.bread, c.bwrite, c.cadence)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		validated := c.p
		if err := validated.Validate(); err != nil {
			t.Fatal(err)
		}
		if pub.Params() != validated {
			t.Errorf("%s: the value holds %+v, Validate gives %+v", c.name, pub.Params(), validated)
		}
		want := meta.CheckpointPad{PosEntries: c.pos, StashEntries: c.stash}
		if got := pub.CheckpointPad(); got != want || got.StashEntries != validated.StashLimit {
			t.Errorf("%s: pad %+v, want %+v (stash limit %d)", c.name, got, want, validated.StashLimit)
		}
		if got := pub.LogRecordBound(); got != c.bound {
			t.Errorf("%s: log bound %d, want %d", c.name, got, c.bound)
		}
	}
}

func TestGeometryShape(t *testing.T) {
	cases := []struct {
		n, z           int
		levels, leaves int
	}{
		{100, 4, 5, 32}, // ceil(100/4)=25 -> 32 leaves
		{100_000, 100, 10, 1024},
		{10_000, 100, 7, 128},       // matches Table 11b: 10K objects, 7 levels
		{1_000_000, 100, 14, 16384}, // 1M objects, 14 levels
		{1, 4, 1, 2},
		{8, 4, 1, 2},
		{9, 4, 2, 4},
	}
	for _, c := range cases {
		g := Params{NumBlocks: c.n, Z: c.z, S: c.z, A: c.z}.Geometry()
		if g.Levels != c.levels || g.Leaves != c.leaves {
			t.Errorf("N=%d Z=%d: levels=%d leaves=%d, want %d/%d", c.n, c.z, g.Levels, g.Leaves, c.levels, c.leaves)
		}
		if g.NumBuckets != 2*g.Leaves-1 {
			t.Errorf("N=%d: buckets=%d leaves=%d", c.n, g.NumBuckets, g.Leaves)
		}
		if g.Leaves*c.z < c.n {
			t.Errorf("N=%d Z=%d: leaf capacity %d < N", c.n, c.z, g.Leaves*c.z)
		}
	}
}

func TestPathBucket(t *testing.T) {
	g := Params{NumBlocks: 32, Z: 4, S: 4, A: 4}.Geometry() // 3 levels, 8 leaves
	if g.Levels != 3 {
		t.Fatalf("levels = %d", g.Levels)
	}
	// Root is always bucket 0.
	for leaf := 0; leaf < g.Leaves; leaf++ {
		if b := g.PathBucket(leaf, 0); b != 0 {
			t.Fatalf("path(%d) level 0 = %d", leaf, b)
		}
		if b := g.PathBucket(leaf, g.Levels); b != leafBucket(g, leaf) {
			t.Fatalf("path(%d) leaf level = %d, want %d", leaf, b, leafBucket(g, leaf))
		}
	}
	// Consecutive levels are parent/child.
	for leaf := 0; leaf < g.Leaves; leaf++ {
		for lvl := 1; lvl <= g.Levels; lvl++ {
			child := g.PathBucket(leaf, lvl)
			parent := g.PathBucket(leaf, lvl-1)
			if (child-1)/2 != parent {
				t.Fatalf("leaf %d: level %d bucket %d not child of %d", leaf, lvl, child, parent)
			}
		}
	}
}

func TestPathRootFirst(t *testing.T) {
	g := Params{NumBlocks: 32, Z: 4, S: 4, A: 4}.Geometry()
	p := g.Path(5)
	if len(p) != g.Levels+1 {
		t.Fatalf("path length %d", len(p))
	}
	if p[0] != 0 {
		t.Fatalf("path does not start at root: %v", p)
	}
	if p[len(p)-1] != leafBucket(g, 5) {
		t.Fatalf("path does not end at leaf bucket: %v", p)
	}
}

func TestEvictLeafReverseLexicographic(t *testing.T) {
	g := Params{NumBlocks: 32, Z: 4, S: 4, A: 4}.Geometry() // 8 leaves
	// Bit-reversed order for 3 bits: 0,4,2,6,1,5,3,7 then repeats.
	want := []int{0, 4, 2, 6, 1, 5, 3, 7, 0, 4}
	for i, w := range want {
		if got := g.EvictLeaf(uint64(i)); got != w {
			t.Fatalf("evictLeaf(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestEvictLeafCoversAllLeaves(t *testing.T) {
	g := Params{NumBlocks: 1000, Z: 4, S: 4, A: 4}.Geometry()
	seen := make(map[int]bool)
	for i := 0; i < g.Leaves; i++ {
		seen[g.EvictLeaf(uint64(i))] = true
	}
	if len(seen) != g.Leaves {
		t.Fatalf("one eviction cycle covered %d of %d leaves", len(seen), g.Leaves)
	}
}

func TestBucketLevel(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 14: 3}
	for b, want := range cases {
		if got := meta.BucketLevel(b); got != want {
			t.Fatalf("BucketLevel(%d) = %d, want %d", b, got, want)
		}
	}
}

// leafBucket maps a leaf index [0, Leaves) to its heap bucket index.
func leafBucket(g meta.Geometry, leaf int) int { return g.Leaves - 1 + leaf }

// pathBucketLoop, appendPathLoop and bucketLevelLoop are the path helpers as
// loops, one tree level a step: the reference the closed forms must equal.
func pathBucketLoop(g meta.Geometry, leaf, level int) int {
	b := leafBucket(g, leaf)
	for i := g.Levels; i > level; i-- {
		b = (b - 1) / 2
	}
	return b
}

func appendPathLoop(g meta.Geometry, dst []int, leaf int) []int {
	for lvl := 0; lvl <= g.Levels; lvl++ {
		dst = append(dst, pathBucketLoop(g, leaf, lvl))
	}
	return dst
}

func bucketLevelLoop(b int) int {
	lvl := 0
	for b > 0 {
		b = (b - 1) / 2
		lvl++
	}
	return lvl
}

// TestPathHelpersMatchLoops checks PathBucket, AppendPath and BucketLevel
// against their loop forms for every leaf and level of trees of 1 to 12
// levels, and BucketLevel for every bucket of them.
func TestPathHelpersMatchLoops(t *testing.T) {
	for levels := 1; levels <= 12; levels++ {
		g := Params{NumBlocks: 4 << levels, Z: 4, S: 4, A: 4}.Geometry()
		if g.Levels != levels {
			t.Fatalf("NumBlocks %d gives %d levels, want %d", 4<<levels, g.Levels, levels)
		}
		for leaf := 0; leaf < g.Leaves; leaf++ {
			for lvl := 0; lvl <= g.Levels; lvl++ {
				if got, want := g.PathBucket(leaf, lvl), pathBucketLoop(g, leaf, lvl); got != want {
					t.Fatalf("%d levels: PathBucket(%d, %d) = %d, the loop gives %d", levels, leaf, lvl, got, want)
				}
			}
			if got, want := g.AppendPath([]int{-1}, leaf), appendPathLoop(g, []int{-1}, leaf); !slices.Equal(got, want) {
				t.Fatalf("%d levels: AppendPath(%d) = %v, the loop gives %v", levels, leaf, got, want)
			}
		}
		for b := 0; b < g.NumBuckets; b++ {
			if got, want := meta.BucketLevel(b), bucketLevelLoop(b); got != want {
				t.Fatalf("BucketLevel(%d) = %d, the loop gives %d", b, got, want)
			}
		}
	}
}
