package meta

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func testParams(n int) Params {
	return Params{NumBlocks: n, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 32, Seed: 42}
}

// complete completes steps in plan order through the one Complete, with no
// slot data: every test machine's plane moves no byte.
func complete(t testing.TB, m *Machine, steps []*Plan) {
	t.Helper()
	for _, p := range steps {
		_, err := m.Complete(p, make([][]byte, len(p.Reads)))
		must(t, err)
	}
}

// values is a byte-free Plane: every key's last written content, keyed by
// key — what the byte plane's stash slots hold, as the machine alone knows
// it. It delivers, places and releases nothing.
type values map[string]value

type value struct {
	v         []byte
	tombstone bool
}

func (vs values) Deliver(SlotRead, []byte, string) error { return nil }
func (vs values) Place(*BucketWrite)                     {}
func (vs values) Release(Image)                          {}

// Seed answers deterministically: the bucket and the version, big-endian.
// Only a plane that seals must draw seeds fresh.
func (vs values) Seed(b int, ver uint64) Seed {
	var s Seed
	binary.BigEndian.PutUint32(s[:4], uint32(b))
	binary.BigEndian.PutUint64(s[4:], ver)
	return s
}

func (vs values) Value(_ Block, key string) ([]byte, bool, error) {
	v, ok := vs[key]
	if !ok {
		return nil, false, fmt.Errorf("no value for %q", key)
	}
	return v.v, v.tombstone, nil
}

func (vs values) Put(_ Block, key string, v []byte, tombstone bool) error {
	vs[key] = value{v: v, tombstone: tombstone}
	return nil
}

// checkBucketBits recomputes bucket b's bitsets slot by slot from perm,
// addrs and validity and fails unless its words equal them: valid has no
// member past the last slot, occ is exactly the occupied real positions, and
// filler exactly the positions that hold no block and whose slot is valid.
func checkBucketBits(t *testing.T, m *Machine, b int) {
	t.Helper()
	bm := m.bucket(b)
	n, z := m.geo.SlotsPer, m.p.Z
	if words := len(bm.valid) + len(bm.filler) + len(bm.occ); len(bm.perm) != n || len(bm.addrs) != z || words != metaWords(n, z) {
		t.Fatalf("bucket %d: %d slots, %d real positions, %d words", b, len(bm.perm), len(bm.addrs), words)
	}
	valid := make([]bool, n)
	wantValid := make(bitset, wordsFor(n))
	for s := range valid {
		if valid[s] = bm.valid.has(s); valid[s] {
			wantValid[s/64] |= 1 << (s % 64)
		}
	}
	wantFiller, wantOcc := make(bitset, wordsFor(n)), make(bitset, wordsFor(z))
	for pos, s := range bm.perm {
		switch occupied := pos < z && bm.addrs[pos] >= 0; {
		case occupied:
			wantOcc[pos/64] |= 1 << (pos % 64)
		case valid[s]:
			wantFiller[pos/64] |= 1 << (pos % 64)
		}
	}
	for _, c := range []struct {
		name      string
		got, want bitset
	}{{"valid", bm.valid, wantValid}, {"occupied", bm.occ, wantOcc}, {"filler", bm.filler, wantFiller}} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("bucket %d: %s bitset %x, the per-slot rule gives %x (perm %v, addrs %v)", b, c.name, c.got, c.want, bm.perm, bm.addrs)
		}
	}
}

// checkMachine verifies the metadata's structural invariants: every
// allocated key is either in the stash or in a bucket on the path to its
// leaf, where the bucket's addrs name it at its position; every bucket's
// bitsets match the per-slot rule and its occupied real slots are valid; the
// location index is exactly the set of occupied addresses; and the stash
// list, the stash map and the key table agree.
func checkMachine(t *testing.T, m *Machine) {
	t.Helper()
	for i, k := range m.keyRows() {
		if ki, _ := m.keys.lookup(k.name); ki != int32(i) {
			t.Fatalf("key %q sits at table index %d, index says %d", k.name, i, ki)
		}
		if _, inStash := m.stash[int32(i)]; inStash {
			if k.bucket >= 0 {
				t.Fatalf("key %q both in stash and tree", k.name)
			}
			continue
		}
		if k.bucket < 0 {
			t.Fatalf("key %q neither in stash nor in tree", k.name)
		}
		if !slices.Contains(m.geo.Path(int(k.leaf)), int(k.bucket)) {
			t.Fatalf("key %q (leaf %d) resides in bucket %d, off its path", k.name, k.leaf, k.bucket)
		}
		if got := m.bucket(int(k.bucket)).addrs[k.rpos]; got != int32(i) {
			t.Fatalf("loc index says bucket %d pos %d holds %q (index %d), metadata says index %d", k.bucket, k.rpos, k.name, i, got)
		}
	}
	occupied := 0
	for b := range m.buckets {
		checkBucketBits(t, m, b)
		bm := m.bucket(b)
		for r, ki := range bm.addrs {
			if ki < 0 {
				continue
			}
			occupied++
			k := m.keyRow(ki)
			if !bm.valid.has(int(bm.perm[r])) {
				t.Fatalf("bucket %d: occupied real slot for %q is invalid", b, k.name)
			}
			if int(k.bucket) != b || int(k.rpos) != r {
				t.Fatalf("loc index out of sync for %q", k.name)
			}
		}
	}
	resident := 0
	for _, b := range m.keys.bucket {
		if b >= 0 {
			resident++
		}
	}
	if occupied != resident {
		t.Fatalf("loc index has %d entries, metadata has %d occupied slots", resident, occupied)
	}
	if len(m.stashList) != len(m.stash) {
		t.Fatalf("stash list has %d entries, stash map %d", len(m.stashList), len(m.stash))
	}
	for i, e := range m.stashList {
		if e.idx != i || m.stash[e.ki] != e || m.keys.name(e.ki) != e.key || m.entries[e.blk] != e {
			t.Fatalf("stash list entry %d (%q, idx %d, key index %d, block %d) out of sync with the stash map, the key table or the entry table", i, e.key, e.idx, e.ki, e.blk)
		}
	}
}

// runWorkload drives a machine alone through a seeded mix of writes, deletes,
// reads and padding reads over numKeys keys, completing every operation as
// the byte plane would and checking the metadata after each.
func runWorkload(t *testing.T, p Params, seed uint64, numKeys, ops int) *Machine {
	t.Helper()
	p.NumBlocks, p.Seed = numKeys, seed
	m, err := New(p, values{})
	must(t, err)
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var steps []*Plan
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key-%d", rng.IntN(numKeys))
		switch op := rng.IntN(10); {
		case op < 5:
			steps, err = m.PlanWrite(k, []byte(k), false, steps[:0])
		case op < 9:
			steps, err = m.PlanRead(k, steps[:0])
		default:
			steps, err = m.PlanRead("", steps[:0])
		}
		must(t, err)
		complete(t, m, steps)
		checkMachine(t, m)
	}
	if m.StashPeak() > m.p.StashLimit {
		t.Fatalf("stash peak %d exceeds limit %d", m.StashPeak(), m.p.StashLimit)
	}
	return m
}

// TestMachineInvariants runs seeded workloads on the machine alone — a small
// tree, a larger one and one whose buckets span two bitset words (Z=25,
// S=40) — and checks every invariant after every operation: the metadata
// checks the byte plane's property tests make from checkpoint images, and the
// bitset words against the per-slot rule, which only this package can see.
func TestMachineInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		runWorkload(t, testParams(0), seed|1, 32, 300)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	runWorkload(t, testParams(0), 99, 200, 1500)
	runWorkload(t, Params{Z: 25, S: 40, A: 25, KeySize: 16, ValueSize: 32}, 7, 300, 1500)
}

// TestRestoreKeepsInvariants: a machine restored from a full image and a
// delta holds every invariant, its bitsets derived from the images' valid
// maps and placements.
func TestRestoreKeepsInvariants(t *testing.T) {
	m := runWorkload(t, testParams(0), 5, 64, 400)
	full, err := m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
	must(t, err)
	m.ClearDirty()
	for i := 0; i < 50; i++ {
		steps, err := m.PlanWrite(fmt.Sprintf("key-%d", i), []byte("w"), false, nil)
		must(t, err)
		complete(t, m, steps)
	}
	delta, err := m.EncodeCheckpoint(nil, false, CheckpointPad{}, 0, 0)
	must(t, err)
	restored, err := Restore(m.p, values{}, full, delta)
	must(t, err)
	checkMachine(t, restored)
	for b := range m.buckets {
		nw := metaWords(m.geo.SlotsPer, m.p.Z)
		if live, got := row(m.words, b, nw), row(restored.words, b, nw); !slices.Equal(live, got) {
			t.Fatalf("bucket %d: restored bitsets %x, live %x", b, got, live)
		}
	}
}

// TestRestoreRefusesKeyOffItsPath: Restore refuses an image that places a key
// in a bucket off its leaf's path — a full image that says so, or a full
// image and a delta that remaps the key the full image places — instead of
// restoring a client whose first read of the key would consume a filler in
// every bucket of the path and only then refuse.
func TestRestoreRefusesKeyOffItsPath(t *testing.T) {
	m := runWorkload(t, testParams(0), 5, 64, 400)
	full, err := m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
	must(t, err)
	_, err = Restore(m.p, values{}, full)
	must(t, err)
	m.ClearDirty()
	// A key below the root, moved to a leaf whose path misses its bucket.
	rows := m.keyRows()
	ki := slices.IndexFunc(rows, func(k keyRow) bool { return k.bucket > 0 })
	if ki < 0 {
		t.Fatal("no key resides below the root")
	}
	k := rows[ki]
	off := 0
	for m.geo.PathBucket(off, BucketLevel(int(k.bucket))) == int(k.bucket) {
		off++
	}
	m.remap(int32(ki), off)
	delta, err := m.EncodeCheckpoint(nil, false, CheckpointPad{}, 0, 0)
	must(t, err)
	offFull, err := m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
	must(t, err)
	for name, images := range map[string][][]byte{"full": {offFull}, "full and delta": {full, delta}} {
		if _, err := Restore(m.p, values{}, images[0], images[1:]...); err == nil || !strings.Contains(err.Error(), "off its leaf") {
			t.Fatalf("%s: Restore of %q in bucket %d with leaf %d: %v, want a refusal", name, k.name, k.bucket, off, err)
		}
	}
}

// TestBlindWriteRetiresTreeCopy: a write of a key resident in the tree
// blanks its position without reading it, and the position becomes a
// filler — no key holds it, and its slot is still valid.
func TestBlindWriteRetiresTreeCopy(t *testing.T) {
	m, err := New(testParams(64), values{})
	must(t, err)
	var steps []*Plan
	for i := 0; i < 64; i++ {
		steps, err = m.PlanWrite(fmt.Sprintf("k%d", i), nil, false, steps[:0])
		must(t, err)
		complete(t, m, steps)
	}
	retired := 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		k := m.keyRowOf(key)
		if k.bucket < 0 {
			continue
		}
		steps, err = m.PlanWrite(key, nil, false, steps[:0])
		must(t, err)
		if len(steps) == 1 { // an evict-path the write made due could rewrite the bucket
			bm := m.bucket(int(k.bucket))
			if ki := bm.addrs[k.rpos]; ki >= 0 {
				t.Fatalf("%s: retired position %d of bucket %d is held by %q", key, k.rpos, k.bucket, m.keys.name(ki))
			}
			if !bm.valid.has(int(bm.perm[k.rpos])) || !bm.filler.has(int(k.rpos)) {
				t.Fatalf("%s: retired position %d of bucket %d is no valid filler", key, k.rpos, k.bucket)
			}
			checkMachine(t, m)
			retired++
		}
		complete(t, m, steps)
	}
	if retired == 0 {
		t.Fatal("no key was resident in the tree to retire")
	}
}

// TestPropertyRemapChangesLeaf: over many accesses of one key, the assigned
// leaf takes many distinct values (each access remaps uniformly).
func TestPropertyRemapChangesLeaf(t *testing.T) {
	p := testParams(64)
	p.Seed = 5
	m, err := New(p, values{})
	must(t, err)
	steps, err := m.PlanWrite("k", nil, false, nil)
	must(t, err)
	complete(t, m, steps)
	leaves := make(map[int32]bool)
	for i := 0; i < 64; i++ {
		steps, err = m.PlanRead("k", steps[:0])
		must(t, err)
		complete(t, m, steps)
		leaves[m.keyRowOf("k").leaf] = true
	}
	// 64 samples over 16 leaves: expect nearly all leaves hit; require > half.
	if len(leaves) <= m.geo.Leaves/2 {
		t.Fatalf("remapping visited only %d of %d leaves over 64 accesses", len(leaves), m.geo.Leaves)
	}
}

// TestDeltaListsEachDirtyBucketOnce: delta tracking lists every bucket an
// epoch dirtied once, as touched or as rewritten, and the delta carries an
// entry for each.
func TestDeltaListsEachDirtyBucketOnce(t *testing.T) {
	m := runWorkload(t, testParams(0), 26, 64, 400)
	m.ClearDirty()
	var steps []*Plan
	var err error
	for range 2 {
		steps, err = m.PlanWrite("fresh", []byte("v"), false, steps[:0])
		must(t, err)
		complete(t, m, steps)
	}
	for i := 0; i < 40; i++ {
		steps, err = m.PlanRead(fmt.Sprintf("key-%d", i), steps[:0])
		must(t, err)
		complete(t, m, steps)
	}
	delta, err := m.EncodeCheckpoint(nil, false, CheckpointPad{}, 0, 0)
	must(t, err)
	info, err := InspectImage(delta)
	must(t, err)
	seen := make(map[int32]bool)
	for _, b := range m.dirtyBuckets {
		if seen[b] {
			t.Fatalf("delta tracking lists bucket %d twice", b)
		}
		seen[b] = true
	}
	if info.Buckets != len(seen) || info.Buckets == 0 {
		t.Fatalf("the delta carries %d bucket entries, the epoch dirtied %d buckets", info.Buckets, len(seen))
	}
}
