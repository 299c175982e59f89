package ringoram

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"obladi/internal/cryptoutil"
)

// checkPathInvariant verifies, on o's full checkpoint image, that every
// allocated key is either in the stash or in some bucket on the path from the
// root to its assigned leaf.
func checkPathInvariant(t *testing.T, o *ORAM) {
	t.Helper()
	s := snap(t, o)
	stashed := make(map[string]bool)
	for _, e := range s.stash {
		stashed[e.key] = true
	}
	for _, k := range s.keys {
		if stashed[k.name] {
			continue
		}
		if k.bucket < 0 {
			t.Fatalf("key %q neither in stash nor in tree", k.name)
		}
		if !slices.Contains(o.geo.Path(k.leaf), k.bucket) {
			t.Fatalf("key %q (leaf %d) resides in bucket %d, off its path", k.name, k.leaf, k.bucket)
		}
	}
}

// checkMetaConsistency verifies, on o's full checkpoint image, the metadata's
// structural invariants: occupied real slots are valid, no two keys share a
// real position, no key is both in the tree and in the stash, and the stash
// lists each key of the table at most once, with a slot that decodes to it.
// The bitsets behind the image are the machine's to check
// (meta.TestMachineInvariants).
func checkMetaConsistency(t *testing.T, o *ORAM) {
	t.Helper()
	s := snap(t, o)
	type place struct{ bucket, pos int }
	placed := make(map[place]string)
	known := make(map[string]bool)
	for _, k := range s.keys {
		known[k.name] = true
		if k.bucket < 0 {
			continue
		}
		if k.bucket >= len(s.buckets) || k.pos >= o.p.Z {
			t.Fatalf("key %q placed at bucket %d position %d, off the tree", k.name, k.bucket, k.pos)
		}
		if prev, dup := placed[place{k.bucket, k.pos}]; dup {
			t.Fatalf("bucket %d position %d holds %q and %q", k.bucket, k.pos, prev, k.name)
		}
		placed[place{k.bucket, k.pos}] = k.name
		if bk := s.buckets[k.bucket]; !bk.valid[bk.perm[k.pos]] {
			t.Fatalf("bucket %d: occupied real slot for %q is invalid", k.bucket, k.name)
		}
	}
	stashed := make(map[string]bool)
	for _, e := range s.stash {
		if stashed[e.key] || !known[e.key] {
			t.Fatalf("stash entry %q: listed twice=%v, in the key table=%v", e.key, stashed[e.key], known[e.key])
		}
		stashed[e.key] = true
		if _, blk, err := o.cdc.parse(slotOf(t, o, e.key)); err != nil || string(blk.keyB) != e.key {
			t.Fatalf("stash entry %q: slot decodes to %q, %v", e.key, blk.keyB, err)
		}
	}
	for _, k := range s.keys {
		if stashed[k.name] && k.bucket >= 0 {
			t.Fatalf("key %q both in stash and tree", k.name)
		}
	}
}

// runRandomWorkload drives a Seq with a random workload checked against a
// map oracle, checking the metadata after every operation and the store's
// bucket invariant, the path invariant and the stash bound at the end.
func runRandomWorkload(t *testing.T, p Params, seed uint64, numKeys, ops int) {
	t.Helper()
	p.NumBlocks = numKeys
	p.Seed = seed
	store := newStore(p)
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("prop")), p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed+1))
	oracle := make(map[string]string)
	deleted := make(map[string]bool)
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key-%d", rng.IntN(numKeys))
		switch rng.IntN(10) {
		case 0, 1, 2, 3: // write
			v := fmt.Sprintf("val-%d", i)
			must(t, seq.Write(k, []byte(v)))
			oracle[k] = v
			delete(deleted, k)
		case 4: // delete
			must(t, seq.Delete(k))
			delete(oracle, k)
			deleted[k] = true
		default: // read
			v, found, err := seq.Read(k)
			if err != nil {
				t.Fatalf("op %d read %s: %v", i, k, err)
			}
			want, exists := oracle[k]
			if exists != found {
				t.Fatalf("op %d: %s found=%v, oracle exists=%v (deleted=%v)", i, k, found, exists, deleted[k])
			}
			if exists && string(v) != want {
				t.Fatalf("op %d: %s = %q, want %q", i, k, v, want)
			}
		}
		checkMetaConsistency(t, seq.ORAM())
	}
	if store.Violation() != nil {
		t.Fatalf("bucket invariant: %v", store.Violation())
	}
	checkPathInvariant(t, seq.ORAM())
	if limit := seq.ORAM().p.StashLimit; seq.ORAM().m.StashPeak() > limit {
		t.Fatalf("stash peak %d exceeds limit %d", seq.ORAM().m.StashPeak(), limit)
	}
}

func TestPropertyRandomWorkloads(t *testing.T) {
	f := func(seed uint64) bool {
		runRandomWorkload(t, testParams(0), seed|1, 32, 300)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLargerTree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runRandomWorkload(t, testParams(0), 99, 200, 1500)
}

// TestPropertyWideBuckets runs the workload at Z=25, S=40: 65 slots a
// bucket, so every bitset but occ spans two words.
func TestPropertyWideBuckets(t *testing.T) {
	runRandomWorkload(t, Params{Z: 25, S: 40, A: 25, KeySize: 16, ValueSize: 32}, 7, 300, 1500)
}

// TestBlindWriteRetiresTreeCopy: a write of a key resident in the tree
// blanks its position without reading it, and the position becomes a
// filler — no key holds it, and its slot is still valid.
func TestBlindWriteRetiresTreeCopy(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	o := seq.ORAM()
	for i := 0; i < 64; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
	}
	retired := 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		k := snapKeyOf(t, o, key)
		if k.bucket < 0 {
			continue
		}
		steps, err := o.PlanWrite(key, []byte("w"), false, nil)
		must(t, err)
		if len(steps) == 1 { // an evict-path the write made due could rewrite the bucket
			s := snap(t, o)
			for _, other := range s.keys {
				if other.bucket == k.bucket && other.pos == k.pos {
					t.Fatalf("%s: retired position %d of bucket %d is held by %q", key, k.pos, k.bucket, other.name)
				}
			}
			if bk := s.buckets[k.bucket]; !bk.valid[bk.perm[k.pos]] {
				t.Fatalf("%s: the slot of retired position %d of bucket %d is no longer valid", key, k.pos, k.bucket)
			}
			checkMetaConsistency(t, o)
			retired++
		}
		_, _, err = seq.run(steps)
		must(t, err)
	}
	if retired == 0 {
		t.Fatal("no key was resident in the tree to retire")
	}
}

func TestPropertyRemapChangesLeaf(t *testing.T) {
	// Over many accesses of one key, the assigned leaf must take many
	// distinct values (each access remaps uniformly).
	p := testParams(64)
	p.Seed = 5
	seq, _ := newTestSeq(t, p)
	must(t, seq.Write("k", []byte("v")))
	leaves := make(map[int]bool)
	for i := 0; i < 64; i++ {
		if _, _, err := seq.Read("k"); err != nil {
			t.Fatal(err)
		}
		leaves[snapKeyOf(t, seq.ORAM(), "k").leaf] = true
	}
	geo := seq.ORAM().geo
	// 64 samples over 16 leaves: expect nearly all leaves hit; require > half.
	if len(leaves) <= geo.Leaves/2 {
		t.Fatalf("remapping visited only %d of %d leaves over 64 accesses", len(leaves), geo.Leaves)
	}
}

func TestPropertyPathReadDistributionUniform(t *testing.T) {
	// The leaves of the paths read from storage must be uniformly
	// distributed regardless of the (skewed) workload: accesses to a single
	// hot key must look like random path reads. Chi-square test at a very
	// generous threshold.
	p := testParams(64)
	p.Seed = 11
	store := newStore(p)
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("uni")), p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("hot", []byte("v")))
	geo := seq.ORAM().geo
	counts := make([]int, geo.Leaves)
	const samples = 3200
	for i := 0; i < samples; i++ {
		steps, err := seq.ORAM().m.PlanRead("hot", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps[0].Reads) == 0 {
			// The proxy pads batches: a cache-served request is replaced by
			// a dummy path read, which is what the adversary observes.
			if _, _, err := seq.run(steps); err != nil {
				t.Fatal(err)
			}
			if steps, err = seq.ORAM().m.PlanRead("", nil); err != nil {
				t.Fatal(err)
			}
		}
		counts[steps[0].Leaf]++
		if _, _, err := seq.run(steps); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total < samples/2 {
		t.Fatalf("only %d of %d accesses hit storage", total, samples)
	}
	expected := float64(total) / float64(geo.Leaves)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.99th percentile is ~44.3. Anything near
	// uniform passes easily; a skewed distribution fails by miles.
	if chi2 > 60 {
		t.Fatalf("path distribution not uniform: chi2 = %.1f over %d leaves (counts %v)", chi2, geo.Leaves, counts)
	}
}

// snapKeyOf is key's position-map entry in o's full checkpoint image.
func snapKeyOf(t *testing.T, o *ORAM, key string) snapKey {
	t.Helper()
	for _, k := range snap(t, o).keys {
		if k.name == key {
			return k
		}
	}
	t.Fatalf("%q has no position-map entry", key)
	return snapKey{}
}

func TestPropertyStashBoundedUnderHotspot(t *testing.T) {
	// Repeatedly writing a few hot keys must not grow the stash: eviction
	// keeps it bounded.
	p := testParams(64)
	p.Seed = 3
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 2000; i++ {
		must(t, seq.Write(fmt.Sprintf("hot-%d", i%4), []byte(fmt.Sprintf("v%d", i))))
	}
	if peak := seq.ORAM().m.StashPeak(); peak > 16 {
		t.Fatalf("stash peak %d under a 4-key workload", peak)
	}
}

// encodeSlot seals one slot into a fresh frame, as SealImage seals each slot
// of a bucket that holds a block.
func (c codec) encodeSlot(kind byte, b block, binding []byte) ([]byte, error) {
	frame := make([]byte, c.slotSize())
	if err := c.encodePlain(c.plainOf(frame), kind, b); err != nil {
		return nil, err
	}
	if err := c.seal(frame, binding, new(cryptoutil.Nonces)); err != nil {
		return nil, err
	}
	return frame, nil
}

// decodeSlot opens and parses a stored slot, as completion does a remote read.
func (c codec) decodeSlot(data, binding []byte) (byte, block, error) {
	plain := make([]byte, c.plainSize())
	if err := c.open(plain, data, binding); err != nil {
		return 0, block{}, err
	}
	return c.parse(plain)
}

func TestQuickCodecRoundTrip(t *testing.T) {
	c := codec{keySize: 32, valueSize: 64, key: cryptoutil.KeyFromSeed([]byte("codec"))}
	f := func(rawKey []byte, value []byte, tomb bool) bool {
		if len(rawKey) > 32 {
			rawKey = rawKey[:32]
		}
		if len(rawKey) == 0 {
			rawKey = []byte("k")
		}
		if len(value) > 64 {
			value = value[:64]
		}
		kind := byte(slotReal)
		if tomb {
			kind = slotTombstone
		}
		binding := cryptoutil.Binding(1, 2, 3)
		enc, err := c.encodeSlot(kind, block{key: string(rawKey), value: value, tombstone: tomb}, binding)
		if err != nil {
			return false
		}
		if len(enc) != c.slotSize() {
			return false
		}
		gotKind, blk, err := c.decodeSlot(enc, binding)
		if err != nil || gotKind != kind {
			return false
		}
		return string(blk.keyB) == string(rawKey) && string(blk.value) == string(value) && blk.tombstone == tomb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecDummyIndistinguishableSize: a filler frame is as long as a sealed
// slot and leads with the same scheme byte.
func TestCodecDummyIndistinguishableSize(t *testing.T) {
	c := codec{keySize: 16, valueSize: 32, key: cryptoutil.KeyFromSeed([]byte("d"))}
	f, err := cryptoutil.NewFiller()
	if err != nil {
		t.Fatal(err)
	}
	d := make([]byte, c.slotSize())
	c.fill(d, f)
	r, err := c.encodeSlot(slotReal, block{key: "k", value: []byte("v")}, cryptoutil.Binding(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(r) || d[0] != r[0] {
		t.Fatalf("filler slot of %d bytes led by %d, real slot of %d bytes led by %d", len(d), d[0], len(r), r[0])
	}
}

func TestCodecRejectsWrongBinding(t *testing.T) {
	c := codec{keySize: 16, valueSize: 32, key: cryptoutil.KeyFromSeed([]byte("b"))}
	enc, err := c.encodeSlot(slotReal, block{key: "k", value: []byte("v")}, cryptoutil.Binding(3, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.decodeSlot(enc, cryptoutil.Binding(3, 8, 0)); err == nil {
		t.Fatal("stale bucket version accepted")
	}
}

// TestCodecRejectsUnknownKinds: parse accepts only a filler, a real slot and
// a tombstone; every other kind byte, the retired empty-real kind 2 among
// them, is an error.
func TestCodecRejectsUnknownKinds(t *testing.T) {
	c := codec{keySize: 16, valueSize: 32}
	plain := make([]byte, c.plainSize())
	for kind := 0; kind < 256; kind++ {
		plain[0] = byte(kind)
		_, _, err := c.parse(plain)
		known := kind == slotDummy || kind == slotReal || kind == slotTombstone
		if known != (err == nil) {
			t.Fatalf("slot kind %d: %v", kind, err)
		}
	}
}
