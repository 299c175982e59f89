package ringoram

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"obladi/internal/cryptoutil"
)

// checkPathInvariant verifies that every allocated key is either in the
// stash or in some bucket on the path from the root to its assigned leaf.
func checkPathInvariant(t *testing.T, o *ORAM) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range o.keys {
		key, leaf := o.keys[i].name, int(o.keys[i].leaf)
		if o.pos[key] != int32(i) {
			t.Fatalf("key %q sits at table index %d, index map says %d", key, i, o.pos[key])
		}
		if _, inStash := o.stash[key]; inStash {
			continue
		}
		bucket, rpos := int(o.keys[i].bucket), int(o.keys[i].rpos)
		if bucket < 0 {
			t.Fatalf("key %q neither in stash nor in tree", key)
		}
		onPath := false
		for lvl := 0; lvl <= o.geo.Levels; lvl++ {
			if o.geo.pathBucket(leaf, lvl) == bucket {
				onPath = true
				break
			}
		}
		if !onPath {
			t.Fatalf("key %q (leaf %d) resides in bucket %d, off its path", key, leaf, bucket)
		}
		if got := o.meta[bucket].addrs[rpos]; got != key {
			t.Fatalf("loc index says bucket %d pos %d holds %q, metadata says %q", bucket, rpos, key, got)
		}
	}
}

// checkMetaConsistency verifies structural invariants of the bucket
// metadata: occupied real slots are valid, and the loc index is exactly the
// set of occupied addresses.
func checkMetaConsistency(t *testing.T, o *ORAM) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	occupied := 0
	for b := range o.meta {
		m := &o.meta[b]
		for r, key := range m.addrs {
			if key == "" {
				continue
			}
			occupied++
			if !m.valid[m.perm[r]] {
				t.Fatalf("bucket %d: occupied real slot for %q is invalid", b, key)
			}
			if k := o.keys[o.pos[key]]; int(k.bucket) != b || int(k.rpos) != r {
				t.Fatalf("loc index out of sync for %q", key)
			}
		}
	}
	resident := 0
	for i := range o.keys {
		if o.keys[i].bucket >= 0 {
			resident++
		}
	}
	if occupied != resident {
		t.Fatalf("loc index has %d entries, metadata has %d occupied slots", resident, occupied)
	}
	if len(o.stashList) != len(o.stash) {
		t.Fatalf("stash list has %d entries, stash map %d", len(o.stashList), len(o.stash))
	}
	for i, e := range o.stashList {
		if e.idx != i || o.stash[e.key] != e {
			t.Fatalf("stash list entry %d (%q, idx %d) out of sync with the stash map", i, e.key, e.idx)
		}
		if o.keys[o.pos[e.key]].bucket >= 0 {
			t.Fatalf("key %q both in stash and tree", e.key)
		}
	}
}

// randomOps drives a Seq with a random workload checked against a map
// oracle, then verifies all invariants.
func runRandomWorkload(t *testing.T, seed uint64, numKeys, ops int) {
	t.Helper()
	p := testParams(numKeys)
	p.Seed = seed
	store := newMapStore()
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
	}
	if store.violation != nil {
		t.Fatalf("bucket invariant: %v", store.violation)
	}
	checkPathInvariant(t, seq.ORAM())
	checkMetaConsistency(t, seq.ORAM())
	if limit := seq.ORAM().Params().StashLimit; seq.ORAM().StashPeak() > limit {
		t.Fatalf("stash peak %d exceeds limit %d", seq.ORAM().StashPeak(), limit)
	}
}

func TestPropertyRandomWorkloads(t *testing.T) {
	f := func(seed uint64) bool {
		runRandomWorkload(t, seed|1, 32, 300)
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
	runRandomWorkload(t, 99, 200, 1500)
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
		seq.ORAM().mu.Lock()
		o := seq.ORAM()
		leaves[int(o.keys[o.pos["k"]].leaf)] = true
		seq.ORAM().mu.Unlock()
	}
	geo := seq.ORAM().Geometry()
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
	store := newMapStore()
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("uni")), p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("hot", []byte("v")))
	geo := seq.ORAM().Geometry()
	counts := make([]int, geo.Leaves)
	const samples = 3200
	for i := 0; i < samples; i++ {
		plan, due, err := seq.ORAM().PlanRead("hot")
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cached() {
			// The proxy pads batches: a cache-served request is replaced by
			// a dummy path read, which is what the adversary observes.
			if _, _, err := seq.runAccess(plan); err != nil {
				t.Fatal(err)
			}
			plan, due, err = seq.ORAM().PlanDummyRead()
			if err != nil {
				t.Fatal(err)
			}
		}
		counts[plan.Leaf]++
		if _, _, err := seq.runAccess(plan); err != nil {
			t.Fatal(err)
		}
		must(t, seq.maintain(due))
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

func TestPropertyStashBoundedUnderHotspot(t *testing.T) {
	// Repeatedly writing a few hot keys must not grow the stash: eviction
	// keeps it bounded.
	p := testParams(64)
	p.Seed = 3
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 2000; i++ {
		must(t, seq.Write(fmt.Sprintf("hot-%d", i%4), []byte(fmt.Sprintf("v%d", i))))
	}
	if peak := seq.ORAM().StashPeak(); peak > 16 {
		t.Fatalf("stash peak %d under a 4-key workload", peak)
	}
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

func TestCodecDummyIndistinguishableSize(t *testing.T) {
	c := codec{keySize: 16, valueSize: 32, key: cryptoutil.KeyFromSeed([]byte("d"))}
	binding := cryptoutil.Binding(0, 1, 0)
	d, err := c.encodeDummy(binding)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.encodeSlot(slotReal, block{key: "k", value: []byte("v")}, binding)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != len(r) {
		t.Fatalf("dummy slot %d bytes, real slot %d bytes", len(d), len(r))
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
