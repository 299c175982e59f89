package ringoram

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// checkClient checks o's metadata through the machine's own decoder: its full
// image restores — Restore refuses a key off its leaf's path, two keys at one
// position, a key both stashed and in the tree, and a key in a slot already
// read — to a client that encodes the same image, and every stash entry's
// slot decodes to its key. The machine's rules themselves are checked on the
// machine (meta.TestMachineInvariants).
func checkClient(t *testing.T, o *ORAM) {
	t.Helper()
	restored, err := Restore(stateKey, o.p, image(t, o, true))
	if err != nil {
		t.Fatalf("the full image does not restore: %v", err)
	}
	requireSameClient(t, o, restored)
	for b, s := range o.slots {
		if s == nil {
			continue
		}
		key := o.m.Key(meta.Block(b))
		if _, blk, err := o.cdc.parse(s); err != nil || string(blk.keyB) != key {
			t.Fatalf("stash entry %q: slot decodes to %q, %v", key, blk.keyB, err)
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
		checkClient(t, seq.ORAM())
	}
	if store.Violation() != nil {
		t.Fatalf("bucket invariant: %v", store.Violation())
	}

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

// codecSeed is the version seed the codec tests seal slot 0 under.
var codecSeed = meta.Seed{0: 7, 11: 1}

// encodeSlot seals one slot into a fresh frame, as SealImage seals each slot
// of a bucket that holds a block: slot 0 of the version codecSeed names.
func (c codec) encodeSlot(kind byte, b block, binding []byte) ([]byte, error) {
	plain := make([]byte, c.plainSize())
	if err := c.encodePlain(plain, kind, b); err != nil {
		return nil, err
	}
	frame := make([]byte, c.slotSize())
	if err := c.seal(frame, plain, codecSeed, 0, binding, new(cryptoutil.SlotScratch)); err != nil {
		return nil, err
	}
	return frame, nil
}

// decodeSlot opens and parses stored slot s of the version seed names, as
// completion does a remote read of key's block.
func (c codec) decodeSlot(data []byte, seed meta.Seed, s int, binding []byte, key string) (byte, block, error) {
	plain := make([]byte, c.plainSize())
	if err := c.open(plain, data, seed, s, binding, key, new(cryptoutil.SlotScratch)); err != nil {
		return 0, block{}, err
	}
	return c.parse(plain)
}

func TestQuickCodecRoundTrip(t *testing.T) {
	c := newCodec(32, 64, cryptoutil.KeyFromSeed([]byte("codec")))
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
		gotKind, blk, err := c.decodeSlot(enc, codecSeed, 0, binding, string(rawKey))
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
	c := newCodec(16, 32, cryptoutil.KeyFromSeed([]byte("d")))
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
	c := newCodec(16, 32, cryptoutil.KeyFromSeed([]byte("b")))
	enc, err := c.encodeSlot(slotReal, block{key: "k", value: []byte("v")}, cryptoutil.Binding(3, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.decodeSlot(enc, codecSeed, 0, cryptoutil.Binding(3, 8, 0), "k"); err == nil {
		t.Fatal("stale bucket version accepted")
	}
}

// TestCodecRejectsUnknownKinds: parse accepts only a filler, a real slot and
// a tombstone; every other kind byte, the retired empty-real kind 2 among
// them, is an error.
func TestCodecRejectsUnknownKinds(t *testing.T) {
	c := newCodec(16, 32, nil)
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
