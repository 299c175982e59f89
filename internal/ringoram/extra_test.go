package ringoram

import (
	"errors"
	"fmt"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// TestPaperParameters smoke-tests the paper's cloud configuration
// (Z=100, S=196, A=168) at a reduced object count.
func TestPaperParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := Params{
		NumBlocks: 1000,
		Z:         100,
		S:         196,
		A:         168,
		KeySize:   24,
		ValueSize: 64,
		Seed:      13,
	}
	store := newStore(p)
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("paper")), p)
	if err != nil {
		t.Fatal(err)
	}
	geo := seq.ORAM().geo
	if geo.SlotsPer != 296 {
		t.Fatalf("slots per bucket = %d, want 296", geo.SlotsPer)
	}
	oracle := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%d", i%150)
		v := fmt.Sprintf("v%d", i)
		must(t, seq.Write(k, []byte(v)))
		oracle[k] = v
	}
	for k, want := range oracle {
		v, found, err := seq.Read(k)
		if err != nil || !found || string(v) != want {
			t.Fatalf("%s = %q (%v, %v), want %q", k, v, found, err, want)
		}
	}
	if store.Violation() != nil {
		t.Fatal(store.Violation())
	}
	checkClient(t, seq.ORAM())
	// At 296 slots a bucket a checkpoint carries two-byte permutation
	// entries and five-word bitmaps: it must restore to the same client.
	o := seq.ORAM()
	restored, err := Restore(cryptoutil.KeyFromSeed([]byte("paper")), o.p, image(t, o, true))
	must(t, err)
	requireSameClient(t, o, restored)
	checkClient(t, restored)
}

func TestStashOverflowSurfaces(t *testing.T) {
	p := testParams(64)
	p.StashLimit = 2 // absurdly small: force the error path
	seq, _ := newTestSeq(t, p)
	var err error
	for i := 0; i < 16 && err == nil; i++ {
		err = seq.Write(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if !errors.Is(err, meta.ErrStashOverflow) {
		t.Fatalf("expected stash overflow, got %v", err)
	}
}

func TestNextEvictPathDeterministic(t *testing.T) {
	p := testParams(64)
	seqA, _ := newTestSeq(t, p)
	p2 := p
	p2.Seed = 999 // different randomness must not change the evict schedule
	store := newStore(p2)
	seqB, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("other")), p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a, b := nextEvictPath(seqA.ORAM()), nextEvictPath(seqB.ORAM())
		if len(a) != len(b) {
			t.Fatal("path lengths differ")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("evict path %d diverges at %d: %v vs %v", i, j, a, b)
			}
		}
		// Advance both by one eviction.
		for _, s := range []*Seq{seqA, seqB} {
			if _, _, err := s.run(evictNow(t, s.ORAM())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// nextEvictPath returns the buckets the next evict-path will touch: a pure
// function of the eviction counter.
func nextEvictPath(o *ORAM) []int {
	_, evicted := o.m.Counters()
	return o.geo.Path(o.geo.EvictLeaf(evicted))
}

// TestEarlyReshuffleTriggers drives one bucket's slot budget to exhaustion
// and verifies the reshuffle fires and restores readability.
func TestEarlyReshuffleTriggers(t *testing.T) {
	p := testParams(64)
	p.S = 4
	p.A = 4
	p.Seed = 77
	seq, store := newTestSeq(t, p)
	// Hammer reads: every access consumes a root slot; S=4 forces frequent
	// root reshuffles between evictions.
	for i := 0; i < 200; i++ {
		must(t, seq.DummyRead())
	}
	if store.Violation() != nil {
		t.Fatal(store.Violation())
	}
	// The bucket invariant holding for 200×(L+1) filler reads with S=4 is
	// only possible if early reshuffles ran.
}

func TestDeleteKeepsPositionMapEntry(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(8))
	must(t, seq.Write("a", []byte("1")))
	before := seq.ORAM().m.KeyCount()
	must(t, seq.Delete("a"))
	if seq.ORAM().m.KeyCount() != before {
		t.Fatal("delete changed the position map size (leaks deletions)")
	}
}

func TestCountersMonotonic(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	var lastA, lastE uint64
	for i := 0; i < 30; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i%8), []byte("v")))
		a, e := seq.ORAM().m.Counters()
		if a < lastA || e < lastE {
			t.Fatalf("counters went backwards: %d/%d -> %d/%d", lastA, lastE, a, e)
		}
		lastA, lastE = a, e
	}
	if lastE == 0 {
		t.Fatal("no evictions over 30 writes with A=4")
	}
}
