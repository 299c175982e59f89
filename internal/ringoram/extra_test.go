package ringoram

import (
	"errors"
	"fmt"
	"slices"
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

// TestWideBucketsEndToEnd runs a geometry of more than 256 slots a bucket
// (Z=6, S=260), where a permutation entry narrower than two bytes would
// truncate. Blocks are placed at physical slots past 255, sealed there under
// their slots' nonces, read back from storage and opened; a full checkpoint
// restores to the same client; and an operation logged after it replays on
// the restored client over the very slots the live one read, some past 255.
func TestWideBucketsEndToEnd(t *testing.T) {
	p := Params{NumBlocks: 48, Z: 6, S: 260, A: 6, KeySize: 16, ValueSize: 32, Seed: 21}
	seq, store := newTestSeq(t, p)
	o := seq.ORAM()
	if o.geo.SlotsPer <= 256 {
		t.Fatalf("%d slots a bucket: the test needs more than 256", o.geo.SlotsPer)
	}
	high := func(slots []int) bool { return slices.ContainsFunc(slots, func(s int) bool { return s >= 256 }) }
	oracle := map[string]string{}
	placedHigh, readHigh := 0, 0
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("k%d", i*7%40)
		var steps []*meta.Plan
		var err error
		if i%3 == 0 {
			oracle[k] = fmt.Sprintf("v%d", i)
			steps, err = o.m.PlanWrite(k, []byte(oracle[k]), false, nil)
		} else {
			steps, err = o.m.PlanRead(k, nil)
		}
		must(t, err)
		for _, st := range steps {
			for _, r := range st.Reads {
				if r.Block() != 0 && r.Slot >= 256 {
					readHigh++
				}
			}
			for _, w := range st.Writes() {
				for _, s := range w.Perm[:len(w.Placed)] {
					if s >= 256 {
						placedHigh++
					}
				}
			}
		}
		v, found, err := seq.run(steps)
		must(t, err)
		if want, ok := oracle[k]; i%3 != 0 && (found != ok || string(v) != want) {
			t.Fatalf("op %d: %s = %q (found %v), want %q", i, k, v, found, want)
		}
	}
	if placedHigh == 0 || readHigh == 0 {
		t.Fatalf("%d blocks placed and %d read back past slot 255: the workload never used the wide slots", placedHigh, readHigh)
	}
	if store.Violation() != nil {
		t.Fatal(store.Violation())
	}
	checkClient(t, o)

	img := image(t, o, true)
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("200 logged operations read no slot past 255")
		}
		steps, err := o.m.PlanRead(fmt.Sprintf("k%d", i%40), nil)
		must(t, err)
		entries := logOf(t, o, steps)
		want := make([][]int, len(steps))
		for j, st := range steps {
			want[j] = pathSlots(st)
		}
		restored := restoreFrom(t, o, img)
		replayed, err := restored.m.Replay(entries, nil)
		must(t, err)
		if len(replayed) != len(steps) {
			t.Fatalf("replay planned %d steps, the operation %d", len(replayed), len(steps))
		}
		wide := false
		for j, st := range replayed {
			if got := pathSlots(st); !slices.Equal(got, want[j]) {
				t.Fatalf("step %d: replay read slots %v, the live client %v", j, got, want[j])
			}
			wide = wide || high(want[j])
		}
		_, _, err = seq.run(steps)
		must(t, err)
		if wide {
			break
		}
		img = image(t, o, true)
	}
}
