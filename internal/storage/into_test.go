package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// withDestinations returns a copy of refs, each given its own size-byte
// frame of one buffer as its destination.
func withDestinations(refs []SlotRef, size int) []SlotRef {
	out := make([]SlotRef, len(refs))
	buf := make([]byte, len(refs)*size)
	for i, r := range refs {
		out[i] = SlotRef{Bucket: r.Bucket, Slot: r.Slot, Into: buf[i*size : (i+1)*size : (i+1)*size]}
	}
	return out
}

// intoRefs returns a ref for every slot of buckets 0..numBuckets-1, in
// shuffled order, each with a destination (withDestinations).
func intoRefs(numBuckets, slotsPer, size int, rng *rand.Rand) []SlotRef {
	refs := make([]SlotRef, 0, numBuckets*slotsPer)
	for b := range numBuckets {
		for s := range slotsPer {
			refs = append(refs, SlotRef{Bucket: b, Slot: s})
		}
	}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	return withDestinations(refs, size)
}

// intoSlot is the content of slot s of bucket b in these tests: size bytes.
func intoSlot(b, s, size int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("b%02ds%02d|", b, s)), size/7+1)[:size]
}

// checkFilled requires every result to hold its slot's bytes in a view of its
// ref's destination.
func checkFilled(t *testing.T, refs []SlotRef, got [][]byte, size int) {
	t.Helper()
	if len(got) != len(refs) {
		t.Fatalf("%d results for %d refs", len(got), len(refs))
	}
	for i, r := range refs {
		if want := intoSlot(r.Bucket, r.Slot, size); !bytes.Equal(got[i], want) {
			t.Fatalf("bucket %d slot %d read %q, want %q", r.Bucket, r.Slot, got[i], want)
		}
		if &got[i][0] != &r.Into[0] {
			t.Fatalf("bucket %d slot %d was not read into its destination", r.Bucket, r.Slot)
		}
	}
}

// TestCopyingStoresFillDestinations: every store fills every destination
// that holds its slot — a MemBackend, a LogHeap shard, with versions this
// process wrote and versions replayed at open, and the remote client, over a
// MemBackend, over a trace recorder wrapping one, and over a LogHeap — and
// the latency wrapper, the trace recorder and the invariant checker hand the
// destinations through untouched.
func TestCopyingStoresFillDestinations(t *testing.T) {
	const numBuckets, slotsPer, size = 8, 4, 40
	write := func(b Backend, epoch uint64, from, to int) {
		t.Helper()
		for bucket := from; bucket < to; bucket++ {
			slots := make([][]byte, slotsPer)
			for s := range slots {
				slots[s] = intoSlot(bucket, s, size)
			}
			must(t, b.WriteBucket(bucket, epoch, slots))
		}
		must(t, b.CommitEpoch(epoch))
	}
	logHeap := func(t *testing.T) Backend {
		dir := t.TempDir()
		g, err := OpenDiskGroupOpts(dir, 1, numBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		write(g.Backends()[0], 1, 0, numBuckets/2)
		must(t, g.Close())
		if g, err = OpenDiskGroupOpts(dir, 1, numBuckets, DiskOptions{LogHeap: true}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		b := g.Backends()[0]
		write(b, 2, numBuckets/2, numBuckets)
		return b
	}
	mem := func(t *testing.T) Backend {
		b := NewMemBackend(numBuckets)
		write(b, 1, 0, numBuckets)
		return b
	}
	for name, open := range map[string]func(t *testing.T) Backend{
		"mem":                 mem,
		"logheap":             logHeap,
		"remote-mem":          func(t *testing.T) Backend { return dialServed(t, mem(t)) },
		"remote-recorder-mem": func(t *testing.T) Backend { return dialServed(t, NewRecorder(mem(t))) },
		"remote-logheap":      func(t *testing.T) Backend { return dialServed(t, logHeap(t)) },
		"latency":             func(t *testing.T) Backend { return WithLatency(logHeap(t), Profile{Name: "into"}) },
		"recorder":            func(t *testing.T) Backend { return NewRecorder(logHeap(t)) },
		"invariant-checker":   func(t *testing.T) Backend { return NewInvariantChecker(logHeap(t)) },
	} {
		t.Run(name, func(t *testing.T) {
			b := open(t)
			refs := intoRefs(numBuckets, slotsPer, size, rand.New(rand.NewPCG(5, 6)))
			// Twice: a server's first reply is encoded from the results, its
			// next ones are read in place.
			for range 2 {
				got, err := b.ReadSlots(refs)
				if err != nil {
					t.Fatal(err)
				}
				checkFilled(t, refs, got, size)
			}
		})
	}
}

// TestRemoteSplitVectorFillsDestinations: a read vector past the per-frame ref
// bound is split across frames, and every frame's slots still land in their
// refs' destinations.
func TestRemoteSplitVectorFillsDestinations(t *testing.T) {
	const numBuckets, slotsPer, size = 64, 2, 24
	c, _ := newRemotePair(t, numBuckets)
	for b := range numBuckets {
		must(t, c.WriteBucket(b, 1, [][]byte{intoSlot(b, 0, size), intoSlot(b, 1, size)}))
	}
	refs := make([]SlotRef, vectorChunkRefs*2+17)
	for i := range refs {
		refs[i] = SlotRef{Bucket: i % numBuckets, Slot: i / numBuckets % slotsPer}
	}
	refs = withDestinations(refs, size)
	got, err := c.ReadSlots(refs)
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, refs, got, size)
}
