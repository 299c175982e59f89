package slab

import "testing"

type obj struct {
	n   int
	ref *int
}

func TestChunkedNeverReuses(t *testing.T) {
	var c Chunked[obj]
	seen := map[*obj]bool{}
	for epoch := 0; epoch < 5; epoch++ {
		for i := 0; i < 100; i++ {
			p := c.New()
			if *p != (obj{}) {
				t.Fatalf("epoch %d: New returned a used object %+v", epoch, *p)
			}
			if seen[p] {
				t.Fatalf("epoch %d: object %p handed out twice", epoch, p)
			}
			seen[p] = true
			p.n = i + 1
		}
		c.EndEpoch()
	}
	// After an epoch of 100 the chunks are 100 long: an epoch costs one.
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			c.New()
		}
		c.EndEpoch()
	}); allocs > 1 {
		t.Fatalf("%.1f allocations for an epoch of 100 objects, want 1", allocs)
	}
}

func TestChunkedClampsChunkSize(t *testing.T) {
	var c Chunked[obj]
	c.New()
	if got := len(c.free) + 1; got != minChunk {
		t.Fatalf("first chunk holds %d, want %d", got, minChunk)
	}
	for i := 0; i < 3*maxChunk; i++ {
		c.New()
	}
	c.EndEpoch()
	c.free = nil
	c.New()
	if got := len(c.free) + 1; got != maxChunk {
		t.Fatalf("chunk after a huge epoch holds %d, want %d", got, maxChunk)
	}
}

func TestReusedResetsAndReuses(t *testing.T) {
	var r Reused[obj]
	x := 7
	first := map[*obj]bool{}
	for i := 0; i < 100; i++ {
		p := r.New()
		p.n, p.ref = i+1, &x
		first[p] = true
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		p := r.New()
		if *p != (obj{}) {
			t.Fatalf("object %d not zeroed by Reset: %+v", i, *p)
		}
		if !first[p] {
			t.Fatalf("object %d is new memory; Reset should hand the old back", i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset()
		for i := 0; i < 100; i++ {
			r.New()
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations in a steady epoch, want 0", allocs)
	}
}
