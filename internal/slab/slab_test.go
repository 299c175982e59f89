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

func TestBytesCopiesAndClips(t *testing.T) {
	var b Bytes
	if b.Copy(nil) != nil || b.Copy([]byte{}) != nil {
		t.Fatal("an empty value must copy to nil")
	}
	var kept [][]byte
	for i := 0; i < 100; i++ {
		v := []byte{byte(i), byte(i), byte(i)}
		c := b.Copy(v)
		if cap(c) != len(v) || string(c) != string(v) {
			t.Fatalf("copy %d: %v cap %d, want %v clipped", i, c, cap(c), v)
		}
		v[0] = 0xff // the source is not aliased
		kept = append(kept, c)
	}
	// Overwrite every even value in full and append to it: the odd ones,
	// its neighbours in the chunk, must not change.
	for i := 0; i < len(kept); i += 2 {
		for j := range kept[i] {
			kept[i][j] = 0xdd
		}
		kept[i] = append(kept[i], 0xee)
	}
	for i := 1; i < len(kept); i += 2 {
		if c := kept[i]; len(c) != 3 || c[0] != byte(i) || c[2] != byte(i) {
			t.Fatalf("value %d changed to %v by a neighbour's writes", i, c)
		}
	}
	big := make([]byte, carveMax+1)
	if c := b.Copy(big); cap(c) != len(big) {
		t.Fatalf("a value over carveMax has capacity %d, want %d", cap(c), len(big))
	}
}

// A chunk serves at least carvePer values, and a value is never carved from a
// chunk more than max(carvePer × its size, carveMinChunk) long.
func TestBytesChunkBounds(t *testing.T) {
	for _, size := range []int{1, 64, 256, 1000, carveMax} {
		var b Bytes
		v := make([]byte, size)
		b.Copy(v)
		limit := max(carvePer*size, carveMinChunk)
		if b.chunk != limit {
			t.Fatalf("%d-byte values open %d-byte chunks, want %d", size, b.chunk, limit)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < carvePer; i++ {
				b.Copy(v)
			}
		}); allocs > 1 {
			t.Fatalf("%d-byte values: %.1f allocations per %d copies, want ≤ 1", size, allocs, carvePer)
		}
	}
	// A small value after a big one does not land in the big one's chunk.
	var b Bytes
	b.Copy(make([]byte, 2048))
	b.Copy([]byte{1})
	if b.chunk != carveMinChunk {
		t.Fatalf("a 1-byte value was carved from a %d-byte chunk", b.chunk)
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
