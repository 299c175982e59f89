package slab

import (
	"sync"
	"testing"
)

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

// A carved key is a copy of its source, and keys share chunks: carving one
// allocates nothing once a chunk is open.
func TestBytesString(t *testing.T) {
	var b Bytes
	if b.String(nil) != "" {
		t.Fatal("an empty key must carve to \"\"")
	}
	src := []byte("key-000000000001")
	k := b.String(src)
	src[0] = 'X' // the source is not aliased
	if k != "key-000000000001" {
		t.Fatalf("carved key %q changed with its source", k)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.String(src) }); allocs > 1.0/16 {
		t.Fatalf("%.2f allocations per carved key, want at most one per chunk", allocs)
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

// Make hands out zeroed runs that neither overlap nor reach each other by
// append, mixed with New's objects, and takes them back at Reset: a steady
// epoch of the same runs allocates nothing.
func TestReusedMake(t *testing.T) {
	var r Reused[obj]
	x := 7
	runs := make([][]obj, 40)
	epoch := func() {
		for i := range runs {
			s := r.Make(1 + i%7)
			if cap(s) != len(s) {
				t.Fatalf("run %d: capacity %d, want %d", i, cap(s), len(s))
			}
			for j := range s {
				if s[j] != (obj{}) {
					t.Fatalf("run %d: object %d not zeroed: %+v", i, j, s[j])
				}
				s[j] = obj{n: i + 1, ref: &x}
			}
			r.New().n = -1
			runs[i] = s
		}
	}
	epoch()
	for i, s := range runs {
		for j := range s {
			if s[j].n != i+1 {
				t.Fatalf("run %d: object %d overwritten by a neighbour: %+v", i, j, s[j])
			}
		}
	}
	r.Reset()
	epoch()
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset()
		epoch()
	}); allocs != 0 {
		t.Fatalf("%.1f allocations in a steady epoch of runs, want 0", allocs)
	}
}

// A Slices carves clipped, zeroed, non-overlapping slices, at least eight to
// a chunk, never reusing one: a kept slice keeps its contents. A slice over
// an eighth of a chunk gets its own allocation.
func TestSlicesCarves(t *testing.T) {
	var s Slices[[]byte]
	const n = sliceChunk / 8 / 24 // 24-byte headers
	var kept [][][]byte
	for i := 0; i < 100; i++ {
		v := s.Make(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("slice %d: len %d cap %d, want %d clipped", i, len(v), cap(v), n)
		}
		for j := range v {
			if v[j] != nil {
				t.Fatalf("slice %d: header %d not zeroed", i, j)
			}
			v[j] = []byte{byte(i)}
		}
		kept = append(kept, v)
	}
	for i, v := range kept {
		if len(v[0]) != 1 || v[0][0] != byte(i) || v[n-1][0] != byte(i) {
			t.Fatalf("slice %d changed by a later one", i)
		}
	}
	if allocs := testing.AllocsPerRun(80, func() { s.Make(n) }); allocs > 1.0/8 {
		t.Fatalf("%.3f allocations per slice of an eighth of a chunk, want at most 1/8", allocs)
	}
	if v := s.Make(n + 1); cap(v) != n+1 {
		t.Fatalf("a slice over an eighth of a chunk has capacity %d, want %d", cap(v), n+1)
	}
	if v := s.Make(0); len(v) != 0 {
		t.Fatalf("Make(0) has length %d", len(v))
	}
}

// A Slices serves concurrent callers (run under -race): no two get the same
// memory.
func TestSlicesConcurrent(t *testing.T) {
	var s Slices[int]
	const workers, each, n = 4, 500, 10
	out := make([][][]int, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := s.Make(n)
				for j := range v {
					v[j] = w*each + i
				}
				out[w] = append(out[w], v)
			}
		}()
	}
	wg.Wait()
	for w := range out {
		for i, v := range out[w] {
			for _, x := range v {
				if x != w*each+i {
					t.Fatalf("worker %d slice %d holds %d: shared with another", w, i, x)
				}
			}
		}
	}
}
