package cryptoutil_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
)

// fillerFrame is the frame size the filler tests use: the kv-mem benchmark's
// slot frame (16-byte keys, 256-byte values), as ringoram's codec sizes it.
var fillerFrame = func() int {
	o, err := ringoram.New(cryptoutil.KeyFromSeed(nil), ringoram.Params{NumBlocks: 1, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 256})
	if err != nil {
		panic(err)
	}
	return o.SlotSize()
}()

func newFiller(t testing.TB) *cryptoutil.Filler {
	t.Helper()
	f, err := cryptoutil.NewFiller()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFillerFrameShape: every frame of a fill, whatever the run's length and
// whatever the buffer held before, is the scheme byte followed by keystream
// (not the zeros or poison the buffer held).
func TestFillerFrameShape(t *testing.T) {
	f := newFiller(t)
	for _, n := range []int{1, 2, 7, 40} {
		run := make([]byte, n*fillerFrame)
		for i := range run {
			run[i] = 0xdb
		}
		f.Fill(run, fillerFrame)
		for i := 0; i < n; i++ {
			frame := run[i*fillerFrame : (i+1)*fillerFrame]
			if cryptoutil.Scheme(frame[0]) != cryptoutil.SchemeSlot {
				t.Fatalf("frame %d of %d led by %d, want %d", i, n, frame[0], cryptoutil.SchemeSlot)
			}
			var zero, poison int
			for _, b := range frame[1:] {
				switch b {
				case 0:
					zero++
				case 0xdb:
					poison++
				}
			}
			// A few hundred uniform bytes hold each value about once; 16 of
			// either is a buffer the keystream did not cover.
			if zero > 16 || poison > 16 {
				t.Fatalf("frame %d of %d: %d zero and %d 0xdb bytes of %d", i, n, zero, poison, fillerFrame-1)
			}
		}
	}
	for _, bad := range []struct{ len, size int }{{10, 0}, {10, 3}, {5, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a fill of %d bytes as frames of %d did not panic", bad.len, bad.size)
				}
			}()
			f.Fill(make([]byte, bad.len), bad.size)
		}()
	}
}

// TestFillerFailsAuthentication: a filler frame fails OpenSlot with ErrAuth,
// never ErrScheme and never a plaintext, under the seed, slot, binding and
// block key of the slot it stands in and under random ones, whatever the key.
func TestFillerFailsAuthentication(t *testing.T) {
	f := newFiller(t)
	random, err := cryptoutil.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	keys := []*cryptoutil.Key{cryptoutil.KeyFromSeed([]byte("fill")), cryptoutil.KeyFromSeed(nil), random}
	rng := rand.New(rand.NewPCG(1, 2))
	frame := make([]byte, fillerFrame)
	dst := make([]byte, 0, fillerFrame)
	var sc cryptoutil.SlotScratch
	blockKeys := [][]byte{[]byte("key00000042"), nil}
	for i := 0; i < 500; i++ {
		f.Fill(frame, fillerFrame)
		bindings := [][]byte{
			cryptoutil.Binding(uint64(i%64), uint64(i/64+1), 0), // the bucket's own
			cryptoutil.Binding(rng.Uint64(), rng.Uint64(), rng.Uint64()),
			nil,
		}
		var seed cryptoutil.Seed
		for j := range seed {
			seed[j] = byte(rng.Uint32())
		}
		for _, k := range keys {
			for _, b := range bindings {
				for _, s := range []int{i % 40, rng.IntN(1 << 16)} {
					for _, bk := range blockKeys {
						if plain, err := k.OpenSlot(dst, frame, seed, s, b, bk, &sc); !errors.Is(err, cryptoutil.ErrAuth) {
							t.Fatalf("fill %d opened to %d bytes: %v, want ErrAuth", i, len(plain), err)
						}
					}
				}
			}
		}
	}
}

// TestFillerFillsNeverRepeat: no two frames are equal, within one Filler's
// fills or across two Fillers; indeed no two share their first 16 bytes of
// keystream, as frames cut from a repeated stream would.
func TestFillerFillsNeverRepeat(t *testing.T) {
	const fills, frames = 200, 8
	seen := make(map[[16]byte]bool, 2*fills*frames)
	for fi, f := range []*cryptoutil.Filler{newFiller(t), newFiller(t)} {
		run := make([]byte, frames*fillerFrame)
		for i := 0; i < fills; i++ {
			f.Fill(run, fillerFrame)
			for j := 0; j < frames; j++ {
				head := [16]byte(run[j*fillerFrame+1:])
				if seen[head] {
					t.Fatalf("filler %d, fill %d, frame %d repeats an earlier frame's keystream", fi, i, j)
				}
				seen[head] = true
			}
		}
	}
}

// TestFillerFillAllocatesNothing: after the Filler is made, a fill allocates
// nothing.
func TestFillerFillAllocatesNothing(t *testing.T) {
	f := newFiller(t)
	run := make([]byte, 40*fillerFrame)
	f.Fill(run, fillerFrame)
	if n := testing.AllocsPerRun(100, func() { f.Fill(run, fillerFrame) }); n != 0 {
		t.Fatalf("%.1f allocations per fill, want 0", n)
	}
}

// BenchmarkFill fills a kv-mem bucket's 40 frames at a time and reports the
// cost per frame, to set beside BenchmarkSealFrame's per seal.
func BenchmarkFill(b *testing.B) {
	const frames = 40
	f := newFiller(b)
	run := make([]byte, frames*fillerFrame)
	b.SetBytes(int64(len(run)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Fill(run, fillerFrame)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}

// BenchmarkSealFrame seals a kv-mem slot in place under its version's seed
// and a block's key: the per-slot cost a filler frame (BenchmarkFill)
// replaces.
func BenchmarkSealFrame(b *testing.B) {
	k := cryptoutil.KeyFromSeed([]byte("bench"))
	frame := make([]byte, fillerFrame)
	binding, key := cryptoutil.Binding(1, 2, 3), []byte("key00000042")
	var sc cryptoutil.SlotScratch
	for i := 0; i < b.N; i++ {
		if err := k.SealSlot(frame, cryptoutil.Seed{}, i%40, binding, key, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
