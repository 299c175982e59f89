package cryptoutil

import (
	"bytes"
	"crypto/rand"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	k, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{nil, {}, []byte("x"), []byte("hello obladi"), make([]byte, 4096)} {
		sealed, err := k.Seal(msg, nil)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", len(msg), err)
		}
		got, err := k.Open(sealed, nil)
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", len(msg), err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch for %d-byte message", len(msg))
		}
	}
}

func TestSealIsRandomized(t *testing.T) {
	k := KeyFromSeed([]byte("seed"))
	msg := []byte("same plaintext")
	a, err := k.Seal(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Seal(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two Seals of the same plaintext produced identical ciphertexts")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := KeyFromSeed([]byte("seed"))
	sealed, err := k.Seal([]byte("payload"), Binding(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x40
		if _, err := k.Open(mut, Binding(1, 2, 3)); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongBinding(t *testing.T) {
	k := KeyFromSeed([]byte("seed"))
	sealed, err := k.Seal([]byte("payload"), Binding(7, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		Binding(8, 9, 1), // different bucket
		Binding(7, 8, 1), // stale epoch
		Binding(7, 9, 0), // stale batch
		nil,
	}
	for i, b := range bad {
		if _, err := k.Open(sealed, b); err == nil {
			t.Fatalf("binding case %d accepted", i)
		}
	}
	if _, err := k.Open(sealed, Binding(7, 9, 1)); err != nil {
		t.Fatalf("correct binding rejected: %v", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1 := KeyFromSeed([]byte("a"))
	k2 := KeyFromSeed([]byte("b"))
	sealed, err := k1.Seal([]byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.Open(sealed, nil); err == nil {
		t.Fatal("ciphertext sealed under k1 opened under k2")
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	k := KeyFromSeed([]byte("seed"))
	sealed, err := k.Seal([]byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := k.Open(sealed[:n], nil); err == nil {
			t.Fatalf("truncated ciphertext of %d bytes accepted", n)
		}
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	a := KeyFromSeed([]byte("s"))
	b := KeyFromSeed([]byte("s"))
	sealed, err := a.Seal([]byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed, nil); err != nil {
		t.Fatalf("key derived from same seed cannot open: %v", err)
	}
	c := KeyFromSeed([]byte("t"))
	if _, err := c.Open(sealed, nil); err == nil {
		t.Fatal("key derived from different seed opened ciphertext")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	k := KeyFromSeed([]byte("quick"))
	f := func(msg, binding []byte) bool {
		sealed, err := k.Seal(msg, binding)
		if err != nil {
			return false
		}
		got, err := k.Open(sealed, binding)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSealInPlaceOpensLikeSealTo(t *testing.T) {
	k := KeyFromSeed([]byte("in-place"))
	binding := Binding(7, 8, 9)
	var nonces Nonces
	for _, n := range []int{0, 1, 15, 16, 17, 4096} {
		plain := bytes.Repeat([]byte{0xA5}, n)
		frame := make([]byte, k.SealedSize(n))
		copy(frame[PlaintextOffset:], plain)
		if err := k.SealInPlace(frame, binding, &nonces); err != nil {
			t.Fatal(err)
		}
		got, err := k.Open(frame, binding)
		if err != nil {
			t.Fatalf("%d-byte plaintext sealed in place does not open: %v", n, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%d-byte plaintext came back changed", n)
		}
		if _, err := k.Open(frame, Binding(7, 8, 10)); err == nil {
			t.Fatal("in-place frame opened under the wrong binding")
		}
	}
	if err := k.SealInPlace(make([]byte, Overhead-1), binding, &nonces); err == nil {
		t.Fatal("undersized frame accepted")
	}
}

// TestSealToOpenToInPlace verifies the appending variants: they extend the
// destination slice, round-trip, and perform zero allocations when the
// destination has spare capacity (the hot path's contract).
func TestSealToOpenToInPlace(t *testing.T) {
	k := KeyFromSeed([]byte("inplace"))
	msg := bytes.Repeat([]byte{0xA5}, 300)
	binding := Binding(7, 7, 7)
	prefix := []byte("prefix:")
	sealed, err := k.SealTo(append([]byte(nil), prefix...), msg, binding)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(sealed, prefix) {
		t.Fatal("SealTo clobbered the destination prefix")
	}
	frame := sealed[len(prefix):]
	if len(frame) != k.SealedSize(len(msg)) {
		t.Fatalf("frame of %d bytes, want %d", len(frame), k.SealedSize(len(msg)))
	}
	plain, err := k.OpenTo(append([]byte(nil), prefix...), frame, binding)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain[len(prefix):], msg) {
		t.Fatal("OpenTo round trip mismatch")
	}

	sealBuf := make([]byte, 0, k.SealedSize(len(msg)))
	openBuf := make([]byte, 0, len(msg))
	bindBuf := make([]byte, 0, BindingSize)
	allocs := testing.AllocsPerRun(200, func() {
		bindBuf = AppendBinding(bindBuf[:0], 7, 7, 7)
		var err error
		sealBuf, err = k.SealTo(sealBuf[:0], msg, bindBuf)
		if err != nil {
			t.Fatal(err)
		}
		openBuf, err = k.OpenTo(openBuf[:0], sealBuf, bindBuf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("SealTo+OpenTo with pre-sized buffers: %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendBinding pins AppendBinding against the allocating wrapper.
func TestAppendBinding(t *testing.T) {
	want := Binding(10, 20, 30)
	got := AppendBinding([]byte("x"), 10, 20, 30)
	if !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendBinding: got % x want x||% x", got, want)
	}
	if len(want) != BindingSize {
		t.Fatalf("Binding of %d bytes, want %d", len(want), BindingSize)
	}
}

// TestForeignSchemeByteFailsWithErrScheme is the scheme-byte rule: a frame
// led by any byte other than SchemeGCM — 1, the reserved value, included —
// fails with ErrScheme before any decryption and never yields plaintext.
func TestForeignSchemeByteFailsWithErrScheme(t *testing.T) {
	k := KeyFromSeed([]byte("scheme"))
	binding := Binding(3, 9, 1)
	sealed, err := k.Seal([]byte("bucket slot plaintext"), binding)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 256; b++ {
		if Scheme(b) == SchemeGCM {
			continue
		}
		mut := append([]byte(nil), sealed...)
		mut[0] = byte(b)
		plain, err := k.Open(mut, binding)
		if err == nil {
			t.Fatalf("frame led by %d yielded plaintext %q", b, plain)
		}
		if !errors.Is(err, ErrScheme) {
			t.Fatalf("frame led by %d: %v, want ErrScheme", b, err)
		}
	}
}

// TestCTRSealedFailsUnderGCM holds the opener to frames in the layout of the
// retired scheme 1 (AES-CTR + HMAC-SHA256): iv(16) | ciphertext | mac(32),
// with no scheme byte, so the lead byte is a random IV byte. Whatever that
// byte is, the frame fails loudly and never decrypts: ErrScheme when it is
// not SchemeGCM, ErrAuth when it collides with it.
func TestCTRSealedFailsUnderGCM(t *testing.T) {
	const ivSize, macSize = 16, 32
	k := KeyFromSeed([]byte("migrate"))
	binding := Binding(3, 9, 1)
	msg := []byte("bucket slot plaintext")
	for b := 0; b < 256; b++ {
		frame := make([]byte, ivSize+len(msg)+macSize)
		if _, err := rand.Read(frame); err != nil {
			t.Fatal(err)
		}
		frame[0] = byte(b)
		plain, err := k.Open(frame, binding)
		if err == nil {
			t.Fatalf("scheme-1 frame led by %d yielded plaintext %q", b, plain)
		}
		want := ErrScheme
		if Scheme(b) == SchemeGCM {
			want = ErrAuth
		}
		if !errors.Is(err, want) {
			t.Fatalf("scheme-1 frame led by %d: %v, want %v", b, err, want)
		}
	}
}

// TestGCMSealedFailsUnderCTR is the reverse direction: no GCM frame can be
// taken for the retired scheme 1. Every frame leads with SchemeGCM, never by
// chance, and the same frame relabeled as scheme 1 fails with ErrScheme
// rather than decrypting.
func TestGCMSealedFailsUnderCTR(t *testing.T) {
	k := KeyFromSeed([]byte("migrate"))
	binding := Binding(3, 9, 1)
	for i := 0; i < 256; i++ {
		sealed, err := k.Seal([]byte("bucket slot plaintext"), binding)
		if err != nil {
			t.Fatal(err)
		}
		if Scheme(sealed[0]) != SchemeGCM {
			t.Fatalf("GCM frame led by %d, want %d", sealed[0], SchemeGCM)
		}
		sealed[0] = 1
		if plain, err := k.Open(sealed, binding); err == nil {
			t.Fatalf("GCM frame relabeled as scheme 1 yielded plaintext %q", plain)
		} else if !errors.Is(err, ErrScheme) {
			t.Fatalf("GCM frame relabeled as scheme 1: %v, want ErrScheme", err)
		}
	}
}

// FuzzOpenSealed extends frame-decode fuzzing to the sealed framing: the
// opener must reject arbitrary frames without panicking, a valid frame must
// survive the trip, and a frame led by a foreign scheme byte fails with
// ErrScheme. A filler frame seeds the corpus beside the sealed ones.
func FuzzOpenSealed(f *testing.F) {
	k := KeyFromSeed([]byte("fuzz"))
	if s, err := k.Seal([]byte("seed frame"), Binding(1, 2, 3)); err == nil {
		f.Add(s, uint64(1), uint64(2), uint64(3))
		reserved := append([]byte(nil), s...)
		reserved[0] = 1 // the reserved scheme value
		f.Add(reserved, uint64(1), uint64(2), uint64(3))
	}
	f.Add([]byte{byte(SchemeGCM)}, uint64(0), uint64(0), uint64(0))
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0))
	if filler, err := NewFiller(); err == nil {
		frame := make([]byte, k.SealedSize(len("seed frame")))
		filler.Fill(frame, len(frame))
		f.Add(frame, uint64(1), uint64(2), uint64(3))
	}
	f.Fuzz(func(t *testing.T, frame []byte, id, epoch, batch uint64) {
		binding := Binding(id, epoch, batch)
		if plain, err := k.Open(frame, binding); err == nil {
			// The fuzzer forging an authentic GCM frame would be a break of
			// AES-GCM itself; anything it opens must round-trip.
			resealed, err := k.Seal(plain, binding)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := k.Open(resealed, binding); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("reseal round trip: %v", err)
			}
		}
		if len(frame) > 0 {
			mut := append([]byte(nil), frame...)
			mut[0] ^= 0xFF
			_, err := k.Open(mut, binding)
			if err == nil {
				t.Fatal("scheme-byte flip still opened")
			}
			if len(mut) >= Overhead && Scheme(mut[0]) != SchemeGCM && !errors.Is(err, ErrScheme) {
				t.Fatalf("foreign scheme byte %d: %v, want ErrScheme", mut[0], err)
			}
		}
	})
}

// TestNoncesDistinct draws 10^5 nonces through the seal path, across many
// refills of one Nonces block, and finds no nonce twice: every byte of a
// block is cut into one nonce only.
func TestNoncesDistinct(t *testing.T) {
	const n = 100_000
	k := KeyFromSeed([]byte("nonces"))
	seen := make(map[[nonceSize]byte]bool, n)
	frame := make([]byte, Overhead)
	var nonces Nonces
	for i := 0; i < n; i++ {
		if err := k.SealInPlace(frame, nil, &nonces); err != nil {
			t.Fatal(err)
		}
		nonce := [nonceSize]byte(frame[1:PlaintextOffset])
		if seen[nonce] {
			t.Fatalf("nonce %x drawn twice within %d seals", nonce, i+1)
		}
		seen[nonce] = true
	}
}

// TestConcurrentSeals seals from several goroutines at once through one Key,
// each in-place sealer with its own Nonces block (run it with -race): every
// frame opens, and no two frames share a nonce.
func TestConcurrentSeals(t *testing.T) {
	const workers, each = 8, 2000
	k := KeyFromSeed([]byte("concurrent"))
	binding := Binding(1, 2, 3)
	frames := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nonces Nonces
			for i := 0; i < each; i++ {
				var f []byte
				var err error
				if i%2 == 0 {
					f, err = k.Seal([]byte("concurrent seal"), binding)
				} else {
					f = make([]byte, k.SealedSize(15))
					copy(f[PlaintextOffset:], "concurrent seal")
					err = k.SealInPlace(f, binding, &nonces)
				}
				if err != nil {
					t.Error(err)
					return
				}
				frames[w] = append(frames[w], f)
			}
		}()
	}
	wg.Wait()
	seen := make(map[[nonceSize]byte]bool, workers*each)
	for _, fs := range frames {
		for _, f := range fs {
			if got, err := k.Open(f, binding); err != nil || string(got) != "concurrent seal" {
				t.Fatalf("a concurrently sealed frame opens to %q, %v", got, err)
			}
			nonce := [nonceSize]byte(f[1:PlaintextOffset])
			if seen[nonce] {
				t.Fatalf("nonce %x used by two concurrent seals", nonce)
			}
			seen[nonce] = true
		}
	}
}

// slotFrame seals plain as slot s of the version seed names, the slot of
// key's block.
func slotFrame(t testing.TB, k *Key, plain []byte, seed Seed, s int, binding, key []byte) []byte {
	t.Helper()
	frame := make([]byte, len(plain)+SlotOverhead)
	copy(frame[1:], plain)
	if err := k.SealSlot(frame, seed, s, binding, key, new(SlotScratch)); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestSlotFrameBindsSeedAndSlot is the seeded slot frame's rule: a frame is
// the scheme byte, the ciphertext and the tag, nothing else; it opens as its
// own slot under its version's seed and binding, and fails with ErrAuth when
// storage moves it to another slot of the version, when it is opened under
// another seed, and under another binding. A frame of the record shape, led
// by SchemeGCM, fails with ErrScheme.
func TestSlotFrameBindsSeedAndSlot(t *testing.T) {
	k := KeyFromSeed([]byte("slots"))
	seed := Seed{0: 0xa5, 11: 0x07}
	binding, key := Binding(9, 4, 0), []byte("alice")
	plain := []byte("the block of slot 5")
	var sc SlotScratch
	frames := make([][]byte, 8)
	for s := range frames {
		frames[s] = slotFrame(t, k, plain, seed, s, binding, key)
		if len(frames[s]) != len(plain)+SlotOverhead || Scheme(frames[s][0]) != SchemeSlot {
			t.Fatalf("slot %d: a %d-byte frame led by %d", s, len(frames[s]), frames[s][0])
		}
	}
	// Another seed, one bit off: its slot s has the nonce of the version's
	// slot s^1, never of slot s.
	other := seed
	other[SeedSize-1] ^= 1
	for s, frame := range frames {
		got, err := k.OpenSlot(nil, frame, seed, s, binding, key, &sc)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("slot %d does not open as itself: %q, %v", s, got, err)
		}
		swapped := (s + 1) % len(frames)
		if _, err := k.OpenSlot(nil, frame, seed, swapped, binding, key, &sc); !errors.Is(err, ErrAuth) {
			t.Fatalf("slot %d opened as slot %d of its version: %v, want ErrAuth", s, swapped, err)
		}
		if _, err := k.OpenSlot(nil, frame, other, s, binding, key, &sc); !errors.Is(err, ErrAuth) {
			t.Fatalf("slot %d opened under another seed: %v, want ErrAuth", s, err)
		}
		if _, err := k.OpenSlot(nil, frame, seed, s, Binding(9, 5, 0), key, &sc); !errors.Is(err, ErrAuth) {
			t.Fatalf("slot %d opened under the next version's binding: %v, want ErrAuth", s, err)
		}
	}
	record, err := k.Seal(plain, binding)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.OpenSlot(nil, record, seed, 0, binding, key, &sc); !errors.Is(err, ErrScheme) {
		t.Fatalf("a record frame opened as a slot: %v, want ErrScheme", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := k.SealSlot(frames[0], seed, 0, binding, key, &sc); err != nil {
			t.Fatal(err)
		}
		if _, err := k.OpenSlot(plain[:0], frames[0], seed, 0, binding, key, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%.1f allocations per slot seal and open, want 0", n)
	}
}

// TestSlotFrameBindsKey: a slot frame carries no key, yet opens only as the
// slot of the block it was sealed for. Opened for another key — a different
// one, a prefix or an extension of it, none — it fails with ErrAuth, and so
// it does when bytes move between the binding and the key: the additional
// data ends in the key's length.
func TestSlotFrameBindsKey(t *testing.T) {
	k := KeyFromSeed([]byte("slot keys"))
	seed := Seed{3: 0x5a}
	binding, key := Binding(2, 6, 0), []byte("a")
	plain := []byte("a's block")
	frame := slotFrame(t, k, plain, seed, 1, binding, key)
	if len(frame) != len(plain)+SlotOverhead {
		t.Fatalf("a %d-byte frame for a %d-byte plaintext", len(frame), len(plain))
	}
	var sc SlotScratch
	if got, err := k.OpenSlot(nil, frame, seed, 1, binding, key, &sc); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("the frame does not open for its own key: %q, %v", got, err)
	}
	for _, other := range [][]byte{[]byte("b"), nil, []byte("ab"), []byte("a\x00"), []byte("A")} {
		if _, err := k.OpenSlot(nil, frame, seed, 1, binding, other, &sc); !errors.Is(err, ErrAuth) {
			t.Fatalf("a frame sealed for key %q opened for %q: %v, want ErrAuth", key, other, err)
		}
	}
	// The binding's last byte read as the key's first: the same bytes of
	// additional data but for the length.
	shifted := append(slices.Clone(binding[len(binding)-1:]), key...)
	if _, err := k.OpenSlot(nil, frame, seed, 1, binding[:len(binding)-1], shifted, &sc); !errors.Is(err, ErrAuth) {
		t.Fatalf("a frame opened with a byte of its binding moved into its key: %v, want ErrAuth", err)
	}
}

// FuzzOpenSlot fuzzes the seeded slot frame: the opener rejects an arbitrary
// frame without panicking, and a frame sealed as one slot of a version, for
// one key, opens as that slot and fails with ErrAuth as any other slot of the
// version, under any other seed and for any other key.
func FuzzOpenSlot(f *testing.F) {
	k := KeyFromSeed([]byte("fuzz slot"))
	f.Add([]byte("seed frame"), []byte("twelve bytes"), uint32(3), uint32(4), []byte{1}, []byte("k"), []byte("j"))
	f.Add([]byte{}, []byte{}, uint32(0), uint32(1), []byte{0}, []byte{}, []byte{0})
	f.Add([]byte{byte(SchemeSlot)}, []byte{0xff}, uint32(1<<16-1), uint32(0), []byte{byte(SchemeGCM)}, []byte("key"), []byte("ke"))
	f.Fuzz(func(t *testing.T, data, seedBytes []byte, slot, other uint32, otherSeed, key, otherKey []byte) {
		var seed, wrong Seed
		copy(seed[:], seedBytes)
		copy(wrong[:], otherSeed)
		binding := Binding(uint64(slot), 1, 0)
		var sc SlotScratch
		// data as a frame storage returned: only a forgery would open.
		if _, err := k.OpenSlot(nil, data, seed, int(slot), binding, key, &sc); err == nil {
			t.Fatalf("an arbitrary %d-byte frame opened", len(data))
		}
		// data as a plaintext, sealed as slot slot of the version seed names.
		frame := slotFrame(t, k, data, seed, int(slot), binding, key)
		if got, err := k.OpenSlot(nil, frame, seed, int(slot), binding, key, &sc); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("a sealed slot does not open as itself: %v", err)
		}
		if other != slot {
			if _, err := k.OpenSlot(nil, frame, seed, int(other), binding, key, &sc); !errors.Is(err, ErrAuth) {
				t.Fatalf("slot %d opened as slot %d: %v, want ErrAuth", slot, other, err)
			}
		}
		if wrong != seed {
			if _, err := k.OpenSlot(nil, frame, wrong, int(slot), binding, key, &sc); !errors.Is(err, ErrAuth) {
				t.Fatalf("slot %d opened under another seed: %v, want ErrAuth", slot, err)
			}
		}
		if !bytes.Equal(otherKey, key) {
			if _, err := k.OpenSlot(nil, frame, seed, int(slot), binding, otherKey, &sc); !errors.Is(err, ErrAuth) {
				t.Fatalf("slot %d sealed for key %q opened for %q: %v, want ErrAuth", slot, key, otherKey, err)
			}
		}
	})
}
