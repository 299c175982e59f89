package cryptoutil

import (
	"bytes"
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

func TestSealedSize(t *testing.T) {
	k := KeyFromSeed([]byte("seed"))
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		sealed, err := k.Seal(make([]byte, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) != SealedSize(n) {
			t.Fatalf("SealedSize(%d) = %d, sealed length %d", n, SealedSize(n), len(sealed))
		}
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

func TestRandomBytes(t *testing.T) {
	a, err := RandomBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 64 || len(b) != 64 {
		t.Fatal("wrong length")
	}
	if bytes.Equal(a, b) {
		t.Fatal("two RandomBytes calls returned identical data")
	}
}

func TestSealInPlaceOpensLikeSealTo(t *testing.T) {
	k := KeyFromSeed([]byte("in-place"))
	binding := Binding(7, 8, 9)
	for _, n := range []int{0, 1, 15, 16, 17, 4096} {
		plain := bytes.Repeat([]byte{0xA5}, n)
		frame := make([]byte, SealedSize(n))
		copy(frame[PlaintextOffset:], plain)
		if err := k.SealInPlace(frame, binding); err != nil {
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
	if err := k.SealInPlace(make([]byte, Overhead-1), binding); err == nil {
		t.Fatal("undersized frame accepted")
	}
}
