package cryptoutil

import "testing"

func BenchmarkSeal256(b *testing.B) {
	k := KeyFromSeed([]byte("bench"))
	msg := make([]byte, 256)
	binding := Binding(1, 2, 3)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Seal(msg, binding); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen256(b *testing.B) {
	k := KeyFromSeed([]byte("bench"))
	binding := Binding(1, 2, 3)
	sealed, err := k.Seal(make([]byte, 256), binding)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Open(sealed, binding); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealFrame seals a kv-mem slot in place under its version's seed:
// the per-slot cost a filler frame (BenchmarkFill) replaces.
func BenchmarkSealFrame(b *testing.B) {
	k := KeyFromSeed([]byte("bench"))
	frame := make([]byte, fillerFrame)
	binding := Binding(1, 2, 3)
	var nonce Nonce
	for i := 0; i < b.N; i++ {
		if err := k.SealSlot(frame, Seed{}, i%40, binding, &nonce); err != nil {
			b.Fatal(err)
		}
	}
}
