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
