package meta

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestBitsetWordsMatchPerBit checks the word-level bitset operations against
// bit-at-a-time references for universes of 1 to 130 members: putBits
// writes the bytes setting bit i%8 of byte i/8 for each member writes,
// readBits inverts it and drops whatever lies past the universe, nth is the
// ascending member list's k-th entry, and setRange holds exactly its range.
func TestBitsetWordsMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for n := 1; n <= 130; n++ {
		for round := 0; round < 20; round++ {
			s := make(bitset, wordsFor(n))
			var members []int
			for i := 0; i < n; i++ {
				if rng.IntN(3) == 0 {
					s.set(i)
					members = append(members, i)
				}
			}
			want := make([]byte, (n+7)/8)
			for _, i := range members {
				want[i/8] |= 1 << (i % 8)
			}
			got := make([]byte, len(want))
			putBits(got, s)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d members %v: putBits wrote %x, per bit %x", n, members, got, want)
			}
			if n%8 != 0 {
				got[len(got)-1] |= 0xFF << (n % 8) // bits past the universe
			}
			back := make(bitset, len(s))
			readBits(back, got, n)
			if !slices.Equal(back, s) {
				t.Fatalf("n=%d: readBits gave %x, want %x", n, back, s)
			}
			if s.len() != len(members) {
				t.Fatalf("n=%d: len %d, %d members", n, s.len(), len(members))
			}
			for k, m := range members {
				if got := s.nth(k); got != m {
					t.Fatalf("n=%d members %v: nth(%d) = %d, want %d", n, members, k, got, m)
				}
			}
			lo := rng.IntN(n + 1)
			hi := lo + rng.IntN(n+1-lo)
			s.setRange(lo, hi)
			for i := 0; i < len(s)*64; i++ {
				if s.has(i) != (i >= lo && i < hi) {
					t.Fatalf("n=%d: setRange(%d, %d) has(%d) = %v", n, lo, hi, i, s.has(i))
				}
			}
		}
	}
}
