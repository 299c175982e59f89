package meta

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// TestBucketFootprint pins what the machine spends per bucket: a bucketMeta
// is the bucket's version alone, at most 24 bytes, and the rest lies in three
// flat tables of NumBuckets rows — SlotsPer two-byte permutation entries, Z
// key indices and metaWords bitset words — whose row b is what bucket(b)
// views, with no slack for a neighbour's row.
func TestBucketFootprint(t *testing.T) {
	if n := unsafe.Sizeof(bucketMeta{}); n > 24 {
		t.Fatalf("a bucketMeta is %d bytes, want at most 24", n)
	}
	p := Params{NumBlocks: 256, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 32, Seed: 1}
	m, err := New(p, values{})
	must(t, err)
	nb, n, z, nw := m.geo.NumBuckets, m.geo.SlotsPer, p.Z, metaWords(m.geo.SlotsPer, p.Z)
	if len(m.buckets) != nb || len(m.perms) != nb*n || len(m.addrs) != nb*z || len(m.words) != nb*nw {
		t.Fatalf("%d buckets: %d versions, %d permutation entries, %d key indices, %d words; want %d, %d, %d, %d",
			nb, len(m.buckets), len(m.perms), len(m.addrs), len(m.words), nb, nb*n, nb*z, nb*nw)
	}
	if size := unsafe.Sizeof(m.perms[0]); size != 2 {
		t.Fatalf("a permutation entry is %d bytes, want 2", size)
	}
	for b := range nb {
		v := m.bucket(b)
		if v.bucketMeta != &m.buckets[b] || &v.perm[0] != &m.perms[b*n] || &v.addrs[0] != &m.addrs[b*z] || &v.valid[0] != &m.words[b*nw] {
			t.Fatalf("bucket %d's view is not its row of the tables", b)
		}
		if cap(v.perm) != n || cap(v.addrs) != z || len(v.valid)+len(v.filler)+len(v.occ) != nw || cap(v.occ) != len(v.occ) {
			t.Fatalf("bucket %d's view is not its row: capacities %d, %d, bitsets of %d+%d+%d words", b, cap(v.perm), cap(v.addrs), len(v.valid), len(v.filler), len(v.occ))
		}
	}
}

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
