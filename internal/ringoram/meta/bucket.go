package meta

import "math/bits"

// bucketMeta is the client-side metadata for one bucket.
type bucketMeta struct {
	perm  []int   // perm[pos] = physical slot; pos < Z real, else dummy
	addrs []int32 // addrs[r]: key-table index of the block at real position r (-1 = empty)
	// words holds the bucket's three bitsets back to back (see valid, filler
	// and occ): a bucket's slot state is a few contiguous words.
	words    []uint64
	writeVer uint64 // bumped on every rewrite; binds slot ciphertexts
	seed     Seed   // the version's, drawn from the plane when it is written
}

// metaWords is how many words a bucket's bitsets take: ⌈slotsPer/64⌉ each
// for valid and filler, ⌈z/64⌉ for occ.
func metaWords(slotsPer, z int) int { return 2*wordsFor(slotsPer) + wordsFor(z) }

func wordsFor(n int) int { return (n + 63) / 64 }

// valid is the set of physical slots not read since the bucket was written.
func (m *bucketMeta) valid() bitset {
	n := wordsFor(len(m.perm))
	return bitset(m.words[:n:n])
}

// filler is the set of positions a dummy read may consume: dummy positions
// and unoccupied real positions whose slot is still valid. Every site that
// consumes, retires or rewrites a slot keeps it current, so a pick is a
// draw over its members, not a scan of the bucket.
func (m *bucketMeta) filler() bitset {
	n := wordsFor(len(m.perm))
	return bitset(m.words[n : 2*n : 2*n])
}

// occ is the set of real positions holding a block (addrs[r] >= 0).
func (m *bucketMeta) occ() bitset { return bitset(m.words[2*wordsFor(len(m.perm)):]) }

// count is how many of the bucket's slots were read since its last rewrite:
// the ones no longer valid.
func (m *bucketMeta) count() int { return len(m.perm) - m.valid().len() }

// consume invalidates the slot of position pos, which is not occupied.
func (m *bucketMeta) consume(pos int) {
	m.valid().unset(m.perm[pos])
	m.filler().unset(pos)
}

// rewrite resets the bucket's bitsets to a fresh version holding blocks at
// real positions 0..placed-1: every slot valid, every other position a
// filler.
func (m *bucketMeta) rewrite(placed int) {
	n := len(m.perm)
	m.valid().setRange(0, n)
	m.filler().setRange(placed, n)
	m.occ().setRange(0, placed)
}

// derive recomputes occ and filler from addrs, valid and perm: how a bucket
// decoded from a checkpoint, which records only addrs and valid, gets them.
func (m *bucketMeta) derive() {
	valid, filler, occ := m.valid(), m.filler(), m.occ()
	clear(filler)
	clear(occ)
	for pos, s := range m.perm {
		switch {
		case pos < len(m.addrs) && m.addrs[pos] >= 0:
			occ.set(pos)
		case valid.has(s):
			filler.set(pos)
		}
	}
}

// bitset is a set of small integers, i in bit i%64 of word i/64. Bits past a
// set's universe stay clear, so its words are also its checkpoint bitmap's
// bytes, little-endian (see putBits).
type bitset []uint64

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s bitset) unset(i int)    { s[i>>6] &^= 1 << (i & 63) }

// len returns the number of members.
func (s bitset) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// nth returns the k-th smallest member, counting from 0; k < s.len().
func (s bitset) nth(k int) int {
	for i, w := range s {
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return i<<6 + bits.TrailingZeros64(w)
	}
	panic("ringoram: bitset.nth past the last member")
}

// setRange makes s exactly the members lo..hi-1.
func (s bitset) setRange(lo, hi int) {
	for i := range s {
		l, h := min(max(lo-i<<6, 0), 64), min(max(hi-i<<6, 0), 64)
		s[i] = ^uint64(0) >> (64 - (h - l)) << l
	}
}
