package meta

import "math/bits"

// bucketMeta is a bucket's version; bucketView adds its rows of the tables.
type bucketMeta struct {
	writeVer uint64 // bumped on every rewrite; binds slot ciphertexts
	seed     Seed   // the version's, drawn from the plane when it is written
}

// bucketView is a bucket's metadata: its version and its rows of the tables.
// Its row of words holds its three bitsets back to back: a bucket's slot
// state is a few contiguous words.
type bucketView struct {
	*bucketMeta
	perm  []uint16 // perm[pos] = physical slot; pos < Z real, else dummy
	addrs []int32  // addrs[r]: key-table index of the block at real position r (-1 = empty)
	valid bitset   // the physical slots not read since the bucket was written
	// filler is the set of positions a dummy read may consume: dummy
	// positions and unoccupied real positions whose slot is still valid.
	// Every site that consumes, retires or rewrites a slot keeps it current,
	// so a pick is a draw over its members, not a scan of the bucket.
	filler bitset
	occ    bitset // the real positions holding a block (addrs[r] >= 0)
}

// bucket returns bucket b's view.
func (m *Machine) bucket(b int) bucketView {
	n, z := m.geo.SlotsPer, m.p.Z
	w, nw := row(m.words, b, metaWords(n, z)), wordsFor(n)
	return bucketView{&m.buckets[b], row(m.perms, b, n), row(m.addrs, b, z), w[:nw:nw], w[nw : 2*nw : 2*nw], w[2*nw:]}
}

// row is row b of a table of rows of n entries.
func row[T any](table []T, b, n int) []T { return table[b*n : (b+1)*n : (b+1)*n] }

// metaWords is how many words a bucket's bitsets take: ⌈slotsPer/64⌉ each
// for valid and filler, ⌈z/64⌉ for occ.
func metaWords(slotsPer, z int) int { return 2*wordsFor(slotsPer) + wordsFor(z) }

func wordsFor(n int) int { return (n + 63) / 64 }

// count is how many of the bucket's slots were read since its last rewrite:
// the ones no longer valid.
func (v bucketView) count() int { return len(v.perm) - v.valid.len() }

// consume invalidates the slot of position pos, which is not occupied.
func (v bucketView) consume(pos int) {
	v.valid.unset(int(v.perm[pos]))
	v.filler.unset(pos)
}

// rewrite resets the bucket's bitsets to a fresh version holding blocks at
// real positions 0..placed-1: every slot valid, every other position a
// filler.
func (v bucketView) rewrite(placed int) {
	n := len(v.perm)
	v.valid.setRange(0, n)
	v.filler.setRange(placed, n)
	v.occ.setRange(0, placed)
}

// derive recomputes occ and filler from addrs, valid and perm: how a bucket
// decoded from a checkpoint, which records only addrs and valid, gets them.
func (v bucketView) derive() {
	clear(v.filler)
	clear(v.occ)
	for pos, s := range v.perm {
		switch {
		case pos < len(v.addrs) && v.addrs[pos] >= 0:
			v.occ.set(pos)
		case v.valid.has(int(s)):
			v.filler.set(pos)
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
