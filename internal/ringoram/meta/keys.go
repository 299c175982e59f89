package meta

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
)

// keyTable is the position map and the location index: for every logical
// key, in first-write order, its name, the leaf it is mapped to and, while
// its block is resident in the tree, the bucket and real position holding it.
// Rows are never removed (a deleted key keeps its row, §6.3), so a key's
// index is stable: full checkpoints walk the table in order, which makes
// their bytes a function of the operation history instead of hash order.
//
// No row is an object and no column holds a pointer. Names lie back to back
// in an append-only arena of string chunks; a row keeps its name's position
// (off) and the name ends where the next row's starts, or at its chunk's end.
// The location columns are flat, the dirty marks a bitset, and index is an
// open-addressing table of row numbers hashed under the machine's own seed;
// nothing iterates it, so the seed cannot reach the trace.
//
// A name is the table's own copy, made when the row is, and a view of it is
// a substring of its chunk. That view is the one string everything
// long-lived holds for the block — stash entries, the keys handed to the
// plane — so a caller's key (a carved wire key pins its whole chunk) is never
// kept past the call that handed it over.
type keyTable struct {
	// chunks is the arena. The last chunk is cur's contents: cur is Grown
	// once and never written past that capacity, so its bytes never move
	// and chunks[last] stays a valid view of them as names are appended.
	chunks []string
	cur    strings.Builder
	off    []uint32 // a row's name: chunk<<chunkBits | offset in the chunk
	leaf   []int32
	bucket []int32  // heap index of the bucket holding the block; -1 when not in the tree
	rpos   []uint16 // real position inside that bucket (Z < SlotsPer < 2^16)
	dirty  bitset   // remapped since the last ClearDirty
	index  []int32  // row+1 by hash, linear probing, 0 empty; a power of two long
	seed   maphash.Seed
}

// Chunks double from minChunk up to maxChunk bytes, so a small table wastes
// little and a large one at most one chunk. A row's off packs its chunk's
// number above the chunkBits of the offset: the arena holds 2^32 bytes.
const (
	chunkBits = 20
	minChunk  = 1 << 10
	maxChunk  = 1 << chunkBits
)

func newKeyTable() keyTable { return keyTable{seed: maphash.MakeSeed()} }

// len returns the number of rows.
func (t *keyTable) len() int { return len(t.off) }

// name returns row i's name, a view of the arena.
func (t *keyTable) name(i int32) string {
	off := t.off[i]
	c, lo := off>>chunkBits, off&(maxChunk-1)
	s := t.chunks[c]
	if int(i)+1 < len(t.off) && t.off[i+1]>>chunkBits == c {
		return s[lo : t.off[i+1]&(maxChunk-1)]
	}
	return s[lo:]
}

// lookup returns the row of key.
func (t *keyTable) lookup(key string) (int32, bool) {
	return find(t, maphash.String(t.seed, key), key)
}

// lookupBytes is lookup for a key held in bytes, which it does not copy.
func (t *keyTable) lookupBytes(key []byte) (int32, bool) {
	return find(t, maphash.Bytes(t.seed, key), key)
}

// find returns the row of key, whose hash is h.
func find[K string | []byte](t *keyTable, h uint64, key K) (int32, bool) {
	if len(t.index) == 0 {
		return -1, false
	}
	mask := uint64(len(t.index) - 1)
	for h &= mask; ; h = (h + 1) & mask {
		i := t.index[h] - 1
		if i < 0 {
			return -1, false
		}
		if t.name(i) == string(key) {
			return i, true
		}
	}
}

// add appends a row for key, which has none, with a copy of key as its name,
// no leaf and no location, and returns its index. It fails only when the
// arena has no chunk left.
func (t *keyTable) add(key string) (int32, error) {
	if err := t.startRow(len(key)); err != nil {
		return 0, err
	}
	t.cur.WriteString(key)
	return t.endRow(), nil
}

// addBytes is add for a key held in bytes.
func (t *keyTable) addBytes(key []byte) (int32, error) {
	if err := t.startRow(len(key)); err != nil {
		return 0, err
	}
	t.cur.Write(key)
	return t.endRow(), nil
}

// startRow makes room in the arena for a name of n bytes and records where
// it starts; the caller writes the name to cur and calls endRow.
func (t *keyTable) startRow(n int) error {
	// An offset must lie inside its chunk, an empty name's too.
	if t.cur.Cap()-t.cur.Len() < max(n, 1) {
		if len(t.chunks) == 1<<(32-chunkBits) {
			return fmt.Errorf("%w: key names fill the key table's arena", ErrFull)
		}
		size := max(min(2*t.cur.Cap(), maxChunk), minChunk, n)
		t.cur.Reset()
		t.cur.Grow(size)
		t.chunks = append(t.chunks, "")
	}
	t.off = append(t.off, uint32(len(t.chunks)-1)<<chunkBits|uint32(t.cur.Len()))
	return nil
}

// endRow completes the row startRow began once its name is written, and
// returns its index.
func (t *keyTable) endRow() int32 {
	i := int32(len(t.off) - 1)
	t.chunks[len(t.chunks)-1] = t.cur.String()
	t.leaf = append(t.leaf, 0)
	t.bucket = append(t.bucket, -1)
	t.rpos = append(t.rpos, 0)
	if int(i) == len(t.dirty)*64 {
		t.dirty = append(t.dirty, 0)
	}
	if 4*len(t.off) > 3*len(t.index) {
		t.rehash(max(16, 2*len(t.index)), i)
	}
	t.insert(i)
	return i
}

// reserve makes room for rows more rows: adding them grows no column and
// rebuilds no index.
func (t *keyTable) reserve(rows int) {
	n := len(t.off) + rows
	t.off = slices.Grow(t.off, rows)
	t.leaf = slices.Grow(t.leaf, rows)
	t.bucket = slices.Grow(t.bucket, rows)
	t.rpos = slices.Grow(t.rpos, rows)
	t.dirty = slices.Grow(t.dirty, (n+63)/64-len(t.dirty))
	size := max(16, len(t.index))
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(t.index) {
		t.rehash(size, int32(len(t.off)))
	}
}

// rehash files the first rows rows in a new index of size slots.
func (t *keyTable) rehash(size int, rows int32) {
	t.index = make([]int32, size)
	for j := range rows {
		t.insert(j)
	}
}

// insert files row i in the index, which has a free slot.
func (t *keyTable) insert(i int32) {
	mask := uint64(len(t.index) - 1)
	h := maphash.String(t.seed, t.name(i)) & mask
	for t.index[h] != 0 {
		h = (h + 1) & mask
	}
	t.index[h] = i + 1
}
