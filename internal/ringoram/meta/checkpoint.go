package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A checkpoint image is the client metadata the recovery unit logs at epoch
// boundaries (§8): the position map, the permutation/valid maps, the stash
// and the access/eviction counters, either whole (full) or as the changes
// since the last ClearDirty (delta). It is written straight from the live
// structures into one exact-size buffer and read straight back into them;
// there is no intermediate representation.
//
// Every entry kind has a fixed width given the public parameters (KeySize,
// ValueSize, NumBlocks, Z, S), so an image's size is a function of entry
// counts and the stash's value lengths alone, and padding entries are
// byte-for-byte the size of real ones. Integers are big-endian; a field
// written (≤X) is as wide as the public bound X needs, the fewest bytes that
// hold it (see width), and one written (uN) is N bits:
//
//	header    flags(u8: bit0 full) keySize(u16) z(u16) slotsPer(u16)
//	          numBuckets(u32) numBlocks(u32) accessCount(u64) evictCount(u64)
//	          nKeys(u32) nTouched(u32) nRewritten(u32) nStash(u32)
//	key       keyLen(≤keySize) key[keySize] leaf(≤leaves−1)  keyLen 0 = padding
//	          full only: bucket(≤numBuckets: all ones = not in the tree)
//	          pos(≤z−1)
//	touched   bucket(≤numBuckets) valid[⌈slotsPer/8⌉] occupied[⌈z/8⌉]
//	rewritten bucket(≤numBuckets) valid[⌈slotsPer/8⌉] writeVer(u64)
//	          seed[12] perm[slotsPer]×(≤slotsPer−1)
//	          delta only: z × index(≤numBlocks)            index 0 = empty
//	stash     index(≤numBlocks) flags(u8: bit0 tombstone, bit1 cacheable)
//	          leaf(≤leaves−1) valLen(≤valueSize) value[valLen]
//	                                                       index 0 = padding
//
// At the benchmark's kv-mem parameters (Z=16, S=24, 1 024 leaves, KeySize=16,
// NumBlocks=16 384, ValueSize=256) the header is 47 bytes, a key entry 19 in
// a delta and 22 in a full image, a touched bucket 9, a rewritten bucket 99
// in a delta and 67 in a full image, and a stash entry 7 plus its value.
//
// A bucket's slot count (how many of its slots were read since its last
// rewrite) is not logged: it is what the valid bitmap leaves out. A rewritten
// entry carries its version's seed, which the byte plane derives the
// version's slot nonces from: a restored proxy reads the versions storage
// holds under the seeds they were sealed with.
//
// An index is a key's position in the key table plus one, so 0 names no key
// and a zeroed buffer needs no write for an empty position or a padding
// entry. Keys the table already holds are named by index: a delta bucket's
// resident keys and every stash entry's key (a stashed key always has a
// position-map entry). Position-map entries spell their keys out: a delta's
// new keys must be named, and naming only them would reveal how many writes
// were inserts. Indices agree between the live table and a restored one
// because the table only grows and remap dirties a key when it adds one: a
// full image lists the table in order, and a delta its new keys in the order
// they were added.
//
// A full image lists every key (in table order) and every bucket (in index
// order, as rewritten entries); the keys carry their tree location, so the
// buckets need not repeat the resident keys. A delta lists the keys remapped
// and the buckets dirtied since the last ClearDirty, in first-dirtied order.
//
// Touched versus rewritten is what keeps deltas small. perm, writeVer and the
// identity of a bucket's resident keys change only in an eviction's write
// phase (planEviction), which marks the bucket rewritten. The other
// mutation sites — consumeFiller (both branches), the target slot of
// planRead, PlanWrite's logical removal of a stale tree copy, and the
// eviction read phase — only clear a valid bit or blank a resident key, so
// their buckets are described by state: the valid bitmap and which real
// positions are still occupied.
const (
	imageHeaderSize = 1 + 2 + 2 + 2 + 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4
	imageFlagFull   = 1

	stashFlagTombstone = 1
	stashFlagCacheable = 2
)

// imageHeader is the fixed head of every image: the kind, the geometry it was
// written under, the counters, and the entry count of each section.
type imageHeader struct {
	full                                        bool
	keySize, z, slotsPer, numBuckets, numBlocks int
	accessCount, evictCount                     uint64
	nKeys, nTouched, nRewritten, nStash         int
}

func (h imageHeader) put(b []byte) {
	if h.full {
		b[0] = imageFlagFull
	}
	binary.BigEndian.PutUint16(b[1:], uint16(h.keySize))
	binary.BigEndian.PutUint16(b[3:], uint16(h.z))
	binary.BigEndian.PutUint16(b[5:], uint16(h.slotsPer))
	binary.BigEndian.PutUint32(b[7:], uint32(h.numBuckets))
	binary.BigEndian.PutUint32(b[11:], uint32(h.numBlocks))
	binary.BigEndian.PutUint64(b[15:], h.accessCount)
	binary.BigEndian.PutUint64(b[23:], h.evictCount)
	binary.BigEndian.PutUint32(b[31:], uint32(h.nKeys))
	binary.BigEndian.PutUint32(b[35:], uint32(h.nTouched))
	binary.BigEndian.PutUint32(b[39:], uint32(h.nRewritten))
	binary.BigEndian.PutUint32(b[43:], uint32(h.nStash))
}

func readImageHeader(img []byte) (imageHeader, error) {
	if len(img) < imageHeaderSize {
		return imageHeader{}, fmt.Errorf("ringoram: checkpoint image of %d bytes is shorter than its header", len(img))
	}
	return imageHeader{
		full:        img[0]&imageFlagFull != 0,
		keySize:     int(binary.BigEndian.Uint16(img[1:])),
		z:           int(binary.BigEndian.Uint16(img[3:])),
		slotsPer:    int(binary.BigEndian.Uint16(img[5:])),
		numBuckets:  int(binary.BigEndian.Uint32(img[7:])),
		numBlocks:   int(binary.BigEndian.Uint32(img[11:])),
		accessCount: binary.BigEndian.Uint64(img[15:]),
		evictCount:  binary.BigEndian.Uint64(img[23:]),
		nKeys:       int(binary.BigEndian.Uint32(img[31:])),
		nTouched:    int(binary.BigEndian.Uint32(img[35:])),
		nRewritten:  int(binary.BigEndian.Uint32(img[39:])),
		nStash:      int(binary.BigEndian.Uint32(img[43:])),
	}, nil
}

// CheckpointPad fixes the padded shape of a checkpoint image so its size does
// not track the workload (§8 "Optimizations"). The recovery log pads to
// Public.CheckpointPad(); the zero pad encodes an unpadded image.
type CheckpointPad struct {
	// PosEntries pads a delta's position-map section to this many entries:
	// the most keys an epoch can remap. Full images list every key.
	PosEntries int
	// StashEntries pads the stash section to this many entries (the stash
	// limit).
	StashEntries int
	// ValueSize is the number of value bytes each padding stash entry
	// carries, at most Params.ValueSize.
	ValueSize int
}

// imageLayout derives the entry widths from the public parameters.
type imageLayout struct {
	keySize, z, slotsPer, numBuckets, numBlocks int
	validBytes, occBytes                        int
	// The sized fields' widths (see the format above).
	index, keyLen, leaf, bucket, pos, slot, valLen width
}

func (m *Machine) imageLayout() imageLayout {
	l := imageLayout{keySize: m.p.KeySize, z: m.p.Z, slotsPer: m.geo.SlotsPer, numBuckets: m.geo.NumBuckets, numBlocks: m.p.NumBlocks}
	l.validBytes = (l.slotsPer + 7) / 8
	l.occBytes = (l.z + 7) / 8
	l.index = widthOf(l.numBlocks)
	l.keyLen = widthOf(l.keySize)
	l.leaf = widthOf(m.geo.Leaves - 1)
	l.bucket = widthOf(l.numBuckets) // all ones is none of them
	l.pos = widthOf(l.z - 1)
	l.slot = widthOf(l.slotsPer - 1)
	l.valLen = widthOf(m.p.ValueSize)
	return l
}

func (l imageLayout) keyField() int { return int(l.keyLen) + l.keySize }

func (l imageLayout) keyEntry(full bool) int {
	n := l.keyField() + int(l.leaf)
	if full {
		n += int(l.bucket + l.pos)
	}
	return n
}

func (l imageLayout) bucketState() int { return int(l.bucket) + l.validBytes }

func (l imageLayout) touchedEntry() int { return l.bucketState() + l.occBytes }

func (l imageLayout) rewrittenEntry(full bool) int {
	n := l.bucketState() + 8 + len(Seed{}) + l.slotsPer*int(l.slot)
	if !full {
		n += l.z * int(l.index)
	}
	return n
}

func (l imageLayout) stashHeader() int { return int(l.index) + 1 + int(l.leaf+l.valLen) }

// putKey writes a fixed-width key field at b and returns the bytes after it.
// b is zeroed, so the unused tail of the field needs no write.
func (l imageLayout) putKey(b []byte, key string) []byte {
	copy(l.keyLen.put(b, len(key)), key)
	return b[l.keyField():]
}

// putBits writes the bitmap of s into b, bit i in bit i%8 of byte i/8: the
// set's words little-endian, cut to len(b) bytes (the bits past the set's
// universe are clear, so the cut drops only zeros).
func putBits(b []byte, s bitset) {
	for _, w := range s {
		if len(b) >= 8 {
			binary.LittleEndian.PutUint64(b, w)
			b = b[8:]
			continue
		}
		for ; len(b) > 0; w >>= 8 {
			b[0] = byte(w)
			b = b[1:]
		}
	}
}

// readBits is putBits reversed for a set of n members at most: bits of b
// past n are ignored.
func readBits(s bitset, b []byte, n int) {
	for i := range s {
		var w [8]byte
		b = b[copy(w[:], b):]
		s[i] = binary.LittleEndian.Uint64(w[:])
	}
	if r := n & 63; r != 0 {
		s[len(s)-1] &= 1<<r - 1
	}
}

// EncodeCheckpoint writes a full or delta image of the current metadata into
// one buffer, with head bytes reserved in front of the image and tail bytes
// behind it (the recovery log's framing and AEAD tag), and returns the
// buffer; the plane supplies the stash's values. The buffer is dst's array
// when it has the capacity, zeroed first (padding is left unwritten and must
// read as zeros), and a new one otherwise; dst's contents are not read. It
// does not reset delta tracking; see ClearDirty. It fails while an access is
// in flight (a pending stash entry has no value to log): checkpoints belong
// to epoch boundaries.
func (m *Machine) EncodeCheckpoint(dst []byte, full bool, pad CheckpointPad, head, tail int) ([]byte, error) {
	l := m.imageLayout()
	if pad.ValueSize > m.p.ValueSize {
		return nil, fmt.Errorf("ringoram: checkpoint pads stash values to %d bytes, ValueSize is %d", pad.ValueSize, m.p.ValueSize)
	}

	nKeys, nTouched, nRewritten := m.keys.len(), 0, l.numBuckets
	if !full {
		nKeys = max(len(m.dirtyKeys), pad.PosEntries)
		nRewritten = 0
		for _, b := range m.dirtyBuckets {
			if m.bucketDirty[b] == bucketRewritten {
				nRewritten++
			}
		}
		nTouched = len(m.dirtyBuckets) - nRewritten
	}
	nStash := max(len(m.stashList), pad.StashEntries)
	valueBytes := (nStash - len(m.stashList)) * pad.ValueSize
	for _, e := range m.stashList {
		if e.pending {
			return nil, errors.New("ringoram: checkpoint with pending stash entries (mid-epoch checkpoint)")
		}
		value, _, err := m.plane.Value(e.blk, e.key)
		if err != nil {
			return nil, err
		}
		if len(value) > m.p.ValueSize {
			return nil, fmt.Errorf("ringoram: stash value of %d bytes for %q exceeds ValueSize %d", len(value), e.key, m.p.ValueSize)
		}
		valueBytes += len(value)
	}
	size := imageHeaderSize + nKeys*l.keyEntry(full) + nTouched*l.touchedEntry() +
		nRewritten*l.rewrittenEntry(full) + nStash*l.stashHeader() + valueBytes

	buf := dst[:0]
	if n := head + size + tail; cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	b := buf[head : head+size]
	imageHeader{
		full: full, keySize: l.keySize, z: l.z, slotsPer: l.slotsPer, numBuckets: l.numBuckets, numBlocks: l.numBlocks,
		accessCount: m.accessCount, evictCount: m.evictCount,
		nKeys: nKeys, nTouched: nTouched, nRewritten: nRewritten, nStash: nStash,
	}.put(b)
	b = b[imageHeaderSize:]

	if full {
		k := &m.keys
		for i := range int32(k.len()) {
			b = l.leaf.put(l.putKey(b, k.name(i)), int(k.leaf[i]))
			if k.bucket[i] < 0 {
				b = l.bucket.put(b, l.bucket.ones())[l.pos:]
				continue
			}
			b = l.pos.put(l.bucket.put(b, int(k.bucket[i])), int(k.rpos[i]))
		}
		for id := range m.buckets {
			b = m.putRewritten(l, b, id, true)
		}
	} else {
		for _, i := range m.dirtyKeys {
			b = l.leaf.put(l.putKey(b, m.keys.name(i)), int(m.keys.leaf[i]))
		}
		b = b[(nKeys-len(m.dirtyKeys))*l.keyEntry(false):] // padding: zeros
		for _, id := range m.dirtyBuckets {
			if m.bucketDirty[id] != bucketTouched {
				continue
			}
			bm := m.bucket(int(id))
			b = putBucketState(l, b, int(id), bm)
			putBits(b[:l.occBytes], bm.occ)
			b = b[l.occBytes:]
		}
		for _, id := range m.dirtyBuckets {
			if m.bucketDirty[id] == bucketRewritten {
				b = m.putRewritten(l, b, int(id), false)
			}
		}
	}

	for _, e := range m.stashList {
		value, tombstone, _ := m.plane.Value(e.blk, e.key) // read above
		b = l.index.put(b, int(e.ki)+1)
		if tombstone {
			b[0] |= stashFlagTombstone
		}
		if e.cacheable {
			b[0] |= stashFlagCacheable
		}
		b = l.valLen.put(l.leaf.put(b[1:], e.leaf), len(value))
		b = b[copy(b, value):]
	}
	for i := len(m.stashList); i < nStash; i++ {
		l.valLen.put(b[l.stashHeader()-int(l.valLen):], pad.ValueSize)
		b = b[l.stashHeader()+pad.ValueSize:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("ringoram: checkpoint image size mismatch: %d bytes unwritten", len(b))
	}
	return buf, nil
}

// putBucketState writes the part every bucket entry starts with: index and
// valid bitmap.
func putBucketState(l imageLayout, b []byte, id int, bm bucketView) []byte {
	b = l.bucket.put(b, id)
	putBits(b[:l.validBytes], bm.valid)
	return b[l.validBytes:]
}

func (m *Machine) putRewritten(l imageLayout, b []byte, id int, full bool) []byte {
	bm := m.bucket(id)
	b = putBucketState(l, b, id, bm)
	binary.BigEndian.PutUint64(b, bm.writeVer)
	b = b[8+copy(b[8:], bm.seed[:]):]
	for _, s := range bm.perm {
		b = l.slot.put(b, int(s))
	}
	if !full {
		for _, ki := range bm.addrs {
			b = l.index.put(b, int(ki)+1) // an empty position, -1, is 0
		}
	}
	return b
}

// ClearDirty resets delta tracking; call once a checkpoint image has been
// taken (the image owns those changes from then on).
func (m *Machine) ClearDirty() {
	for _, i := range m.dirtyKeys {
		m.keys.dirty.unset(int(i))
	}
	m.dirtyKeys = m.dirtyKeys[:0]
	for _, b := range m.dirtyBuckets {
		m.bucketDirty[b] = bucketClean
	}
	m.dirtyBuckets = m.dirtyBuckets[:0]
}

// ImageInfo is what a checkpoint image's header says about it.
type ImageInfo struct {
	Full bool
	// PosEntries and Buckets count the position-map and bucket entries the
	// image carries, padding included.
	PosEntries, Buckets int
}

// InspectImage reads an image's header without decoding its entries.
func InspectImage(img []byte) (ImageInfo, error) {
	h, err := readImageHeader(img)
	if err != nil {
		return ImageInfo{}, err
	}
	return ImageInfo{Full: h.full, PosEntries: h.nKeys, Buckets: h.nTouched + h.nRewritten}, nil
}

// cursor walks a section of an image whose size was checked against its entry
// count beforehand: reads inside a section are in bounds by construction.
type cursor []byte

func (c *cursor) take(n int) []byte {
	b := (*c)[:n]
	*c = (*c)[n:]
	return b
}

func (c *cursor) u8() uint8   { return c.take(1)[0] }
func (c *cursor) u16() int    { return int(binary.BigEndian.Uint16(c.take(2))) }
func (c *cursor) u32() int    { return int(binary.BigEndian.Uint32(c.take(4))) }
func (c *cursor) u64() uint64 { return binary.BigEndian.Uint64(c.take(8)) }

// int reads a field of width w.
func (c *cursor) int(w width) int { return w.get(c.take(int(w))) }

// key reads a fixed-width key field, as a view of the image.
func (c *cursor) key(l imageLayout) ([]byte, error) {
	f := c.take(l.keyField())
	n := l.keyLen.get(f)
	if n > l.keySize {
		return nil, fmt.Errorf("ringoram: checkpoint image key length %d exceeds KeySize %d", n, l.keySize)
	}
	return f[l.keyLen:][:n], nil
}

// keyIndex reads a key-table index field: -1 (0 on the wire) names no key,
// and an index past the end of the table is refused.
func (m *Machine) keyIndex(l imageLayout, c *cursor) (int32, error) {
	ki := c.int(l.index) - 1
	if ki >= m.keys.len() {
		return 0, fmt.Errorf("ringoram: checkpoint names key index %d, the table holds %d keys", ki, m.keys.len())
	}
	return int32(ki), nil
}

func bit(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// Restore reconstructs a client from a full checkpoint image followed by zero
// or more delta images, in log order. No storage writes are performed: the
// shadow-paged tree on the server is reverted separately via RollbackTo.
// Images are untrusted only in the sense that a bug or a mismatched
// configuration may have produced them (the log authenticates them): every
// count, index and length is checked before it is used. The stash each
// image lists replaces the one before it, and plane, the byte plane the
// machine drives from then on, is handed the values of the stash the last
// image leaves.
func Restore(p Params, plane Plane, full []byte, deltas ...[]byte) (*Machine, error) {
	m, err := newMachine(p, plane)
	if err != nil {
		return nil, err
	}
	l := m.imageLayout()
	images := append([][]byte{full}, deltas...)
	for i, img := range images {
		if err := m.applyImage(l, img, i == 0, i == len(images)-1); err != nil {
			return nil, err
		}
	}
	// Rebuild the location index from bucket metadata: a block is resident
	// in at most one place, on its leaf's path, in a slot not read since its
	// bucket was written, never both resident and stashed. The images record
	// addrs and valid; occ and filler follow from them.
	for b := range m.buckets {
		bm := m.bucket(b)
		bm.derive()
		for r, ki := range bm.addrs {
			if ki < 0 {
				continue
			}
			k, name := &m.keys, m.keys.name(ki)
			if _, inStash := m.stash[ki]; inStash {
				return nil, fmt.Errorf("ringoram: checkpoint places %q both in stash and bucket %d", name, b)
			}
			if k.bucket[ki] >= 0 {
				return nil, fmt.Errorf("ringoram: checkpoint places %q in buckets %d and %d", name, k.bucket[ki], b)
			}
			if m.geo.PathBucket(int(k.leaf[ki]), BucketLevel(b)) != b {
				return nil, fmt.Errorf("ringoram: checkpoint places %q in bucket %d, off its leaf %d's path", name, b, k.leaf[ki])
			}
			if !bm.valid.has(int(bm.perm[r])) {
				return nil, fmt.Errorf("ringoram: checkpoint places %q at position %d of bucket %d, whose slot was read", name, r, b)
			}
			k.bucket[ki], k.rpos[ki] = int32(b), uint16(r)
		}
	}
	m.stashPeak = len(m.stash)
	return m, nil
}

// applyImage decodes one image into the machine, handing its stash's values
// to the plane if it is the last. wantFull says which kind the caller's
// position in the restore sequence requires.
func (m *Machine) applyImage(l imageLayout, img []byte, wantFull, last bool) error {
	h, err := readImageHeader(img)
	if err != nil {
		return err
	}
	c := cursor(img[imageHeaderSize:])
	full := h.full
	if full != wantFull {
		if wantFull {
			return errors.New("ringoram: restore requires a full checkpoint image first")
		}
		return errors.New("ringoram: full checkpoint image in delta position")
	}
	if h.keySize != l.keySize || h.z != l.z || h.slotsPer != l.slotsPer || h.numBuckets != l.numBuckets || h.numBlocks != l.numBlocks {
		return fmt.Errorf("ringoram: checkpoint image shaped KeySize=%d Z=%d slots=%d buckets=%d NumBlocks=%d, client is KeySize=%d Z=%d slots=%d buckets=%d NumBlocks=%d",
			h.keySize, h.z, h.slotsPer, h.numBuckets, h.numBlocks, l.keySize, l.z, l.slotsPer, l.numBuckets, l.numBlocks)
	}
	nKeys, nTouched, nRewritten, nStash := h.nKeys, h.nTouched, h.nRewritten, h.nStash
	// Counts come before anything is allocated or applied: the fixed-width
	// part of every section must fit in what is left of the image. Each
	// fixed-width section is then cut out at its exact size.
	keysLen := uint64(nKeys) * uint64(l.keyEntry(full))
	touchedLen := uint64(nTouched) * uint64(l.touchedEntry())
	rewrittenLen := uint64(nRewritten) * uint64(l.rewrittenEntry(full))
	if need := keysLen + touchedLen + rewrittenLen + uint64(nStash)*uint64(l.stashHeader()); need > uint64(len(c)) {
		return fmt.Errorf("ringoram: checkpoint image counts need %d bytes, %d remain", need, len(c))
	}
	if full && (nTouched != 0 || nRewritten != l.numBuckets) {
		return fmt.Errorf("ringoram: full checkpoint image covers %d+%d buckets, tree has %d", nTouched, nRewritten, l.numBuckets)
	}
	keys, touched, rewritten := cursor(c.take(int(keysLen))), cursor(c.take(int(touchedLen))), cursor(c.take(int(rewrittenLen)))
	if full {
		m.keys.reserve(min(nKeys, m.p.NumBlocks))
	}
	m.accessCount, m.evictCount = h.accessCount, h.evictCount

	for i := 0; i < nKeys; i++ {
		key, err := keys.key(l)
		if err != nil {
			return err
		}
		leaf := keys.int(l.leaf)
		bucket, pos := l.bucket.ones(), 0
		if full {
			bucket, pos = keys.int(l.bucket), keys.int(l.pos)
		}
		if len(key) == 0 {
			continue // padding
		}
		if leaf >= m.geo.Leaves {
			return fmt.Errorf("ringoram: checkpoint leaf %d out of range", leaf)
		}
		// Looked up by its bytes: only a new name is copied, into the table.
		ki, known := m.keys.lookupBytes(key)
		if !known {
			if m.keys.len() >= m.p.NumBlocks {
				return fmt.Errorf("ringoram: checkpoint holds more than NumBlocks=%d keys", m.p.NumBlocks)
			}
			if ki, err = m.keys.addBytes(key); err != nil {
				return err
			}
		} else if full {
			return fmt.Errorf("ringoram: full checkpoint image lists %q twice", key)
		}
		m.keys.leaf[ki] = int32(leaf)
		if bucket != l.bucket.ones() {
			if bucket >= l.numBuckets || pos >= l.z {
				return fmt.Errorf("ringoram: checkpoint places %q at bucket %d position %d, out of range", key, bucket, pos)
			}
			if prev := m.addrs[bucket*l.z+pos]; prev >= 0 {
				return fmt.Errorf("ringoram: checkpoint places %q and %q at bucket %d position %d", m.keys.name(prev), key, bucket, pos)
			}
			m.addrs[bucket*l.z+pos] = ki
		}
	}

	for i := 0; i < nTouched; i++ {
		id, bm, err := m.readBucketState(l, &touched)
		if err != nil {
			return err
		}
		occ := touched.take(l.occBytes)
		for pos := range bm.addrs {
			switch occupied := bit(occ, pos); {
			case !occupied:
				bm.addrs[pos] = -1
			case bm.addrs[pos] < 0:
				return fmt.Errorf("ringoram: delta image marks empty position %d of bucket %d occupied", pos, id)
			}
		}
	}

	seen := make([]bool, l.slotsPer)
	for i := 0; i < nRewritten; i++ {
		id, bm, err := m.readBucketState(l, &rewritten)
		if err != nil {
			return err
		}
		bm.writeVer = rewritten.u64()
		bm.seed = Seed(rewritten.take(len(bm.seed)))
		clear(seen)
		for pos := range bm.perm {
			s := l.slot.get(rewritten.take(int(l.slot)))
			if s >= l.slotsPer || seen[s] {
				return fmt.Errorf("ringoram: checkpoint permutation of bucket %d repeats or overruns slot %d", id, s)
			}
			seen[s] = true
			bm.perm[pos] = uint16(s)
		}
		if !full {
			for pos := range bm.addrs {
				if bm.addrs[pos], err = m.keyIndex(l, &rewritten); err != nil {
					return err
				}
			}
		}
	}

	// The stash in each image is complete: replace wholesale, the entries it
	// drops back to the pool (no value was handed over for them). Values are
	// variable-length, so each entry is bounds-checked as it is read.
	for _, e := range m.stashList {
		*e = stashEntry{blk: e.blk}
		m.entryPool = append(m.entryPool, e)
	}
	clear(m.stash)
	m.stashList = m.stashList[:0]
	for i := 0; i < nStash; i++ {
		if len(c) < l.stashHeader() {
			return errors.New("ringoram: checkpoint image truncated in the stash")
		}
		ki, err := m.keyIndex(l, &c)
		if err != nil {
			return err
		}
		flags, leaf, valLen := c.u8(), c.int(l.leaf), c.int(l.valLen)
		if valLen > len(c) {
			return fmt.Errorf("ringoram: checkpoint stash value of %d bytes, %d remain", valLen, len(c))
		}
		value := c.take(valLen)
		if ki < 0 {
			continue // padding
		}
		key := m.keys.name(ki)
		if leaf >= m.geo.Leaves || valLen > m.p.ValueSize {
			return fmt.Errorf("ringoram: checkpoint stash entry %q has leaf %d, %d value bytes", key, leaf, valLen)
		}
		if _, dup := m.stash[ki]; dup {
			return fmt.Errorf("ringoram: checkpoint stash lists %q twice", key)
		}
		e := m.newEntry(stashEntry{key: key, ki: ki, leaf: leaf, cacheable: flags&stashFlagCacheable != 0})
		m.stashAdd(e)
		if last {
			if err := m.plane.Put(e.blk, e.key, value, flags&stashFlagTombstone != 0); err != nil {
				return err
			}
		}
	}
	if len(m.stashList) > m.p.StashLimit {
		return fmt.Errorf("ringoram: checkpoint stash of %d entries exceeds the limit %d", len(m.stashList), m.p.StashLimit)
	}
	if len(c) != 0 {
		return fmt.Errorf("ringoram: %d trailing bytes after checkpoint image", len(c))
	}
	return nil
}

// readBucketState decodes the common head of a bucket entry into the bucket
// it names and returns that bucket.
func (m *Machine) readBucketState(l imageLayout, c *cursor) (int, bucketView, error) {
	id := c.int(l.bucket)
	valid := c.take(l.validBytes)
	if id >= l.numBuckets {
		return 0, bucketView{}, fmt.Errorf("ringoram: checkpoint bucket %d out of range", id)
	}
	bm := m.bucket(id)
	readBits(bm.valid, valid, l.slotsPer)
	return id, bm, nil
}
