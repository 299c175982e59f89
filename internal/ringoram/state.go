package ringoram

import (
	"encoding/binary"
	"errors"
	"fmt"

	"obladi/internal/cryptoutil"
)

// A checkpoint image is the client metadata the recovery unit logs at epoch
// boundaries (§8): the position map, the permutation/valid maps, the stash
// and the access/eviction counters, either whole (full) or as the changes
// since the last ClearDirty (delta). It is written straight from the live
// structures into one exact-size buffer and read straight back into them;
// there is no intermediate representation.
//
// Every entry kind has a fixed width given the public parameters (KeySize, Z,
// S), so an image's size is a function of entry counts alone, and padding
// entries are byte-for-byte the size of real ones. All integers big-endian:
//
//	header    flags(u8: bit0 full) keySize(u16) z(u16) slotsPer(u16)
//	          numBuckets(u32) accessCount(u64) evictCount(u64)
//	          nKeys(u32) nTouched(u32) nRewritten(u32) nStash(u32)
//	key       keyLen(u16) key[keySize] leaf(u32)            keyLen 0 = padding
//	          full only: bucket(u32, 0xFFFFFFFF = not in the tree) pos(u16)
//	touched   bucket(u32) count(u16) valid[⌈slotsPer/8⌉] occupied[⌈z/8⌉]
//	rewritten bucket(u32) count(u16) valid[⌈slotsPer/8⌉] writeVer(u64)
//	          perm[slotsPer]×(u8 if slotsPer ≤ 256 else u16)
//	          delta only: z × (keyLen(u16) key[keySize])     keyLen 0 = empty
//	stash     keyLen(u16) key[keySize] flags(u8: bit0 tombstone, bit1
//	          cacheable) leaf(u32) valLen(u32) value[valLen]  keyLen 0 = padding
//
// A full image lists every key (in table order) and every bucket (in index
// order, as rewritten entries); the keys carry their tree location, so the
// buckets need not repeat the resident keys. A delta lists the keys remapped
// and the buckets dirtied since the last ClearDirty, in first-dirtied order.
//
// Touched versus rewritten is what keeps deltas small. perm, writeVer and the
// identity of a bucket's resident keys change only in an eviction's write
// phase (planEvictionLocked), which marks the bucket rewritten. The other
// mutation sites — consumeFiller (both branches), the target slot of
// planReadLocked, PlanWrite's logical removal of a stale tree copy, and the
// eviction read phase — only clear a valid bit, bump count, or blank a
// resident key, so their buckets are described by state: the valid bitmap,
// the count, and which real positions are still occupied.
const (
	imageHeaderSize = 1 + 2 + 2 + 2 + 4 + 8 + 8 + 4 + 4 + 4 + 4
	imageFlagFull   = 1

	stashFlagTombstone = 1
	stashFlagCacheable = 2

	noBucket = 0xFFFFFFFF
)

// imageHeader is the fixed head of every image: the kind, the geometry it was
// written under, the counters, and the entry count of each section.
type imageHeader struct {
	full                                bool
	keySize, z, slotsPer, numBuckets    int
	accessCount, evictCount             uint64
	nKeys, nTouched, nRewritten, nStash int
}

func (h imageHeader) put(b []byte) {
	if h.full {
		b[0] = imageFlagFull
	}
	binary.BigEndian.PutUint16(b[1:], uint16(h.keySize))
	binary.BigEndian.PutUint16(b[3:], uint16(h.z))
	binary.BigEndian.PutUint16(b[5:], uint16(h.slotsPer))
	binary.BigEndian.PutUint32(b[7:], uint32(h.numBuckets))
	binary.BigEndian.PutUint64(b[11:], h.accessCount)
	binary.BigEndian.PutUint64(b[19:], h.evictCount)
	binary.BigEndian.PutUint32(b[27:], uint32(h.nKeys))
	binary.BigEndian.PutUint32(b[31:], uint32(h.nTouched))
	binary.BigEndian.PutUint32(b[35:], uint32(h.nRewritten))
	binary.BigEndian.PutUint32(b[39:], uint32(h.nStash))
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
		accessCount: binary.BigEndian.Uint64(img[11:]),
		evictCount:  binary.BigEndian.Uint64(img[19:]),
		nKeys:       int(binary.BigEndian.Uint32(img[27:])),
		nTouched:    int(binary.BigEndian.Uint32(img[31:])),
		nRewritten:  int(binary.BigEndian.Uint32(img[35:])),
		nStash:      int(binary.BigEndian.Uint32(img[39:])),
	}, nil
}

// CheckpointPad fixes the padded shape of a checkpoint image so its size does
// not track the workload (§8 "Optimizations").
type CheckpointPad struct {
	// PosEntries pads a delta's position-map section to this many entries:
	// the most keys an epoch can remap. Full images list every key.
	PosEntries int
	// StashEntries pads the stash section to this many entries (the stash
	// limit).
	StashEntries int
	// ValueSize is the number of value bytes each padding stash entry
	// carries.
	ValueSize int
}

// imageLayout derives the entry widths from the public parameters.
type imageLayout struct {
	keySize, z, slotsPer, numBuckets int
	validBytes, occBytes, permWidth  int
}

func (o *ORAM) imageLayout() imageLayout {
	l := imageLayout{keySize: o.p.KeySize, z: o.p.Z, slotsPer: o.geo.SlotsPer, numBuckets: o.geo.NumBuckets}
	l.validBytes = (l.slotsPer + 7) / 8
	l.occBytes = (l.z + 7) / 8
	l.permWidth = 1
	if l.slotsPer > 256 {
		l.permWidth = 2
	}
	return l
}

func (l imageLayout) keyField() int { return 2 + l.keySize }

func (l imageLayout) keyEntry(full bool) int {
	if full {
		return l.keyField() + 4 + 4 + 2
	}
	return l.keyField() + 4
}

func (l imageLayout) touchedEntry() int { return 4 + 2 + l.validBytes + l.occBytes }

func (l imageLayout) rewrittenEntry(full bool) int {
	n := 4 + 2 + l.validBytes + 8 + l.slotsPer*l.permWidth
	if !full {
		n += l.z * l.keyField()
	}
	return n
}

func (l imageLayout) stashHeader() int { return l.keyField() + 1 + 4 + 4 }

// putKey writes a fixed-width key field at b and returns the bytes after it.
// b is zeroed, so the unused tail of the field needs no write.
func (l imageLayout) putKey(b []byte, key string) []byte {
	binary.BigEndian.PutUint16(b, uint16(len(key)))
	copy(b[2:], key)
	return b[l.keyField():]
}

// setBit sets bit i of the zeroed bitmap b (bit i%8 of byte i/8).
func setBit(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

// EncodeCheckpoint writes a full or delta image of the current metadata into
// one freshly allocated buffer, with head bytes reserved in front of the
// image and tail bytes behind it (the recovery log's framing and AEAD tag),
// and returns the buffer. It does not reset delta tracking; see ClearDirty.
// It fails while an access is in flight (a pending stash entry has no value
// to log): checkpoints belong to epoch boundaries.
func (o *ORAM) EncodeCheckpoint(full bool, pad CheckpointPad, head, tail int) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l := o.imageLayout()
	if l.slotsPer >= 1<<16 || l.numBuckets >= noBucket {
		return nil, fmt.Errorf("ringoram: geometry (%d slots per bucket, %d buckets) exceeds the checkpoint format", l.slotsPer, l.numBuckets)
	}

	nKeys, nTouched, nRewritten := len(o.keys), 0, l.numBuckets
	if !full {
		nKeys = max(len(o.dirtyKeys), pad.PosEntries)
		nRewritten = 0
		for _, b := range o.dirtyBuckets {
			if o.bucketDirty[b] == bucketRewritten {
				nRewritten++
			}
		}
		nTouched = len(o.dirtyBuckets) - nRewritten
	}
	nStash := max(len(o.stashList), pad.StashEntries)
	valueBytes := (nStash - len(o.stashList)) * pad.ValueSize
	for _, e := range o.stashList {
		if e.pending {
			return nil, errors.New("ringoram: checkpoint with pending stash entries (mid-epoch checkpoint)")
		}
		valueBytes += len(e.value)
	}
	size := imageHeaderSize + nKeys*l.keyEntry(full) + nTouched*l.touchedEntry() +
		nRewritten*l.rewrittenEntry(full) + nStash*l.stashHeader() + valueBytes

	buf := make([]byte, head+size+tail)
	b := buf[head : head+size]
	imageHeader{
		full: full, keySize: l.keySize, z: l.z, slotsPer: l.slotsPer, numBuckets: l.numBuckets,
		accessCount: o.accessCount, evictCount: o.evictCount,
		nKeys: nKeys, nTouched: nTouched, nRewritten: nRewritten, nStash: nStash,
	}.put(b)
	b = b[imageHeaderSize:]

	if full {
		for i := range o.keys {
			k := &o.keys[i]
			b = l.putKey(b, k.name)
			binary.BigEndian.PutUint32(b, uint32(k.leaf))
			binary.BigEndian.PutUint32(b[4:], uint32(k.bucket)) // -1 is noBucket
			if k.bucket >= 0 {
				binary.BigEndian.PutUint16(b[8:], uint16(k.rpos))
			}
			b = b[10:]
		}
		for id := range o.meta {
			b = o.putRewritten(l, b, id, true)
		}
	} else {
		for _, i := range o.dirtyKeys {
			b = l.putKey(b, o.keys[i].name)
			binary.BigEndian.PutUint32(b, uint32(o.keys[i].leaf))
			b = b[4:]
		}
		b = b[(nKeys-len(o.dirtyKeys))*l.keyEntry(false):] // padding: zeros
		for _, id := range o.dirtyBuckets {
			if o.bucketDirty[id] != bucketTouched {
				continue
			}
			m := &o.meta[id]
			b = putBucketState(l, b, int(id), m)
			for r, key := range m.addrs {
				if key != "" {
					setBit(b, r)
				}
			}
			b = b[l.occBytes:]
		}
		for _, id := range o.dirtyBuckets {
			if o.bucketDirty[id] == bucketRewritten {
				b = o.putRewritten(l, b, int(id), false)
			}
		}
	}

	for _, e := range o.stashList {
		b = l.putKey(b, e.key)
		if e.tombstone {
			b[0] |= stashFlagTombstone
		}
		if e.cacheable {
			b[0] |= stashFlagCacheable
		}
		binary.BigEndian.PutUint32(b[1:], uint32(e.leaf))
		binary.BigEndian.PutUint32(b[5:], uint32(len(e.value)))
		b = b[9+copy(b[9:], e.value):]
	}
	for i := len(o.stashList); i < nStash; i++ {
		binary.BigEndian.PutUint32(b[l.keyField()+5:], uint32(pad.ValueSize))
		b = b[l.stashHeader()+pad.ValueSize:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("ringoram: checkpoint image size mismatch: %d bytes unwritten", len(b))
	}
	return buf, nil
}

// putBucketState writes the part every bucket entry starts with: index, slot
// count and valid bitmap.
func putBucketState(l imageLayout, b []byte, id int, m *bucketMeta) []byte {
	binary.BigEndian.PutUint32(b, uint32(id))
	binary.BigEndian.PutUint16(b[4:], uint16(m.count))
	for s, ok := range m.valid {
		if ok {
			setBit(b[6:], s)
		}
	}
	return b[6+l.validBytes:]
}

func (o *ORAM) putRewritten(l imageLayout, b []byte, id int, full bool) []byte {
	m := &o.meta[id]
	b = putBucketState(l, b, id, m)
	binary.BigEndian.PutUint64(b, m.writeVer)
	b = b[8:]
	for _, s := range m.perm {
		if l.permWidth == 1 {
			b[0] = uint8(s)
		} else {
			binary.BigEndian.PutUint16(b, uint16(s))
		}
		b = b[l.permWidth:]
	}
	if !full {
		for _, key := range m.addrs {
			b = l.putKey(b, key)
		}
	}
	return b
}

// ClearDirty resets delta tracking; call once a checkpoint image has been
// taken (the image owns those changes from then on).
func (o *ORAM) ClearDirty() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, i := range o.dirtyKeys {
		o.keys[i].dirty = false
	}
	o.dirtyKeys = o.dirtyKeys[:0]
	for _, b := range o.dirtyBuckets {
		o.bucketDirty[b] = bucketClean
	}
	o.dirtyBuckets = o.dirtyBuckets[:0]
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

// key reads a fixed-width key field.
func (c *cursor) key(l imageLayout) (string, error) {
	f := c.take(l.keyField())
	n := int(binary.BigEndian.Uint16(f))
	if n > l.keySize {
		return "", fmt.Errorf("ringoram: checkpoint image key length %d exceeds KeySize %d", n, l.keySize)
	}
	return string(f[2 : 2+n]), nil
}

func bit(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// Restore reconstructs a client from a full checkpoint image followed by zero
// or more delta images, in log order. No storage writes are performed: the
// shadow-paged tree on the server is reverted separately via RollbackTo.
// Images are untrusted only in the sense that a bug or a mismatched
// configuration may have produced them (the log authenticates them): every
// count, index and length is checked before it is used.
func Restore(key *cryptoutil.Key, p Params, full []byte, deltas ...[]byte) (*ORAM, error) {
	o, err := newClient(key, p)
	if err != nil {
		return nil, err
	}
	// One slab per metadata array instead of three slices per bucket.
	l := o.imageLayout()
	perms := make([]int, l.numBuckets*l.slotsPer)
	addrs := make([]string, l.numBuckets*l.z)
	valid := make([]bool, l.numBuckets*l.slotsPer)
	for b := range o.meta {
		o.meta[b] = bucketMeta{
			perm:  perms[b*l.slotsPer : (b+1)*l.slotsPer : (b+1)*l.slotsPer],
			addrs: addrs[b*l.z : (b+1)*l.z : (b+1)*l.z],
			valid: valid[b*l.slotsPer : (b+1)*l.slotsPer : (b+1)*l.slotsPer],
		}
	}
	if err := o.applyImage(l, full, true); err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if err := o.applyImage(l, d, false); err != nil {
			return nil, err
		}
	}
	// Rebuild the location index from bucket metadata: a block is resident
	// in at most one place, never both resident and stashed.
	for b := range o.meta {
		for r, key := range o.meta[b].addrs {
			if key == "" {
				continue
			}
			if _, inStash := o.stash[key]; inStash {
				return nil, fmt.Errorf("ringoram: checkpoint places %q both in stash and bucket %d", key, b)
			}
			ki, known := o.pos[key]
			if !known {
				return nil, fmt.Errorf("ringoram: checkpoint places %q in bucket %d without a position-map entry", key, b)
			}
			k := &o.keys[ki]
			if k.bucket >= 0 {
				return nil, fmt.Errorf("ringoram: checkpoint places %q in buckets %d and %d", key, k.bucket, b)
			}
			k.bucket, k.rpos = int32(b), int32(r)
		}
	}
	o.stashPeak = len(o.stash)
	return o, nil
}

// applyImage decodes one image into the client. wantFull says which kind the
// caller's position in the restore sequence requires.
func (o *ORAM) applyImage(l imageLayout, img []byte, wantFull bool) error {
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
	if h.keySize != l.keySize || h.z != l.z || h.slotsPer != l.slotsPer || h.numBuckets != l.numBuckets {
		return fmt.Errorf("ringoram: checkpoint image shaped KeySize=%d Z=%d slots=%d buckets=%d, client is KeySize=%d Z=%d slots=%d buckets=%d",
			h.keySize, h.z, h.slotsPer, h.numBuckets, l.keySize, l.z, l.slotsPer, l.numBuckets)
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
	o.accessCount, o.evictCount = h.accessCount, h.evictCount

	for i := 0; i < nKeys; i++ {
		key, err := keys.key(l)
		if err != nil {
			return err
		}
		leaf := keys.u32()
		bucket, pos := noBucket, 0
		if full {
			bucket, pos = keys.u32(), keys.u16()
		}
		if key == "" {
			continue // padding
		}
		if leaf >= o.geo.Leaves {
			return fmt.Errorf("ringoram: checkpoint leaf %d out of range", leaf)
		}
		ki, known := o.pos[key]
		if !known {
			if len(o.keys) >= o.p.NumBlocks {
				return fmt.Errorf("ringoram: checkpoint holds more than NumBlocks=%d keys", o.p.NumBlocks)
			}
			ki = o.addKey(key)
		} else if full {
			return fmt.Errorf("ringoram: full checkpoint image lists %q twice", key)
		}
		o.keys[ki].leaf = int32(leaf)
		if bucket != noBucket {
			if bucket >= l.numBuckets || pos >= l.z {
				return fmt.Errorf("ringoram: checkpoint places %q at bucket %d position %d, out of range", key, bucket, pos)
			}
			if prev := o.meta[bucket].addrs[pos]; prev != "" {
				return fmt.Errorf("ringoram: checkpoint places %q and %q at bucket %d position %d", prev, key, bucket, pos)
			}
			o.meta[bucket].addrs[pos] = key
		}
	}

	for i := 0; i < nTouched; i++ {
		id, m, err := o.readBucketState(l, &touched)
		if err != nil {
			return err
		}
		occ := touched.take(l.occBytes)
		for pos := range m.addrs {
			switch occupied := bit(occ, pos); {
			case !occupied:
				m.addrs[pos] = ""
			case m.addrs[pos] == "":
				return fmt.Errorf("ringoram: delta image marks empty position %d of bucket %d occupied", pos, id)
			}
		}
	}

	seen := make([]bool, l.slotsPer)
	for i := 0; i < nRewritten; i++ {
		id, m, err := o.readBucketState(l, &rewritten)
		if err != nil {
			return err
		}
		m.writeVer = rewritten.u64()
		clear(seen)
		for pos := range m.perm {
			s := 0
			if l.permWidth == 1 {
				s = int(rewritten.u8())
			} else {
				s = rewritten.u16()
			}
			if s >= l.slotsPer || seen[s] {
				return fmt.Errorf("ringoram: checkpoint permutation of bucket %d repeats or overruns slot %d", id, s)
			}
			seen[s] = true
			m.perm[pos] = s
		}
		if !full {
			for pos := range m.addrs {
				if m.addrs[pos], err = rewritten.key(l); err != nil {
					return err
				}
			}
		}
	}

	// The stash in each image is complete: replace wholesale. Values are
	// variable-length, so each entry is bounds-checked as it is read.
	clear(o.stash)
	o.stashList = o.stashList[:0]
	for i := 0; i < nStash; i++ {
		if len(c) < l.stashHeader() {
			return errors.New("ringoram: checkpoint image truncated in the stash")
		}
		key, err := c.key(l)
		if err != nil {
			return err
		}
		flags, leaf, valLen := c.u8(), c.u32(), c.u32()
		if valLen > len(c) {
			return fmt.Errorf("ringoram: checkpoint stash value of %d bytes, %d remain", valLen, len(c))
		}
		value := c.take(valLen)
		if key == "" {
			continue // padding
		}
		if leaf >= o.geo.Leaves || valLen > o.p.ValueSize {
			return fmt.Errorf("ringoram: checkpoint stash entry %q has leaf %d, %d value bytes", key, leaf, valLen)
		}
		if _, dup := o.stash[key]; dup {
			return fmt.Errorf("ringoram: checkpoint stash lists %q twice", key)
		}
		if _, known := o.pos[key]; !known {
			return fmt.Errorf("ringoram: checkpoint stash entry %q has no position-map entry", key)
		}
		o.stashAdd(&stashEntry{
			key:       key,
			value:     append([]byte(nil), value...),
			tombstone: flags&stashFlagTombstone != 0,
			leaf:      leaf,
			cacheable: flags&stashFlagCacheable != 0,
		})
	}
	if len(o.stashList) > o.p.StashLimit {
		return fmt.Errorf("ringoram: checkpoint stash of %d entries exceeds the limit %d", len(o.stashList), o.p.StashLimit)
	}
	if len(c) != 0 {
		return fmt.Errorf("ringoram: %d trailing bytes after checkpoint image", len(c))
	}
	return nil
}

// readBucketState decodes the common head of a bucket entry into the bucket
// it names and returns that bucket.
func (o *ORAM) readBucketState(l imageLayout, c *cursor) (int, *bucketMeta, error) {
	id, count := c.u32(), c.u16()
	bits := c.take(l.validBytes)
	if id >= l.numBuckets {
		return 0, nil, fmt.Errorf("ringoram: checkpoint bucket %d out of range", id)
	}
	m := &o.meta[id]
	m.count = count
	for s := range m.valid {
		m.valid[s] = bit(bits, s)
	}
	return id, m, nil
}
