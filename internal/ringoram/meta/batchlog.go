package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A batch record is the recovery log's copy of one batch's public schedule
// (§8): every step the batch planned, in plan order, with the slots it read,
// so a recovering proxy replays exactly the reads storage already saw. An
// access the stash served reads nothing and is not logged. The layout is
// fixed-width, so a record's length depends only on how many entries of each
// kind it holds — which the adversary sees on the bucket store anyway — and
// never on whether an access was real or a padding dummy, or on how long its
// key is. Big-endian, the kind byte being the step's PlanKind:
//
//	header    keySize(u16) pathLen(u16) z(u16) slotWidth(u8) nEntries(u32)
//	access    kind(u8) keyLen(u16) key[keySize] leaf(u32) slot[pathLen]
//	evict     kind(u8) pathLen × ( n(u16) slot[z] )
//	reshuffle kind(u8) bucket(u32) n(u16) slot[z]
//	write     kind(u8)
//
// Slots are slotWidth bytes each, the width of a slot index (see width). An
// eviction reads at most z slots per bucket (fewer only when a bucket ran out
// of fillers); n says how many of the z slot fields are meaningful. A write
// names no key: a replay only counts it.
const batchLogHeaderSize = 2 + 2 + 2 + 1 + 4

// width is the byte width of a sized integer field: the fewest bytes that
// hold the field's largest legal value, which the public parameters fix
// (widthOf), so no field's width depends on the data. A checkpoint image
// sizes each per-entry integer this way, a batch record its slot indices:
// one byte while a bucket has at most 256 slots, else two (Validate keeps
// Z+S below 65 536). Values are big-endian.
type width int

// widthOf returns the width of a field whose values are at most max.
func widthOf(max int) width {
	w := width(1)
	for max>>(8*w) != 0 {
		w++
	}
	return w
}

// put writes v at the front of b and returns the bytes after it.
func (w width) put(b []byte, v int) []byte {
	for i := int(w) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b[w:]
}

func (w width) get(b []byte) int {
	v := 0
	for _, c := range b[:w] {
		v = v<<8 | int(c)
	}
	return v
}

// ones is the largest value w holds: every bit set.
func (w width) ones() int { return 1<<(8*w) - 1 }

// logShape holds the public parameters that fix a batch record's entry
// widths.
type logShape struct {
	keySize, pathLen, z int
	slot                width
}

func (m *Machine) logShape() logShape {
	return logShape{keySize: m.p.KeySize, pathLen: m.geo.Levels + 1, z: m.p.Z, slot: widthOf(m.geo.SlotsPer - 1)}
}

func (s logShape) bucketSize() int { return 2 + s.z*int(s.slot) }

// entrySize is the size of an entry of kind k, 0 for no kind.
func (s logShape) entrySize(k PlanKind) int {
	switch k {
	case AccessStep:
		return 1 + 2 + s.keySize + 4 + s.pathLen*int(s.slot)
	case EvictStep:
		return 1 + s.pathLen*s.bucketSize()
	case ReshuffleStep:
		return 1 + 4 + s.bucketSize()
	case WriteStep:
		return 1
	}
	return 0
}

// logged reports whether a step is a log entry: all but an access the stash
// served.
func logged(p *Plan) bool { return p.Kind != AccessStep || len(p.Reads) > 0 }

// BatchLog is a read-only view of a planned batch's log entries: it reads the
// steps in place, with no per-entry copy, and is valid only until they are
// completed.
type BatchLog struct {
	m     *Machine
	steps []*Plan
}

// BatchLog returns the log view of a batch's steps, in plan order.
func (m *Machine) BatchLog(steps []*Plan) BatchLog { return BatchLog{m: m, steps: steps} }

// Len returns the number of log entries.
func (l BatchLog) Len() int {
	n := 0
	for _, p := range l.steps {
		if p != nil && logged(p) {
			n++
		}
	}
	return n
}

// EncodedSize returns the exact number of bytes Encode writes.
func (l BatchLog) EncodedSize() int {
	s := l.m.logShape()
	n := batchLogHeaderSize
	for _, p := range l.steps {
		if p != nil && logged(p) {
			n += s.entrySize(p.Kind)
		}
	}
	return n
}

// Encode writes the entries into dst, which must be zeroed and exactly
// EncodedSize bytes long.
func (l BatchLog) Encode(dst []byte) error {
	s := l.m.logShape()
	binary.BigEndian.PutUint16(dst, uint16(s.keySize))
	binary.BigEndian.PutUint16(dst[2:], uint16(s.pathLen))
	binary.BigEndian.PutUint16(dst[4:], uint16(s.z))
	dst[6] = uint8(s.slot)
	binary.BigEndian.PutUint32(dst[7:], uint32(l.Len()))
	b := dst[batchLogHeaderSize:]
	for _, p := range l.steps {
		if p == nil || p.completed {
			return errors.New("ringoram: batch log read after its steps completed")
		}
		if !logged(p) {
			continue
		}
		b[0] = byte(p.Kind)
		b = b[1:]
		switch p.Kind {
		case AccessStep:
			if len(p.Key) > s.keySize {
				return fmt.Errorf("ringoram: logged key of %d bytes exceeds KeySize %d", len(p.Key), s.keySize)
			}
			binary.BigEndian.PutUint16(b, uint16(len(p.Key)))
			copy(b[2:], p.Key)
			binary.BigEndian.PutUint32(b[2+s.keySize:], uint32(p.Leaf))
			b = b[2+s.keySize+4:]
			for _, r := range p.Reads {
				b = s.slot.put(b, r.Slot)
			}
		case EvictStep, ReshuffleStep:
			if p.Kind == ReshuffleStep {
				binary.BigEndian.PutUint32(b, uint32(p.Buckets[0]))
				b = b[4:]
			}
			// Each bucket's reads are one contiguous run of p.Reads.
			next := 0
			for _, bucket := range p.Buckets {
				n := 0
				for ; next < len(p.Reads) && p.Reads[next].Bucket == bucket; next++ {
					if n == s.z {
						return fmt.Errorf("ringoram: eviction reads more than Z=%d slots of bucket %d", s.z, bucket)
					}
					s.slot.put(b[2+n*int(s.slot):], p.Reads[next].Slot)
					n++
				}
				binary.BigEndian.PutUint16(b, uint16(n))
				b = b[s.bucketSize():]
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("ringoram: batch log size mismatch: %d bytes unwritten", len(b))
	}
	return nil
}

// LogEntry is one decoded batch-record entry, a step to replay: enough to
// redo the adversary-visible reads of an aborted epoch (§8). Entries exist
// only on the recovery path; a live batch is logged straight from its plans
// (BatchLog).
type LogEntry struct {
	Kind PlanKind
	// Key is the key an access read ("" for a padding read).
	Key string
	// Leaf is the path an access read.
	Leaf int
	// Slots holds the slot an access read in each bucket of its path.
	Slots []int
	// Bucket is the bucket a reshuffle rewrote.
	Bucket int
	// BucketSlots holds the slots an evict-path read in each bucket of its
	// path, or the one list of slots a reshuffle read.
	BucketSlots [][]int
}

// DecodeBatchLog parses an encoded batch log into replayable entries
// (recovery only; it allocates per entry). Every count and length is checked
// against the bytes that remain before anything is allocated.
func DecodeBatchLog(b []byte) ([]LogEntry, error) {
	if len(b) < batchLogHeaderSize {
		return nil, fmt.Errorf("ringoram: batch log of %d bytes is shorter than its header", len(b))
	}
	c := cursor(b)
	s := logShape{keySize: c.u16(), pathLen: c.u16(), z: c.u16(), slot: width(c.u8())}
	n := c.u32()
	if s.slot != 1 && s.slot != 2 {
		return nil, fmt.Errorf("ringoram: batch log slot width %d", s.slot)
	}
	if n > len(c) { // every entry takes at least its kind byte
		return nil, fmt.Errorf("ringoram: batch log claims %d entries in %d bytes", n, len(c))
	}
	slots := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = s.slot.get(c.take(int(s.slot)))
		}
		return out
	}
	bucket := func() ([]int, error) {
		k := c.u16()
		if k > s.z {
			return nil, fmt.Errorf("ringoram: batch log bucket lists %d slots, Z is %d", k, s.z)
		}
		out := slots(k)
		c.take((s.z - k) * int(s.slot))
		return out, nil
	}
	entries := make([]LogEntry, 0, n)
	for i := 0; i < n; i++ {
		if len(c) == 0 {
			return nil, errors.New("ringoram: batch log truncated")
		}
		le := LogEntry{Kind: PlanKind(c.u8())}
		size := s.entrySize(le.Kind)
		if size == 0 {
			return nil, fmt.Errorf("ringoram: unknown log entry kind %d", le.Kind)
		}
		if size-1 > len(c) {
			return nil, errors.New("ringoram: batch log truncated")
		}
		var err error
		switch le.Kind {
		case AccessStep:
			keyLen := c.u16()
			if keyLen > s.keySize {
				return nil, fmt.Errorf("ringoram: batch log key length %d exceeds KeySize %d", keyLen, s.keySize)
			}
			le.Key = string(c.take(s.keySize)[:keyLen])
			le.Leaf = c.u32()
			le.Slots = slots(s.pathLen)
		case EvictStep:
			le.BucketSlots = make([][]int, s.pathLen)
			for j := range le.BucketSlots {
				if le.BucketSlots[j], err = bucket(); err != nil {
					return nil, err
				}
			}
		case ReshuffleStep:
			le.Bucket = c.u32()
			var read []int
			if read, err = bucket(); err != nil {
				return nil, err
			}
			le.BucketSlots = [][]int{read}
		}
		entries = append(entries, le)
	}
	if len(c) != 0 {
		return nil, fmt.Errorf("ringoram: %d trailing bytes after batch log", len(c))
	}
	return entries, nil
}

// Replay plans a logged batch's entries during crash recovery, one step per
// entry, appending them to dst: the metadata is mutated exactly as the logged
// batch did, with the logged leaf and slot choices (a bucket this replay
// already rewrote gets free ones), so the steps read what storage already saw.
// It plans an entry only when it is the step the schedule owes next (see
// due): after an access or a write, the early reshuffles and the evict-path
// it made due, in order, and an access or a write only when nothing is owed.
// Anything else, a batch that ends with a step still owed included, is
// refused with ErrReplay, and so is a batch with an access of a key longer
// than KeySize, before anything is planned. On error dst holds the steps
// planned before it.
func (m *Machine) Replay(entries []LogEntry, dst []*Plan) ([]*Plan, error) {
	for i, le := range entries {
		if len(le.Key) > m.p.KeySize {
			return dst, fmt.Errorf("%w: entry %d reads a key of %d bytes, KeySize is %d", ErrReplay, i, len(le.Key), m.p.KeySize)
		}
	}
	var path []SlotRead // the reads of the last access not yet checked for reshuffles
	for i := range entries {
		le := &entries[i]
		owed, bucket, rest := m.due(path)
		if owed == 0 && (le.Kind == AccessStep || le.Kind == WriteStep) {
			owed = le.Kind
		}
		if le.Kind != owed || (owed == ReshuffleStep && le.Bucket != bucket) {
			return dst, fmt.Errorf("%w: entry %d is a step of kind %d (bucket %d), the schedule owes kind %d (bucket %d)", ErrReplay, i, le.Kind, le.Bucket, owed, bucket)
		}
		p, err := m.replayStep(le, bucket)
		if err != nil {
			return dst, err
		}
		dst, path = append(dst, p), rest
		if owed == AccessStep {
			path = p.Reads
		}
	}
	if owed, _, _ := m.due(path); owed != 0 {
		return dst, fmt.Errorf("%w: the batch ends owing a step of kind %d", ErrReplay, owed)
	}
	return dst, nil
}

// replayStep plans one logged step the schedule owes; bucket is the bucket
// an owed reshuffle rewrites.
func (m *Machine) replayStep(le *LogEntry, bucket int) (*Plan, error) {
	switch le.Kind {
	case AccessStep:
		if len(le.Slots) != m.geo.Levels+1 {
			return nil, fmt.Errorf("%w: logged %d slots, path has %d buckets", ErrReplay, len(le.Slots), m.geo.Levels+1)
		}
		if le.Leaf < 0 || le.Leaf >= m.geo.Leaves {
			return nil, fmt.Errorf("%w: logged leaf %d, the tree has %d", ErrReplay, le.Leaf, m.geo.Leaves)
		}
		return m.planRead(le.Key, le.Leaf, le.Slots)
	case WriteStep:
		p, _, err := m.planWrite("")
		return p, err
	}
	want := m.geo.Levels + 1
	if le.Kind == ReshuffleStep {
		want = 1
	}
	if len(le.BucketSlots) != want {
		return nil, fmt.Errorf("%w: logged %d buckets, the step rewrites %d", ErrReplay, len(le.BucketSlots), want)
	}
	return m.planEviction(le.Kind, bucket, le.BucketSlots)
}
