package oramexec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"obladi/internal/ringoram"
)

// LogKind identifies a durability-log entry kind.
type LogKind uint8

// Log entry kinds. Values are wire format: do not renumber.
const (
	LogAccess LogKind = iota + 1
	LogEvict
	LogReshuffle
	LogWriteBump
)

// LogEntry is one decoded recovery-log entry: enough to deterministically
// replay the adversary-visible reads of an epoch (§8). Entries exist only on
// the recovery path; a live batch is logged straight from its plan (BatchLog).
type LogEntry struct {
	Kind LogKind
	// Key is the logical key of an access ("" for padding dummies).
	Key string
	// Leaf is the path read by an access.
	Leaf int
	// Slots holds the physical slot per path bucket (access) .
	Slots []int
	// BucketSlots holds the slots read per bucket (evict).
	BucketSlots [][]int
	// Bucket is the reshuffled bucket; Slots holds its read slots.
	Bucket int
}

// A batch's schedule is logged in a fixed-width layout so a record's length
// depends only on how many entries of each kind it holds — which the
// adversary sees on the bucket store anyway — and never on whether an access
// was real or a padding dummy, or on how long its key is. Big-endian:
//
//	header    keySize(u16) pathLen(u16) z(u16) slotWidth(u8) nEntries(u32)
//	access    kind(u8) keyLen(u16) key[keySize] leaf(u32) slot[pathLen]
//	evict     kind(u8) pathLen × ( n(u16) slot[z] )
//	reshuffle kind(u8) bucket(u32) n(u16) slot[z]
//	bump      kind(u8)
//
// Slots are slotWidth bytes each (1 when a bucket has at most 256 slots, else
// 2). An eviction reads at most z slots per bucket (fewer only when a bucket
// ran out of fillers); n says how many of the z slot fields are meaningful.
const batchLogHeaderSize = 2 + 2 + 2 + 1 + 4

// logShape holds the public parameters that fix the entry widths.
type logShape struct {
	keySize, pathLen, z, slotWidth int
}

func newLogShape(p ringoram.Params, g ringoram.Geometry) logShape {
	s := logShape{keySize: p.KeySize, pathLen: g.Levels + 1, z: p.Z, slotWidth: 1}
	if g.SlotsPer > 256 {
		s.slotWidth = 2
	}
	return s
}

func (s logShape) accessSize() int    { return 1 + 2 + s.keySize + 4 + s.pathLen*s.slotWidth }
func (s logShape) bucketSize() int    { return 2 + s.z*s.slotWidth }
func (s logShape) evictSize() int     { return 1 + s.pathLen*s.bucketSize() }
func (s logShape) reshuffleSize() int { return 1 + 4 + s.bucketSize() }

func (s logShape) putSlot(b []byte, slot int) {
	if s.slotWidth == 1 {
		b[0] = uint8(slot)
	} else {
		binary.BigEndian.PutUint16(b, uint16(slot))
	}
}

func (s logShape) slot(b []byte) int {
	if s.slotWidth == 1 {
		return int(b[0])
	}
	return int(binary.BigEndian.Uint16(b))
}

// BatchLog is a read-only view of a planned batch's durability-log entries.
// It reads the plan's tasks in place — no per-entry copies — and is valid
// only until the plan is executed.
type BatchLog struct {
	plan *BatchPlan
}

// Len returns the number of log entries.
func (l BatchLog) Len() int {
	n := 0
	for _, t := range l.plan.tasks {
		if t.logKind() != 0 {
			n++
		}
	}
	return n
}

// EncodedSize returns the exact number of bytes Encode writes.
func (l BatchLog) EncodedSize() int {
	s := l.plan.shape
	n := batchLogHeaderSize
	for _, t := range l.plan.tasks {
		switch t.logKind() {
		case LogWriteBump:
			n++
		case LogAccess:
			n += s.accessSize()
		case LogEvict:
			n += s.evictSize()
		case LogReshuffle:
			n += s.reshuffleSize()
		}
	}
	return n
}

// Encode writes the entries into dst, which must be zeroed and exactly
// EncodedSize bytes long.
func (l BatchLog) Encode(dst []byte) error {
	if l.plan.executed {
		return errors.New("oramexec: batch log read after the plan was executed")
	}
	s := l.plan.shape
	binary.BigEndian.PutUint16(dst, uint16(s.keySize))
	binary.BigEndian.PutUint16(dst[2:], uint16(s.pathLen))
	binary.BigEndian.PutUint16(dst[4:], uint16(s.z))
	dst[6] = uint8(s.slotWidth)
	binary.BigEndian.PutUint32(dst[7:], uint32(l.Len()))
	b := dst[batchLogHeaderSize:]
	for _, t := range l.plan.tasks {
		switch kind := t.logKind(); kind {
		case LogWriteBump:
			b[0] = byte(LogWriteBump)
			b = b[1:]
		case LogAccess:
			ap := t.step
			if len(ap.Reads) != s.pathLen || len(ap.Key) > s.keySize {
				return fmt.Errorf("oramexec: access of %q reads %d slots, path has %d buckets", ap.Key, len(ap.Reads), s.pathLen)
			}
			b[0] = byte(LogAccess)
			binary.BigEndian.PutUint16(b[1:], uint16(len(ap.Key)))
			copy(b[3:], ap.Key)
			binary.BigEndian.PutUint32(b[3+s.keySize:], uint32(ap.Leaf))
			b = b[3+s.keySize+4:]
			for _, r := range ap.Reads {
				s.putSlot(b, r.Slot)
				b = b[s.slotWidth:]
			}
		case LogEvict, LogReshuffle:
			ep := t.step
			b[0] = byte(kind)
			b = b[1:]
			if kind == LogEvict {
				if len(ep.Buckets) != s.pathLen {
					return fmt.Errorf("oramexec: eviction covers %d buckets, path has %d", len(ep.Buckets), s.pathLen)
				}
			} else {
				binary.BigEndian.PutUint32(b, uint32(ep.Buckets[0]))
				b = b[4:]
			}
			// Each bucket's reads are one contiguous run of ep.Reads.
			next := 0
			for _, bucket := range ep.Buckets {
				n := 0
				for ; next < len(ep.Reads) && ep.Reads[next].Bucket == bucket; next++ {
					if n == s.z {
						return fmt.Errorf("oramexec: eviction reads more than Z=%d slots of bucket %d", s.z, bucket)
					}
					s.putSlot(b[2+n*s.slotWidth:], ep.Reads[next].Slot)
					n++
				}
				binary.BigEndian.PutUint16(b, uint16(n))
				b = b[s.bucketSize():]
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("oramexec: batch log size mismatch: %d bytes unwritten", len(b))
	}
	return nil
}

// DecodeBatchLog parses an encoded batch log into replayable entries
// (recovery only; it allocates per entry). Every count and length is checked
// against the bytes that remain before anything is allocated.
func DecodeBatchLog(b []byte) ([]LogEntry, error) {
	if len(b) < batchLogHeaderSize {
		return nil, fmt.Errorf("oramexec: batch log of %d bytes is shorter than its header", len(b))
	}
	s := logShape{
		keySize:   int(binary.BigEndian.Uint16(b)),
		pathLen:   int(binary.BigEndian.Uint16(b[2:])),
		z:         int(binary.BigEndian.Uint16(b[4:])),
		slotWidth: int(b[6]),
	}
	n := int(binary.BigEndian.Uint32(b[7:]))
	b = b[batchLogHeaderSize:]
	if s.slotWidth != 1 && s.slotWidth != 2 {
		return nil, fmt.Errorf("oramexec: batch log slot width %d", s.slotWidth)
	}
	if n > len(b) { // every entry takes at least its kind byte
		return nil, fmt.Errorf("oramexec: batch log claims %d entries in %d bytes", n, len(b))
	}
	readBucket := func() ([]int, error) {
		cnt := int(binary.BigEndian.Uint16(b))
		if cnt > s.z {
			return nil, fmt.Errorf("oramexec: batch log bucket lists %d slots, Z is %d", cnt, s.z)
		}
		slots := make([]int, cnt)
		for i := range slots {
			slots[i] = s.slot(b[2+i*s.slotWidth:])
		}
		b = b[s.bucketSize():]
		return slots, nil
	}
	entries := make([]LogEntry, 0, n)
	for i := 0; i < n; i++ {
		if len(b) == 0 {
			return nil, errors.New("oramexec: batch log truncated")
		}
		le := LogEntry{Kind: LogKind(b[0])}
		size := 1
		switch le.Kind {
		case LogAccess:
			size = s.accessSize()
		case LogEvict:
			size = s.evictSize()
		case LogReshuffle:
			size = s.reshuffleSize()
		case LogWriteBump:
		default:
			return nil, fmt.Errorf("oramexec: unknown log entry kind %d", le.Kind)
		}
		if size > len(b) {
			return nil, errors.New("oramexec: batch log truncated")
		}
		b = b[1:]
		var err error
		switch le.Kind {
		case LogAccess:
			keyLen := int(binary.BigEndian.Uint16(b))
			if keyLen > s.keySize {
				return nil, fmt.Errorf("oramexec: batch log key length %d exceeds KeySize %d", keyLen, s.keySize)
			}
			le.Key = string(b[2 : 2+keyLen])
			le.Leaf = int(binary.BigEndian.Uint32(b[2+s.keySize:]))
			b = b[2+s.keySize+4:]
			le.Slots = make([]int, s.pathLen)
			for j := range le.Slots {
				le.Slots[j] = s.slot(b[j*s.slotWidth:])
			}
			b = b[s.pathLen*s.slotWidth:]
		case LogEvict:
			le.BucketSlots = make([][]int, s.pathLen)
			for j := range le.BucketSlots {
				if le.BucketSlots[j], err = readBucket(); err != nil {
					return nil, err
				}
			}
		case LogReshuffle:
			le.Bucket = int(binary.BigEndian.Uint32(b))
			b = b[4:]
			if le.Slots, err = readBucket(); err != nil {
				return nil, err
			}
		}
		entries = append(entries, le)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("oramexec: %d trailing bytes after batch log", len(b))
	}
	return entries, nil
}
