package ringoram

import (
	"encoding/binary"
	"fmt"

	"obladi/internal/cryptoutil"
)

// Slot plaintext layout (fixed size so all slots are indistinguishable):
//
//	kind(u8) | keyLen(u16) | key[KeySize] | valLen(u32) | value[ValueSize]
//
// kind distinguishes dummy filler, an occupied real slot, an empty real slot,
// and a tombstone (a deleted key that still occupies its position-map entry).
const (
	slotDummy     = 0
	slotReal      = 1
	slotEmptyReal = 2
	slotTombstone = 3
)

type codec struct {
	keySize   int
	valueSize int
	key       *cryptoutil.Key // nil when encryption is disabled
}

// plainSize is the fixed plaintext slot size.
func (c codec) plainSize() int { return 1 + 2 + c.keySize + 4 + c.valueSize }

// slotSize is the on-server physical slot size.
func (c codec) slotSize() int {
	if c.key == nil {
		return c.plainSize()
	}
	return c.key.SealedSize(c.plainSize())
}

// block is a slot's logical content. Encoding reads key; decoding fills keyB
// instead — a view into the decode buffer — because the hot path only ever
// COMPARES the decoded key against the one it planned for (`string(keyB) ==
// want` compiles to an allocation-free comparison), and materializing a
// string per decoded slot was a measurable share of the read path's budget.
type block struct {
	key       string // encode input
	keyB      []byte // decode output; aliases the decode buffer
	value     []byte
	tombstone bool
}

// encodeSlotTo serializes a slot into the plain scratch buffer (cap >=
// plainSize, reused across calls) and appends the sealed frame to dst,
// returning the extended slice. With pre-sized dst and scratch the only
// allocation is none: the hot seal path writes straight into bucket arenas.
// binding authenticates the slot's location and bucket version (Appendix A).
func (c codec) encodeSlotTo(dst []byte, kind byte, b block, binding, plain []byte) ([]byte, error) {
	if len(b.key) > c.keySize {
		return nil, fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(b.key), c.keySize)
	}
	if len(b.value) > c.valueSize {
		return nil, fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(b.value), c.valueSize)
	}
	plain = plain[:c.plainSize()]
	clear(plain)
	plain[0] = kind
	binary.BigEndian.PutUint16(plain[1:3], uint16(len(b.key)))
	copy(plain[3:3+c.keySize], b.key)
	off := 3 + c.keySize
	binary.BigEndian.PutUint32(plain[off:off+4], uint32(len(b.value)))
	copy(plain[off+4:], b.value)
	if c.key == nil {
		return append(dst, plain...), nil
	}
	return c.key.SealTo(dst, plain, binding)
}

// encodeSlot produces the sealed physical representation of a slot in a fresh
// buffer (cold paths and tests; the executor hot path uses encodeSlotTo).
func (c codec) encodeSlot(kind byte, b block, binding []byte) ([]byte, error) {
	return c.encodeSlotTo(make([]byte, 0, c.slotSize()), kind, b, binding, make([]byte, c.plainSize()))
}

// encodeDummy produces a filler slot indistinguishable from a real one.
func (c codec) encodeDummy(binding []byte) ([]byte, error) {
	return c.encodeSlot(slotDummy, block{}, binding)
}

// decodeSlotInto parses a physical slot, decrypting into the scratch buffer
// (cap >= plainSize, reused across calls). It returns the slot kind and, for
// real or tombstone slots, the decoded block. The returned block's value
// ALIASES the decode buffer (the scratch, or data itself when encryption is
// off) and is only valid until the next decode: a caller that retains it must
// copy it out first — the ORAM hot path copies into its stash value arena,
// turning what used to be one heap allocation per decoded slot into a bump
// of a recycled slab.
func (c codec) decodeSlotInto(scratch, data, binding []byte) (byte, block, error) {
	plain := data
	if c.key != nil {
		var err error
		plain, err = c.key.OpenTo(scratch[:0], data, binding)
		if err != nil {
			return 0, block{}, err
		}
	}
	if len(plain) != c.plainSize() {
		return 0, block{}, fmt.Errorf("ringoram: slot of %d bytes, want %d", len(plain), c.plainSize())
	}
	kind := plain[0]
	switch kind {
	case slotDummy, slotEmptyReal:
		return kind, block{}, nil
	case slotReal, slotTombstone:
	default:
		return 0, block{}, fmt.Errorf("ringoram: unknown slot kind %d", kind)
	}
	keyLen := int(binary.BigEndian.Uint16(plain[1:3]))
	if keyLen > c.keySize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt key length %d", keyLen)
	}
	off := 3 + c.keySize
	valLen := int(binary.BigEndian.Uint32(plain[off : off+4]))
	if valLen > c.valueSize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt value length %d", valLen)
	}
	b := block{
		keyB:      plain[3 : 3+keyLen],
		value:     plain[off+4 : off+4+valLen],
		tombstone: kind == slotTombstone,
	}
	return kind, b, nil
}

// decodeSlot parses a physical slot with a fresh scratch buffer.
func (c codec) decodeSlot(data, binding []byte) (byte, block, error) {
	return c.decodeSlotInto(make([]byte, 0, c.plainSize()), data, binding)
}
