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
// kind distinguishes a filler, an occupied real slot and a tombstone (a
// deleted key that still occupies its position-map entry). With encryption on
// a filler is never encoded at all (see fill); with it off it is a cleared
// plaintext, kind 0. Kind 2 is retired (it named an empty real position):
// parse rejects it like any unknown kind.
const (
	slotDummy     = 0
	slotReal      = 1
	slotTombstone = 3
)

// kindOf is the slot kind of a block: a tombstone or a real one.
func kindOf(tombstone bool) byte {
	if tombstone {
		return slotTombstone
	}
	return slotReal
}

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
// instead — a view into the plaintext — because the hot path only ever
// COMPARES the decoded key against the one it planned for (`string(keyB) ==
// want` compiles to an allocation-free comparison), and materializing a
// string per decoded slot was a measurable share of the read path's budget.
type block struct {
	key       string // encode input
	keyB      []byte // decode output; aliases the decode buffer
	value     []byte
	tombstone bool
}

// plainOf returns the plaintext region of a slot frame (slotSize bytes): the
// middle of the GCM frame, or all of it when encryption is off.
func (c codec) plainOf(frame []byte) []byte {
	if c.key == nil {
		return frame
	}
	return frame[cryptoutil.PlaintextOffset : len(frame)-cryptoutil.TagSize]
}

// encodePlain writes a slot's plaintext over all of plain (plainSize bytes):
// kind, the block's key and value, and zeros to the fixed size.
func (c codec) encodePlain(plain []byte, kind byte, b block) error {
	if len(b.key) > c.keySize {
		return fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(b.key), c.keySize)
	}
	if len(b.value) > c.valueSize {
		return fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(b.value), c.valueSize)
	}
	clear(plain)
	plain[0] = kind
	binary.BigEndian.PutUint16(plain[1:3], uint16(len(b.key)))
	copy(plain[3:3+c.keySize], b.key)
	off := 3 + c.keySize
	binary.BigEndian.PutUint32(plain[off:off+4], uint32(len(b.value)))
	copy(plain[off+4:], b.value)
	return nil
}

// seal seals a frame whose plaintext is already in place (see plainOf) under
// binding, which authenticates the slot's bucket and version (Appendix A),
// with a nonce cut from the sealer's own block.
func (c codec) seal(frame, binding []byte, nonces *cryptoutil.Nonces) error {
	if c.key == nil {
		return nil
	}
	return c.key.SealInPlace(frame, binding, nonces)
}

// fill writes run, whole slot frames, as fillers: keystream frames from f
// (see cryptoutil.Filler) or, with encryption off, cleared plaintext (f may
// then be nil). Nothing opens a filler.
func (c codec) fill(run []byte, f *cryptoutil.Filler) {
	if c.key == nil {
		clear(run)
		return
	}
	f.Fill(run, c.slotSize())
}

// open authenticates a stored slot under binding and writes its plaintext
// over plain (plainSize bytes: a pooled slot); with encryption off the stored
// slot is the plaintext, copied.
func (c codec) open(plain, data, binding []byte) error {
	if len(data) != c.slotSize() {
		return fmt.Errorf("slot of %d bytes, want %d", len(data), c.slotSize())
	}
	if c.key == nil {
		copy(plain, data)
		return nil
	}
	_, err := c.key.OpenTo(plain[:0], data, binding)
	return err
}

// parse decodes a slot's plaintext. It returns the slot kind and, for real or
// tombstone slots, the decoded block; a cleared plaintext filler parses as
// slotDummy. The returned block ALIASES plain and is only valid as long as
// plain is. The ORAM decodes only slots it keeps — a stash entry's pooled
// slot, which is the block (see blocks.go) — so nothing is copied out of a
// slot but the value a driver copies from Value's view.
func (c codec) parse(plain []byte) (byte, block, error) {
	if len(plain) != c.plainSize() {
		return 0, block{}, fmt.Errorf("ringoram: slot of %d bytes, want %d", len(plain), c.plainSize())
	}
	kind := plain[0]
	switch kind {
	case slotDummy:
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
