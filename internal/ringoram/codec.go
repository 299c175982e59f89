package ringoram

import (
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// Slot plaintext layout (fixed size so all slots are indistinguishable):
//
//	kind(u8) | keyLen(≤KeySize) | key[KeySize] | valLen(≤ValueSize) | value[ValueSize]
//
// A length field written (≤X) is as wide as its public bound X needs, the
// fewest bytes that hold it, big-endian: the width rule of the checkpoint
// format (meta/checkpoint.go). With encryption on, slot s of a bucket version
// is stored as a slot frame, SchemeSlot | ciphertext | tag, sealed under the
// nonce the version's seed and s derive (cryptoutil.SealSlot) and bound to
// (bucket, version); at the kv-* benchmarks' KeySize=16, ValueSize=256 a
// frame is 293 bytes, at bank-disk's 100.
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

// lenWidth is the width of a length field whose largest value is bound: the
// fewest bytes that hold it.
func lenWidth(bound int) int {
	w := 1
	for bound>>(8*w) != 0 {
		w++
	}
	return w
}

// putLen writes v big-endian over all of b.
func putLen(b []byte, v int) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// getLen reads the big-endian length b holds.
func getLen(b []byte) int {
	v := 0
	for _, c := range b {
		v = v<<8 | int(c)
	}
	return v
}

type codec struct {
	keySize, valueSize int
	keyLen, valLen     int             // the length fields' widths
	key                *cryptoutil.Key // nil when encryption is disabled
}

func newCodec(keySize, valueSize int, key *cryptoutil.Key) codec {
	return codec{keySize: keySize, valueSize: valueSize, keyLen: lenWidth(keySize), valLen: lenWidth(valueSize), key: key}
}

// valOff is where the value length field starts in a plaintext slot.
func (c codec) valOff() int { return 1 + c.keyLen + c.keySize }

// plainSize is the fixed plaintext slot size.
func (c codec) plainSize() int { return c.valOff() + c.valLen + c.valueSize }

// slotSize is the on-server physical slot size.
func (c codec) slotSize() int {
	if c.key == nil {
		return c.plainSize()
	}
	return c.plainSize() + cryptoutil.SlotOverhead
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
// middle of the slot frame, or all of it when encryption is off.
func (c codec) plainOf(frame []byte) []byte {
	if c.key == nil {
		return frame
	}
	return frame[1 : len(frame)-cryptoutil.TagSize]
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
	putLen(plain[1:1+c.keyLen], len(b.key))
	copy(plain[1+c.keyLen:], b.key)
	off := c.valOff()
	putLen(plain[off:off+c.valLen], len(b.value))
	copy(plain[off+c.valLen:], b.value)
	return nil
}

// seal seals slot s of the version seed names, a frame whose plaintext is
// already in place (see plainOf), under binding, which authenticates the
// slot's bucket and version (Appendix A); nonce is the sealer's scratch.
func (c codec) seal(frame []byte, seed meta.Seed, s int, binding []byte, nonce *cryptoutil.Nonce) error {
	if c.key == nil {
		return nil
	}
	return c.key.SealSlot(frame, cryptoutil.Seed(seed), s, binding, nonce)
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

// open authenticates stored slot s of the version seed names under binding
// and writes its plaintext over plain (plainSize bytes: a pooled slot);
// nonce is the opener's scratch. With encryption off the stored slot is the
// plaintext, copied. A frame of the SchemeGCM shape, the slot frame that
// carried its own nonce, fails with cryptoutil.ErrScheme whatever its
// length: an older build wrote it.
func (c codec) open(plain, data []byte, seed meta.Seed, s int, binding []byte, nonce *cryptoutil.Nonce) error {
	if c.key != nil && len(data) > 0 && cryptoutil.Scheme(data[0]) == cryptoutil.SchemeGCM {
		return fmt.Errorf("%w: slot frame of scheme %d, which an older build sealed", cryptoutil.ErrScheme, data[0])
	}
	if len(data) != c.slotSize() {
		return fmt.Errorf("slot of %d bytes, want %d", len(data), c.slotSize())
	}
	if c.key == nil {
		copy(plain, data)
		return nil
	}
	_, err := c.key.OpenSlot(plain[:0], data, cryptoutil.Seed(seed), s, binding, nonce)
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
	keyLen := getLen(plain[1 : 1+c.keyLen])
	if keyLen > c.keySize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt key length %d", keyLen)
	}
	off := c.valOff()
	valLen := getLen(plain[off : off+c.valLen])
	if valLen > c.valueSize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt value length %d", valLen)
	}
	key, value := plain[1+c.keyLen:], plain[off+c.valLen:]
	b := block{
		keyB:      key[:keyLen],
		value:     value[:valLen],
		tombstone: kind == slotTombstone,
	}
	return kind, b, nil
}
