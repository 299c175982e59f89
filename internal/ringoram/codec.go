package ringoram

import (
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// Slot layout. A block's plaintext, as the proxy holds it (a pooled slot, see
// blocks.go), is
//
//	kind(u8) | valLen(≤ValueSize) | value[ValueSize] | keyLen(≤KeySize) | key[KeySize]
//
// and its slot frame carries the body, everything before keyLen, alone: the
// key stays at the proxy, whose metadata names the block of every real slot.
// The body has a fixed size, so all slots are indistinguishable. A length
// field written (≤X) is as wide as its public bound X needs, the fewest bytes
// that hold it, big-endian: the width rule of the checkpoint format
// (meta/checkpoint.go). With encryption on, slot s of a bucket version is
// stored as a slot frame, SchemeSlot | ciphertext | tag, sealed under the
// nonce the version's seed and s derive (cryptoutil.SealSlot) and bound to
// (bucket, version) and to the block's key, both additional data; at the kv-*
// benchmarks' KeySize=16, ValueSize=256 a frame is 276 bytes, at bank-disk's
// 83. With encryption off the frame is the body.
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

// bodySize is the size of the part of a block's plaintext its frame carries,
// and where the key's length field starts.
func (c codec) bodySize() int { return 1 + c.valLen + c.valueSize }

// plainSize is the fixed size of a block's plaintext, its key included.
func (c codec) plainSize() int { return c.bodySize() + c.keyLen + c.keySize }

// slotSize is the on-server physical slot size.
func (c codec) slotSize() int {
	if c.key == nil {
		return c.bodySize()
	}
	return c.bodySize() + cryptoutil.SlotOverhead
}

// block is a slot's logical content. Encoding reads key; decoding fills keyB
// instead — a view into the plaintext — because the hot path only ever
// COMPARES the decoded key against the one it planned for, on a local read
// (`string(keyB) == want` compiles to an allocation-free comparison), and
// materializing a string per decoded slot was a measurable share of the read
// path's budget.
type block struct {
	key       string // encode input
	keyB      []byte // decode output; aliases the decode buffer
	value     []byte
	tombstone bool
}

// putKey writes key, of at most keySize bytes, and its length over the key
// fields of plain, and returns the key as written.
func (c codec) putKey(plain []byte, key string) []byte {
	f := plain[c.bodySize():]
	putLen(f[:c.keyLen], len(key))
	n := copy(f[c.keyLen:], key)
	clear(f[c.keyLen+n:])
	return f[c.keyLen : c.keyLen+n]
}

// keyOf returns the key a block's plaintext holds, which was encoded here.
func (c codec) keyOf(plain []byte) []byte {
	off := c.bodySize() + c.keyLen
	return plain[off : off+getLen(plain[c.bodySize():off])]
}

// encodePlain writes a block's plaintext over all of plain (plainSize bytes):
// kind, the block's value and key, and zeros to the fixed size.
func (c codec) encodePlain(plain []byte, kind byte, b block) error {
	if len(b.key) > c.keySize {
		return fmt.Errorf("ringoram: key of %d bytes exceeds KeySize %d", len(b.key), c.keySize)
	}
	if len(b.value) > c.valueSize {
		return fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(b.value), c.valueSize)
	}
	plain[0] = kind
	putLen(plain[1:1+c.valLen], len(b.value))
	val := plain[1+c.valLen : c.bodySize()]
	clear(val[copy(val, b.value):])
	c.putKey(plain, b.key)
	return nil
}

// seal seals slot s of the version seed names into frame (slotSize bytes):
// the body of plain, a block's plaintext, under binding, which authenticates
// the slot's bucket and version (Appendix A), and the block's key, which the
// frame does not carry; sc is the sealer's scratch.
func (c codec) seal(frame, plain []byte, seed meta.Seed, s int, binding []byte, sc *cryptoutil.SlotScratch) error {
	body := plain[:c.bodySize()]
	if c.key == nil {
		copy(frame, body)
		return nil
	}
	copy(frame[1:], body)
	return c.key.SealSlot(frame, cryptoutil.Seed(seed), s, binding, c.keyOf(plain), sc)
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
// as the slot of key's block, and writes the block's plaintext over plain
// (plainSize bytes: a pooled slot): the body the frame opens to, and key; sc
// is the opener's scratch. A frame sealed for another key fails
// authentication like one of another slot or version. With encryption off
// the stored slot is the body, copied, and nothing is checked. A frame led by
// the scheme byte of an older build's slot frame — the SchemeGCM one that
// carried its own nonce, or the SchemeKeyedSlot one that carried its key —
// fails with cryptoutil.ErrScheme whatever its length; one led by a byte no
// build sealed a slot under is corrupt, as a plaintext slot is.
func (c codec) open(plain, data []byte, seed meta.Seed, s int, binding []byte, key string, sc *cryptoutil.SlotScratch) error {
	if c.key != nil && len(data) > 0 {
		switch sch := cryptoutil.Scheme(data[0]); sch {
		case cryptoutil.SchemeSlot:
		case cryptoutil.SchemeGCM, cryptoutil.SchemeKeyedSlot:
			return fmt.Errorf("%w: slot frame of scheme %d, which an older build sealed", cryptoutil.ErrScheme, sch)
		default:
			return fmt.Errorf("slot frame led by %d, no slot scheme", sch)
		}
	}
	if len(data) != c.slotSize() {
		return fmt.Errorf("slot of %d bytes, want %d", len(data), c.slotSize())
	}
	if len(key) > c.keySize {
		return fmt.Errorf("key of %d bytes exceeds KeySize %d", len(key), c.keySize)
	}
	k := c.putKey(plain, key)
	if c.key == nil {
		copy(plain, data)
		return nil
	}
	_, err := c.key.OpenSlot(plain[:0], data, cryptoutil.Seed(seed), s, binding, k, sc)
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
	valLen := getLen(plain[1 : 1+c.valLen])
	if valLen > c.valueSize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt value length %d", valLen)
	}
	off := c.bodySize()
	keyLen := getLen(plain[off : off+c.keyLen])
	if keyLen > c.keySize {
		return 0, block{}, fmt.Errorf("ringoram: corrupt key length %d", keyLen)
	}
	b := block{
		keyB:      plain[off+c.keyLen : off+c.keyLen+keyLen],
		value:     plain[1+c.valLen : 1+c.valLen+valLen],
		tombstone: kind == slotTombstone,
	}
	return kind, b, nil
}
