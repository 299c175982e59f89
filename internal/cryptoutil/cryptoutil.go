// Package cryptoutil provides the authenticated encryption used by Obladi for
// ORAM bucket slots and recovery-log records.
//
// Every ciphertext is sealed under a nonce used once, so re-encrypting the
// same plaintext yields an unlinkable ciphertext, and is authenticated
// together with an optional "binding" (location, epoch counter, batch counter
// — see Appendix A of the paper) so a malicious server cannot splice stale or
// relocated blocks. The construction is single-pass AES-GCM
// (hardware-accelerated on amd64/arm64) with the binding as additional
// authenticated data and a scheme byte leading every frame. There are two
// frames:
//
//	record  scheme(1: SchemeGCM)  | nonce(12) | ciphertext | tag(16)
//	slot    scheme(1: SchemeSlot) | ciphertext | tag(16)
//
// A record frame carries its nonce, drawn from crypto/rand (SealTo,
// SealInPlace). A slot frame carries none: it is slot s of a bucket version
// whose 96-bit Seed the proxy keeps, and is sealed under the nonce seed ⊕ s
// (SealSlot, OpenSlot). Every version a proxy writes draws a fresh seed, so
// no two slots share a nonce, and a frame moved to another slot of its
// version fails authentication. Nor does a slot frame carry the key of the
// block it holds: the proxy's metadata names it, and it is authenticated as
// additional data beside the binding, so a frame opened for another key fails
// authentication too. A frame led by a scheme byte other than the opener's
// fails with ErrScheme and never yields plaintext. A Filler writes slot
// frames that carry no message: the scheme byte and keystream, for slots
// that hold no block.
package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Scheme identifies a sealing construction; every frame carries it as its
// leading byte.
type Scheme byte

// The schemes. The values are wire format: do not renumber. Value 1 is
// reserved (it named an AES-CTR + HMAC-SHA256 construction that no stored
// data uses).
const (
	// SchemeGCM is the AES-GCM record frame, which carries its nonce.
	SchemeGCM Scheme = 2
	// SchemeKeyedSlot is retired: it named the seeded slot frame whose
	// plaintext carried its block's key. No opener accepts it.
	SchemeKeyedSlot Scheme = 3
	// SchemeSlot is the AES-GCM slot frame, sealed under a nonce derived
	// from its version's seed and its slot index, with its block's key as
	// additional data. Slot frames of an older shape — SchemeGCM-led ones,
	// which carried a random nonce each, and SchemeKeyedSlot ones — are
	// refused with ErrScheme.
	SchemeSlot Scheme = 4
)

// Key is the proxy's secret, with the AES cipher and GCM AEAD constructed
// once at key creation (not per seal). A Key is safe for concurrent use.
// SealTo and OpenTo append to caller-provided buffers (pass a slice with
// sufficient spare capacity for a zero-allocation seal or open); Seal and
// Open are the allocating conveniences.
type Key struct {
	enc  [32]byte
	aead cipher.AEAD
}

// initCiphers builds the cached cipher state. The key sizes are fixed, so
// construction cannot fail; any error is a programming bug.
func (k *Key) initCiphers() {
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		panic(fmt.Sprintf("cryptoutil: aes.NewCipher with fixed-size key: %v", err))
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("cryptoutil: cipher.NewGCM: %v", err))
	}
	k.aead = aead
}

// NewKey generates a fresh random key.
func NewKey() (*Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k.enc[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating encryption key: %w", err)
	}
	k.initCiphers()
	return &k, nil
}

// KeyFromSeed derives a deterministic key from a seed. Intended for tests and
// benchmarks that need reproducible ciphertexts; production callers should use
// NewKey.
func KeyFromSeed(seed []byte) *Key {
	var k Key
	h := sha256.Sum256(append([]byte("obladi-enc:"), seed...))
	copy(k.enc[:], h[:])
	k.initCiphers()
	return &k
}

const (
	nonceSize = 12 // standard GCM nonce
	tagSize   = 16 // GCM tag
)

// Overhead is the number of bytes sealing a record adds to a plaintext:
// scheme byte + nonce + tag.
const Overhead = 1 + nonceSize + tagSize

// SlotOverhead is the number of bytes sealing a slot adds to a plaintext:
// scheme byte + tag.
const SlotOverhead = 1 + tagSize

// SeedSize is the size of a Seed: one GCM nonce.
const SeedSize = nonceSize

// Seed is a bucket version's seed: slot s of the version is sealed under the
// nonce seed ⊕ s, s big-endian in the seed's last four bytes. A seed must be
// drawn fresh (Nonces.Seed) for every version written, a version rewritten
// after a crash included: two versions sealed under one seed would share
// their slots' nonces.
type Seed [SeedSize]byte

// ErrAuth is returned when a ciphertext fails authentication: it was
// tampered with, truncated, or bound to a different location/counter.
var ErrAuth = errors.New("cryptoutil: message authentication failed")

// ErrScheme is returned when a frame's scheme byte is not the opener's:
// SchemeGCM for OpenTo, SchemeSlot for OpenSlot. It is loud by design: a
// frame of another construction must never yield plaintext.
var ErrScheme = errors.New("cryptoutil: sealing scheme mismatch")

// grow extends b by n bytes, reallocating only when spare capacity is short
// (the hot path pre-sizes buffers so this is allocation-free).
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : cap(b)]
	}
	nb := make([]byte, len(b)+n)
	copy(nb, b)
	return nb
}

// nonceBlock is how much crypto/rand output one refill of a Nonces block
// draws: 341 nonces or seeds for one read of the system generator.
const nonceBlock = 4096

// Nonces is a block of crypto/rand output that one sealer cuts its nonces
// (or one proxy its seeds) from, front to back, each byte used once, and
// refills when it runs short. It belongs to one sealer and is never shared,
// so it is not safe for concurrent use: every goroutine that seals in place
// brings its own. The zero value is ready.
type Nonces struct {
	b    [nonceBlock]byte
	left int // the unused bytes, at the end of b
}

// read fills dst with fresh random bytes from the block. crypto/rand.Read
// does not fail (it ends the program instead), so neither does read.
func (n *Nonces) read(dst []byte) {
	if n.left < len(dst) {
		rand.Read(n.b[:])
		n.left = nonceBlock
	}
	n.left -= copy(dst, n.b[nonceBlock-n.left:])
}

// Seed cuts a fresh seed from the block, for one bucket version.
func (n *Nonces) Seed() Seed {
	var s Seed
	n.read(s[:])
	return s
}

// SealedSize reports the frame size for a plaintext of n bytes.
func (k *Key) SealedSize(n int) int { return n + Overhead }

// SealTo appends scheme|nonce|ciphertext|tag for plaintext to dst and returns
// the extended slice. The binding is authenticated as GCM additional data; it
// never travels with the message, and OpenTo must present it identically.
// With enough spare capacity in dst the call performs no allocation. The
// nonce comes straight from crypto/rand; a hot sealer owns a Nonces block
// and seals in place (SealInPlace).
func (k *Key) SealTo(dst, plaintext, binding []byte) ([]byte, error) {
	off := len(dst)
	dst = grow(dst, len(plaintext)+Overhead)
	frame := dst[off:]
	frame[0] = byte(SchemeGCM)
	nonce := frame[1 : 1+nonceSize]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating nonce: %w", err)
	}
	k.aead.Seal(frame[:1+nonceSize], nonce, plaintext, binding)
	return dst, nil
}

// Seal encrypts plaintext into a fresh buffer; see SealTo.
func (k *Key) Seal(plaintext, binding []byte) ([]byte, error) {
	return k.SealTo(make([]byte, 0, len(plaintext)+Overhead), plaintext, binding)
}

// PlaintextOffset and TagSize locate the plaintext inside a GCM frame: it
// occupies frame[PlaintextOffset : len(frame)-TagSize].
const (
	PlaintextOffset = 1 + nonceSize
	TagSize         = tagSize
)

// SealInPlace seals a frame whose plaintext the caller has already written at
// its final position, frame[PlaintextOffset:len(frame)-TagSize], encrypting
// it where it lies: a large message is built once, in the buffer that will be
// stored, with no second copy. The result is exactly what SealTo produces.
// The nonce is cut from the caller's own block.
func (k *Key) SealInPlace(frame, binding []byte, nonces *Nonces) error {
	if len(frame) < Overhead {
		return fmt.Errorf("cryptoutil: frame of %d bytes is smaller than the sealing overhead", len(frame))
	}
	frame[0] = byte(SchemeGCM)
	nonce := frame[1:PlaintextOffset]
	nonces.read(nonce)
	// cipher.AEAD permits dst and plaintext to overlap exactly.
	k.aead.Seal(frame[:PlaintextOffset], nonce, frame[PlaintextOffset:len(frame)-TagSize], binding)
	return nil
}

// OpenTo authenticates a frame produced by SealTo under the same binding and
// appends the plaintext to dst, returning the extended slice. A frame led by
// a different scheme byte fails with ErrScheme; an authentic-looking but
// forged/stale/relocated frame fails with ErrAuth.
func (k *Key) OpenTo(dst, sealed, binding []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrAuth
	}
	if Scheme(sealed[0]) != SchemeGCM {
		return nil, fmt.Errorf("%w: frame scheme %d, opener is GCM", ErrScheme, sealed[0])
	}
	off := len(dst)
	dst = grow(dst, len(sealed)-Overhead)
	nonce := sealed[1 : 1+nonceSize]
	if _, err := k.aead.Open(dst[off:off], nonce, sealed[1+nonceSize:], binding); err != nil {
		return nil, ErrAuth
	}
	return dst, nil
}

// Open authenticates and decrypts into a fresh buffer; see OpenTo.
func (k *Key) Open(sealed, binding []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrAuth
	}
	return k.OpenTo(make([]byte, 0, len(sealed)-Overhead), sealed, binding)
}

// SlotScratch is a sealer's or opener's scratch for the slot it seals or
// opens (SealSlot, OpenSlot): the slot's nonce, and its additional data, the
// binding and the block's key joined. cipher.AEAD takes both through an
// interface, so a nonce derived on the stack would move to the heap at every
// call: a caller keeps a SlotScratch beside its binding scratch instead. It
// belongs to one goroutine. The zero value is ready; its additional data
// grows once, to the longest it joins.
type SlotScratch struct {
	nonce [nonceSize]byte
	ad    []byte
}

// derive writes the nonce of slot s of the version seed names: the seed with
// s XORed into its last four bytes, big-endian.
func (sc *SlotScratch) derive(seed Seed, slot int) []byte {
	n := &sc.nonce
	*n = seed
	binary.BigEndian.PutUint32(n[nonceSize-4:], binary.BigEndian.Uint32(n[nonceSize-4:])^uint32(slot))
	return n[:]
}

// join writes a slot's additional data: binding, then key, then key's length
// as four bytes big-endian. Read from its end it yields key and binding
// again, so no two (binding, key) pairs share additional data.
func (sc *SlotScratch) join(binding, key []byte) []byte {
	sc.ad = append(append(sc.ad[:0], binding...), key...)
	sc.ad = binary.BigEndian.AppendUint32(sc.ad, uint32(len(key)))
	return sc.ad
}

// SealSlot seals slot s of the bucket version seed names, in place: the
// caller has written the plaintext at frame[1:len(frame)-TagSize], and the
// frame becomes SchemeSlot | ciphertext | tag, sealed under the nonce seed ⊕
// slot with binding and key, the key of the block the slot holds, as
// additional data (both joined in sc, the caller's scratch). The key is not
// in the frame: OpenSlot must present it. Once sc has grown, it allocates
// nothing. slot must be below 2^32, and the seed's version must not seal
// slot s twice.
func (k *Key) SealSlot(frame []byte, seed Seed, slot int, binding, key []byte, sc *SlotScratch) error {
	if len(frame) < SlotOverhead {
		return fmt.Errorf("cryptoutil: frame of %d bytes is smaller than the slot overhead", len(frame))
	}
	frame[0] = byte(SchemeSlot)
	k.aead.Seal(frame[:1], sc.derive(seed, slot), frame[1:len(frame)-TagSize], sc.join(binding, key))
	return nil
}

// OpenSlot authenticates slot s of the bucket version seed names under
// binding, as the slot of the block key names, and appends its plaintext to
// dst, returning the extended slice; sc is the caller's scratch (see
// SlotScratch). A frame led by another scheme byte fails with ErrScheme; a
// forged, stale or relocated frame — one sealed for another slot of the
// version included — and one opened under the wrong seed or for another key
// fail with ErrAuth.
func (k *Key) OpenSlot(dst, frame []byte, seed Seed, slot int, binding, key []byte, sc *SlotScratch) ([]byte, error) {
	if len(frame) > 0 && Scheme(frame[0]) != SchemeSlot {
		return nil, fmt.Errorf("%w: frame scheme %d, opener is the slot frame", ErrScheme, frame[0])
	}
	if len(frame) < SlotOverhead {
		return nil, ErrAuth
	}
	off := len(dst)
	dst = grow(dst, len(frame)-SlotOverhead)
	if _, err := k.aead.Open(dst[off:off], sc.derive(seed, slot), frame[1:], sc.join(binding, key)); err != nil {
		return nil, ErrAuth
	}
	return dst, nil
}

// BindingSize is the encoded size of an (id, epoch, batch) binding.
const BindingSize = 24

// AppendBinding appends the (identifier, epoch, batch) freshness triple of
// Appendix A to dst and returns the extended slice. Identifier is typically a
// bucket index or a log-record kind. Hot-path callers reuse one scratch
// buffer (dst[:0]) so encoding a binding allocates nothing.
func AppendBinding(dst []byte, id, epoch, batch uint64) []byte {
	off := len(dst)
	dst = grow(dst, BindingSize)
	binary.BigEndian.PutUint64(dst[off:], id)
	binary.BigEndian.PutUint64(dst[off+8:], epoch)
	binary.BigEndian.PutUint64(dst[off+16:], batch)
	return dst
}

// Binding encodes an (id, epoch, batch) triple into a fresh byte string; a
// thin allocating wrapper over AppendBinding kept for tests and cold paths.
func Binding(id, epoch, batch uint64) []byte {
	return AppendBinding(make([]byte, 0, BindingSize), id, epoch, batch)
}
