// Package cryptoutil provides the randomized authenticated encryption used by
// Obladi for ORAM bucket slots and recovery-log records.
//
// Every ciphertext is freshly randomized (a random nonce per seal) so that
// re-encrypting the same plaintext yields an unlinkable ciphertext, and is
// authenticated together with an optional "binding" (location, epoch counter,
// batch counter — see Appendix A of the paper) so a malicious server cannot
// splice stale or relocated blocks.
//
// The current construction is single-pass AES-GCM (hardware-accelerated on
// amd64/arm64) with the binding as additional authenticated data and a scheme
// byte leading every frame:
//
//	scheme(1) | nonce(12) | ciphertext | tag(16)
//
// The seed's two-pass AES-CTR + HMAC-SHA256 construction is retained as
// CTRSealer — its frames carry no scheme byte — so migration tests can prove
// that state sealed under one scheme fails loudly (ErrScheme or ErrAuth,
// never garbage plaintext) when opened under the other.
package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Scheme identifies a sealing construction. GCM frames carry their scheme as
// the leading byte; the legacy CTR frames predate the byte and carry none.
type Scheme byte

// Known schemes. Values are wire format: do not renumber.
const (
	// SchemeCTR is the seed's AES-CTR + HMAC-SHA256 two-pass construction.
	SchemeCTR Scheme = 1
	// SchemeGCM is the AES-GCM single-pass construction.
	SchemeGCM Scheme = 2
)

// Sealer is the authenticated-encryption interface the hot path uses. SealTo
// and OpenTo append to caller-provided buffers (pass a slice with sufficient
// spare capacity for a zero-allocation seal or open); Seal and Open are the
// allocating conveniences. A Sealer is safe for concurrent use.
type Sealer interface {
	// SealTo appends the sealed frame for plaintext to dst and returns the
	// extended slice. The binding never travels with the message; OpenTo
	// must be called with an identical binding.
	SealTo(dst, plaintext, binding []byte) ([]byte, error)
	// OpenTo authenticates sealed under binding and appends the plaintext
	// to dst, returning the extended slice.
	OpenTo(dst, sealed, binding []byte) ([]byte, error)
	// Seal is SealTo into a fresh buffer.
	Seal(plaintext, binding []byte) ([]byte, error)
	// Open is OpenTo into a fresh buffer.
	Open(sealed, binding []byte) ([]byte, error)
	// Overhead is the number of bytes SealTo adds to a plaintext.
	Overhead() int
	// SealedSize reports the frame size for a plaintext of n bytes.
	SealedSize(n int) int
	// Scheme identifies the construction.
	Scheme() Scheme
}

// Key bundles the secrets held by the trusted proxy, with the AES cipher and
// GCM AEAD constructed once at key creation (not per seal). Key itself is the
// SchemeGCM Sealer; CTR() derives the legacy sealer over the same secrets.
type Key struct {
	enc  [32]byte
	mac  [32]byte
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

// newCTRBlock builds a fresh AES block cipher for a CTR stream. The legacy
// sealer cannot share the GCM-cached block on all platforms (crypto/aes may
// specialize the value handed to NewGCM), so it caches its own in CTR().
func (k *Key) newCTRBlock() cipher.Block {
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		panic(fmt.Sprintf("cryptoutil: aes.NewCipher with fixed-size key: %v", err))
	}
	return block
}

// NewKey generates a fresh random key pair.
func NewKey() (*Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k.enc[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating encryption key: %w", err)
	}
	if _, err := io.ReadFull(rand.Reader, k.mac[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating mac key: %w", err)
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
	h = sha256.Sum256(append([]byte("obladi-mac:"), seed...))
	copy(k.mac[:], h[:])
	k.initCiphers()
	return &k
}

const (
	ivSize    = aes.BlockSize
	macSize   = sha256.Size
	nonceSize = 12 // standard GCM nonce
	tagSize   = 16 // GCM tag
)

// Overhead is the number of bytes the default (GCM) scheme adds to a
// plaintext: scheme byte + nonce + tag.
const Overhead = 1 + nonceSize + tagSize

// CTROverhead is the legacy scheme's overhead: IV + HMAC-SHA256 tag.
const CTROverhead = ivSize + macSize

// ErrAuth is returned when a ciphertext fails authentication: it was
// tampered with, truncated, or bound to a different location/counter.
var ErrAuth = errors.New("cryptoutil: message authentication failed")

// ErrScheme is returned when a frame's scheme byte does not match the opener:
// state sealed under a different (e.g. pre-GCM) construction. It is loud by
// design — mis-decrypting another scheme's frame must never yield plaintext.
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

// Scheme identifies Key as the GCM construction.
func (k *Key) Scheme() Scheme { return SchemeGCM }

// Overhead implements Sealer for the GCM construction.
func (k *Key) Overhead() int { return Overhead }

// SealedSize implements Sealer for the GCM construction.
func (k *Key) SealedSize(n int) int { return n + Overhead }

// SealTo appends scheme|nonce|ciphertext|tag for plaintext to dst and returns
// the extended slice. The binding is authenticated as GCM additional data; it
// never travels with the message, and OpenTo must present it identically.
// With enough spare capacity in dst the call performs no allocation.
func (k *Key) SealTo(dst, plaintext, binding []byte) ([]byte, error) {
	off := len(dst)
	dst = grow(dst, len(plaintext)+Overhead)
	frame := dst[off:]
	frame[0] = byte(SchemeGCM)
	nonce := frame[1 : 1+nonceSize]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
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
func (k *Key) SealInPlace(frame, binding []byte) error {
	if len(frame) < Overhead {
		return fmt.Errorf("cryptoutil: frame of %d bytes is smaller than the sealing overhead", len(frame))
	}
	frame[0] = byte(SchemeGCM)
	nonce := frame[1:PlaintextOffset]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("cryptoutil: generating nonce: %w", err)
	}
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

var _ Sealer = (*Key)(nil)

// CTRSealer is the seed's two-pass construction: AES-CTR under a random IV,
// authenticated with HMAC-SHA256 over iv || ciphertext || binding. Frames are
// iv(16)|ciphertext|mac(32) with no scheme byte. It exists for migration
// coverage (and for reading state written before the GCM cutover in tests);
// new state is always sealed with the GCM scheme.
type CTRSealer struct {
	k     *Key
	block cipher.Block
}

// CTR returns the legacy sealer over the same secrets, with its AES cipher
// constructed once here rather than per call.
func (k *Key) CTR() *CTRSealer {
	return &CTRSealer{k: k, block: k.newCTRBlock()}
}

// Scheme identifies the legacy construction.
func (s *CTRSealer) Scheme() Scheme { return SchemeCTR }

// Overhead implements Sealer for the legacy construction.
func (s *CTRSealer) Overhead() int { return CTROverhead }

// SealedSize implements Sealer for the legacy construction.
func (s *CTRSealer) SealedSize(n int) int { return n + CTROverhead }

// SealTo appends iv|ciphertext|mac for plaintext to dst.
func (s *CTRSealer) SealTo(dst, plaintext, binding []byte) ([]byte, error) {
	off := len(dst)
	dst = grow(dst, len(plaintext)+CTROverhead)
	frame := dst[off:]
	iv := frame[:ivSize]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating iv: %w", err)
	}
	cipher.NewCTR(s.block, iv).XORKeyStream(frame[ivSize:ivSize+len(plaintext)], plaintext)
	s.k.sum(frame[:ivSize+len(plaintext)], binding, frame[ivSize+len(plaintext):ivSize+len(plaintext)])
	return dst, nil
}

// Seal encrypts plaintext into a fresh buffer; see SealTo.
func (s *CTRSealer) Seal(plaintext, binding []byte) ([]byte, error) {
	return s.SealTo(make([]byte, 0, len(plaintext)+CTROverhead), plaintext, binding)
}

// OpenTo authenticates a legacy frame and appends the plaintext to dst.
func (s *CTRSealer) OpenTo(dst, sealed, binding []byte) ([]byte, error) {
	if len(sealed) < CTROverhead {
		return nil, ErrAuth
	}
	body := sealed[:len(sealed)-macSize]
	var want [macSize]byte
	s.k.sum(body, binding, want[:0])
	if !hmac.Equal(want[:], sealed[len(sealed)-macSize:]) {
		return nil, ErrAuth
	}
	off := len(dst)
	dst = grow(dst, len(body)-ivSize)
	cipher.NewCTR(s.block, body[:ivSize]).XORKeyStream(dst[off:], body[ivSize:])
	return dst, nil
}

// Open authenticates and decrypts into a fresh buffer; see OpenTo.
func (s *CTRSealer) Open(sealed, binding []byte) ([]byte, error) {
	if len(sealed) < CTROverhead {
		return nil, ErrAuth
	}
	return s.OpenTo(make([]byte, 0, len(sealed)-CTROverhead), sealed, binding)
}

var _ Sealer = (*CTRSealer)(nil)

func (k *Key) sum(body, binding, dst []byte) []byte {
	m := hmac.New(sha256.New, k.mac[:])
	var lenbuf [8]byte
	binary.BigEndian.PutUint64(lenbuf[:], uint64(len(body)))
	m.Write(lenbuf[:])
	m.Write(body)
	m.Write(binding)
	return m.Sum(dst)
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

// SealedSize reports the frame size for a plaintext of n bytes under the
// default (GCM) scheme.
func SealedSize(n int) int { return n + Overhead }

// RandomBytes fills a fresh slice of length n with cryptographically random
// bytes. Used to manufacture dummy slots that are indistinguishable from
// sealed real slots.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("cryptoutil: %w", err)
	}
	return b, nil
}
