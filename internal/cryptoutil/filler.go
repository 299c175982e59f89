package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
)

// Filler writes filler frames: slot frames that stand where a sealed slot of
// the same size could, but carry no message and are never opened. A filler
// frame is the SchemeSlot byte followed by AES-CTR keystream. To anyone
// without the keys it is as uniform as a slot sealed under a nonce used once,
// and under any Key, seed, slot, binding and block key it fails OpenSlot with
// ErrAuth.
//
// The keystream's AES key and IV are drawn from crypto/rand, independent of
// every Key: no filler block can repeat a GCM counter block, and a Key made by
// KeyFromSeed does not make filler bytes predictable. The stream only moves
// forward, so no two fills, of one Filler or of two, share bytes. A Filler is
// not safe for concurrent use; give each sealing goroutine its own.
type Filler struct {
	stream cipher.Stream
}

// NewFiller makes a Filler with a fresh random key and IV.
func NewFiller() (*Filler, error) {
	var seed [32 + aes.BlockSize]byte
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating filler key: %w", err)
	}
	block, err := aes.NewCipher(seed[:32])
	if err != nil {
		panic(fmt.Sprintf("cryptoutil: aes.NewCipher with fixed-size key: %v", err))
	}
	return &Filler{stream: cipher.NewCTR(block, seed[32:])}, nil
}

// Fill overwrites frames, a run of whole frames of size bytes each, with
// filler frames in one pass of the keystream. It allocates nothing.
func (f *Filler) Fill(frames []byte, size int) {
	if size <= 0 || len(frames)%size != 0 {
		panic(fmt.Sprintf("cryptoutil: filling %d bytes as frames of %d", len(frames), size))
	}
	clear(frames)
	f.stream.XORKeyStream(frames, frames)
	for off := 0; off < len(frames); off += size {
		frames[off] = byte(SchemeSlot)
	}
}
