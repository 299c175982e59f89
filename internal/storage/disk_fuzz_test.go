package storage

import (
	"bytes"
	"testing"
)

// FuzzDiskRecordDecode hammers the on-disk decoders with arbitrary bytes
// (mirroring the client plane's FuzzDecodeFrame): record framing, segment
// and meta headers and heap bodies must either decode a value that
// re-encodes to the identical bytes, or fail — never panic, never
// mis-deserialize.
func FuzzDiskRecordDecode(f *testing.F) {
	// Valid records of every kind.
	f.Add(encodeRecord(nil, encodeVersionBody(3, 7, [][]byte{[]byte("slot0"), {}, []byte("slot2")})))
	f.Add(encodeRecord(nil, encodeVersionBody(0, 0, nil)))
	f.Add(encodeRecord(nil, encodeVersionBodyKind(heapKindGCCopy, 2, 5, [][]byte{[]byte("moved"), []byte("fwd")})))
	f.Add(encodeRecord(nil, encodeEpochBody(heapKindCommit, 42)))
	f.Add(encodeRecord(nil, encodeEpochBody(heapKindRollback, 1)))
	f.Add(encodeRecord(nil, wrapSharedRecord(2, encodeVersionBody(4, 9, [][]byte{[]byte("on a stream")}))))
	f.Add(encodeRecord(nil, encodeVersionBodyKind(heapKindGCCopy, 0, 0, nil)))
	f.Add(encodeRecord(nil, encodeVersionBody(6, 1<<40, [][]byte{{}, {}, []byte("x")})))
	f.Add(encodeRecord(nil, wrapSharedRecord(3, encodeEpochBody(heapKindCommit, 9))))
	f.Add(encodeFileHeader(metaMagic, 8, 3))
	f.Add(encodeRecord(nil, []byte("raw log record")))
	f.Add(encodeFileHeader(segMagic, 64, 1<<40))
	f.Add(encodeFileHeader(segMagic, 0, 17))
	f.Add(encodeFileHeader(metaMagic, 0, 1<<63))
	// Damaged variants: truncation, zero fill, flipped bytes.
	rec := encodeRecord(nil, encodeVersionBody(1, 2, [][]byte{[]byte("abc")}))
	f.Add(rec[:len(rec)-2])
	f.Add(make([]byte, 32))
	flipped := append([]byte(nil), rec...)
	flipped[recordFrameSize] ^= 0xff
	f.Add(flipped)
	grec := encodeRecord(nil, encodeVersionBodyKind(heapKindGCCopy, 1, 2, [][]byte{[]byte("abc"), []byte("abc")}))
	f.Add(grec[:len(grec)-2])
	hdr := encodeFileHeader(segMagic, 0, 5)
	hdr[fileHeaderSize-1] ^= 0xff
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		body, size, err := decodeRecord(data)
		if err == nil {
			if size > len(data) {
				t.Fatalf("decodeRecord consumed %d of %d bytes", size, len(data))
			}
			// The framing must round-trip exactly.
			if re := encodeRecord(nil, body); !bytes.Equal(re, data[:size]) {
				t.Fatalf("record did not round-trip: %x vs %x", re, data[:size])
			}
			if rec, err := parseHeapBody(body); err == nil {
				switch rec.kind {
				case heapKindVersion, heapKindGCCopy:
					// Reconstruct the slots from the parsed layout; the
					// re-encoded record must be byte-identical, proving the
					// parse kept every boundary exactly.
					if n := heapVersionDataStart + rec.layout.span(4); n != len(body) {
						t.Fatalf("layout %+v spans %d bytes of an accepted body of %d", rec.layout, n, len(body))
					}
					slots := rec.layout.split(body[heapVersionDataStart:], 4)
					if re := encodeVersionBodyKind(rec.kind, rec.bucket, rec.epoch, slots); !bytes.Equal(re, body) {
						t.Fatalf("version body did not round-trip")
					}
				case heapKindCommit, heapKindRollback:
					if re := encodeEpochBody(rec.kind, rec.epoch); !bytes.Equal(re, body) {
						t.Fatalf("epoch body did not round-trip")
					}
				default:
					t.Fatalf("parseHeapBody accepted unknown kind %d", rec.kind)
				}
			}
		}
		// File headers on the same bytes: decode or error, never panic.
		for _, magic := range []string{segMagic, metaMagic} {

			a, b, err := decodeFileHeader(data, magic)
			if err == nil {
				if re := encodeFileHeader(magic, a, b); !bytes.Equal(re, data[:fileHeaderSize]) {
					t.Fatalf("file header did not round-trip")
				}
			}
		}
	})
}
