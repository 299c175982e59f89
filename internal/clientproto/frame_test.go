package clientproto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// appendFrame appends f's wire encoding (length prefix included) to dst.
func appendFrame(dst []byte, f frame) []byte {
	return appendFrame2(dst, f.kind, f.session, f.req, f.payload, nil)
}

// appendFrame2 appends a frame whose payload is p1 followed by p2.
func appendFrame2(dst []byte, kind frameKind, session, req uint32, p1, p2 []byte) []byte {
	dst = appendHeader(dst, kind, session, req, len(p1)+len(p2))
	return append(append(dst, p1...), p2...)
}

// encodeWritePayload builds a frameWrite payload: klen(u32) | key | value,
// the bytes MuxClient writes behind a WRITE's header.
func encodeWritePayload(key string, value []byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(len(key)))
	return append(append(p, key...), value...)
}

// encodeReadOKPayload builds a read reply payload: found(u8) | value.
func encodeReadOKPayload(value []byte, found bool) []byte {
	return append([]byte{foundByte(found)[0]}, value...)
}

// TestFrameRoundTrip pins the wire encoding: append → decode is identity.
func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{kind: frameBegin, session: 1, req: 1},
		{kind: frameRead, session: 0xdeadbeef, req: 0xffffffff, payload: []byte("some/key")},
		{kind: frameWrite, session: 7, req: 9, payload: encodeWritePayload("k", []byte{0, 1, 2})},
		{kind: frameErr, session: 3, req: 4, payload: encodeErrPayload(errCodeAborted, "boom")},
		{kind: frameOK, session: 3, req: 4, payload: encodeReadOKPayload([]byte("v"), true)},
	}
	for _, want := range cases {
		buf := appendFrame(nil, want)
		got, err := decodeFrame(buf[4:])
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if got.kind != want.kind || got.session != want.session || got.req != want.req ||
			!bytes.Equal(got.payload, want.payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestWritePayloadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		key   string
		value []byte
	}{
		{"k", []byte("v")},
		{"", nil},
		{"key with spaces and \n newline", []byte{0, 0xff}},
	} {
		k, v, err := parseWritePayload(encodeWritePayload(tc.key, tc.value))
		if err != nil {
			t.Fatalf("%q: %v", tc.key, err)
		}
		if string(k) != tc.key || !bytes.Equal(v, tc.value) {
			t.Fatalf("got %q/%v want %q/%v", k, v, tc.key, tc.value)
		}
	}
}

// FuzzDecodeFrame exercises frame and payload decoding with arbitrary bytes:
// no panic, and every successfully decoded frame must re-encode to the exact
// input (the codec is canonical, so a desync can never hide in a
// decode/encode asymmetry — the PR 1 multi-line-abort bug class).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, frame{kind: frameBegin, session: 1, req: 1})[4:])
	f.Add(appendFrame(nil, frame{kind: frameRead, session: 2, req: 9, payload: []byte("key")})[4:])
	f.Add(appendFrame(nil, frame{kind: frameWrite, session: 3, req: 2, payload: encodeWritePayload("k", []byte("v"))})[4:])
	f.Add(appendFrame(nil, frame{kind: frameErr, session: 4, req: 3, payload: encodeErrPayload(errCodeAborted, "x")})[4:])
	f.Add(appendFrame(nil, frame{kind: frameOK, session: 5, req: 4, payload: encodeReadOKPayload(nil, false)})[4:])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			if len(data) >= frameHeaderLen {
				t.Fatalf("decode rejected a full header: %v", err)
			}
			return
		}
		if enc := appendFrame(nil, fr); !bytes.Equal(enc[4:], data) {
			t.Fatalf("re-encode mismatch: %x -> %x", data, enc[4:])
		}
		// Payload parsers must never panic, whatever the bytes.
		switch fr.kind {
		case frameWrite:
			if k, v, err := parseWritePayload(fr.payload); err == nil {
				if enc := encodeWritePayload(string(k), v); !bytes.Equal(enc, fr.payload) {
					t.Fatalf("write payload re-encode mismatch: %x -> %x", fr.payload, enc)
				}
			}
		case frameErr:
			if code, msg, err := parseErrPayload(fr.payload); err == nil {
				if enc := encodeErrPayload(code, msg); !bytes.Equal(enc, fr.payload) {
					t.Fatalf("err payload re-encode mismatch: %x -> %x", fr.payload, enc)
				}
			}
		case frameOK:
			parseReadOKPayload(fr.payload)
		}
	})
}
