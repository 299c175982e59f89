package clientproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"obladi/internal/wire"
)

// The encoders the protocol had before it moved onto internal/wire, kept
// here unchanged as the oracle the shared framing must reproduce byte for
// byte, and as the scripted servers' reply encoder.

// oracleHeader appends the length prefix and header of a frame whose payload
// is n bytes long.
func oracleHeader(dst []byte, kind frameKind, session, req uint32, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(9+n))
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, session)
	return binary.BigEndian.AppendUint32(dst, req)
}

// appendFrame appends f's wire encoding (length prefix included) to dst.
func appendFrame(dst []byte, f frame) []byte {
	return appendFrame2(dst, f.kind, f.session, f.req, f.payload, nil)
}

// appendFrame2 appends a frame whose payload is p1 followed by p2.
func appendFrame2(dst []byte, kind frameKind, session, req uint32, p1, p2 []byte) []byte {
	dst = oracleHeader(dst, kind, session, req, len(p1)+len(p2))
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

// recvFrame reads one frame the way the server's read loop does.
func recvFrame(r *bufio.Reader) (frame, error) {
	b, err := wire.ReadFrame(r, muxMaxFrame, &frames)
	if err != nil {
		return frame{}, err
	}
	return frameOf(b), nil
}

// TestFrameRoundTrip pins the wire encoding: what the oracle appends, the
// shared reader decodes to the same frame.
func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{kind: frameBegin, session: 1, req: 1},
		{kind: frameRead, session: 0xdeadbeef, req: 0xffffffff, payload: []byte("some/key")},
		{kind: frameWrite, session: 7, req: 9, payload: encodeWritePayload("k", []byte{0, 1, 2})},
		{kind: frameErr, session: 3, req: 4, payload: encodeErrPayload(errCodeAborted, "boom")},
		{kind: frameOK, session: 3, req: 4, payload: encodeReadOKPayload([]byte("v"), true)},
	}
	for _, want := range cases {
		got, err := recvFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, want))))
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if got.kind != want.kind || got.session != want.session || got.req != want.req ||
			!bytes.Equal(got.payload, want.payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		got.release()
	}
}

// TestMuxGoldenBytes requires the shared framing to put on the wire exactly
// what the protocol's own encoders did: the magic and every request kind as a
// MuxClient sends them, and every reply kind as the server writes them.
func TestMuxGoldenBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sent <- nil
			return
		}
		defer conn.Close()
		b, _ := io.ReadAll(conn)
		sent <- b
	}()
	c, err := DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{0x5a}, 300)
	requests := []struct {
		kind  frameKind
		key   string
		value []byte
	}{
		{frameBegin, "", nil},
		{frameRead, "key-1", nil},
		{frameWrite, "key-2", value},
		{frameDelete, "key-3", nil},
		{frameCommit, "", nil},
		{frameAbort, "", nil},
	}
	want := []byte(muxMagic)
	for i, rq := range requests {
		session, req := uint32(0xa0000000+i), uint32(i+1)
		if _, err := c.send(rq.kind, session, req, rq.key, rq.value); err != nil {
			t.Fatal(err)
		}
		payload := []byte(rq.key)
		if rq.kind == frameWrite {
			payload = encodeWritePayload(rq.key, rq.value)
		}
		want = appendFrame2(want, rq.kind, session, req, payload, nil)
	}
	c.Close()
	if got := <-sent; !bytes.Equal(got, want) {
		t.Fatalf("requests on the wire:\n%x\nwant the oracle's\n%x", got, want)
	}

	var out bytes.Buffer
	mc := &muxConn{w: bufio.NewWriter(&out)}
	replies := []struct {
		kind   frameKind
		p1, p2 []byte
	}{
		{frameOK, nil, nil},
		{frameOK, foundByte(true), value},
		{frameOK, foundByte(false), nil},
		{frameErr, encodeErrPayload(errCodeAborted, "epoch aborted the transaction"), nil},
		{frameErr, encodeErrPayload(errCodeGeneric, ""), nil},
	}
	want = nil
	for i, rp := range replies {
		session, req := uint32(i+1)<<24, uint32(0xffffffff-i)
		mc.reply(rp.kind, session, req, rp.p1, rp.p2)
		want = appendFrame2(want, rp.kind, session, req, rp.p1, rp.p2)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("replies on the wire:\n%x\nwant the oracle's\n%x", out.Bytes(), want)
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

// FuzzDecodeFrame exercises frame and payload decoding with arbitrary frame
// bodies: no panic, and every body the shared reader accepts must re-encode
// through the oracle to the exact input (the codec is canonical, so a desync
// can never hide in a decode/encode asymmetry — the multi-line-abort bug
// class).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, frame{kind: frameBegin, session: 1, req: 1})[4:])
	f.Add(appendFrame(nil, frame{kind: frameRead, session: 2, req: 9, payload: []byte("key")})[4:])
	f.Add(appendFrame(nil, frame{kind: frameWrite, session: 3, req: 2, payload: encodeWritePayload("k", []byte("v"))})[4:])
	f.Add(appendFrame(nil, frame{kind: frameErr, session: 4, req: 3, payload: encodeErrPayload(errCodeAborted, "x")})[4:])
	f.Add(appendFrame(nil, frame{kind: frameOK, session: 5, req: 4, payload: encodeReadOKPayload(nil, false)})[4:])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
		fr, err := recvFrame(bufio.NewReader(bytes.NewReader(append(framed, data...))))
		if err != nil {
			if len(data) >= wire.HeaderLen && len(data) <= muxMaxFrame {
				t.Fatalf("reader rejected a full header: %v", err)
			}
			return
		}
		defer fr.release()
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
