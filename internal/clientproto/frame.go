package clientproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The client protocol is a length-prefixed binary framing that multiplexes
// many concurrent transaction sessions over one TCP connection (the framing
// idiom of storage/remote.go, one layer up). A client opens the stream with a
// 4-byte magic; the server closes a connection that opens with anything else,
// without a reply.
//
//	magic: 0x00 'O' 'B' '2'
//	frame: len(u32) | kind(u8) | session(u32) | reqID(u32) | payload
//
// len counts everything after the length field itself (kind, session, reqID,
// payload). Sessions are client-allocated identifiers, unique per connection
// for its lifetime; request IDs are client-allocated, unique per session.
// Each request frame is answered by exactly one reply frame echoing its
// session and request ID. Requests of one session execute in wire order;
// replies stream back in completion order — a read's reply lands when its
// batch executes, so replies of different sessions (and a session's write
// acks versus its read results) interleave freely.
//
// Request kinds and payloads:
//
//	frameBegin   —                       open the session
//	frameRead    — key bytes             register a read
//	frameWrite   — klen(u32) key value   write key
//	frameDelete  — key bytes             delete key
//	frameCommit  —                       commit and close the session
//	frameAbort   —                       abort and close the session
//
// Reply kinds and payloads:
//
//	frameOK  — read: found(u8) value; others: empty
//	frameErr — code(u8) message; code 1 marks a retryable transaction abort,
//	           code 2 a load-shed (retryable after backing off ~one epoch),
//	           code 3 a boundary-window refusal (retryable at once)
const muxMagic = "\x00OB2"

type frameKind uint8

// Frame kinds. Requests count up from 1; replies have the high bit set.
const (
	frameBegin frameKind = iota + 1
	frameRead
	frameWrite
	frameDelete
	frameCommit
	frameAbort

	frameOK  frameKind = 0x80
	frameErr frameKind = 0x81
)

// Error codes carried by frameErr payloads.
const (
	errCodeGeneric uint8 = 0
	errCodeAborted uint8 = 1 // transaction aborted; retrying is appropriate
	// errCodeShed marks a load-shed: the server refused the operation
	// because it is saturated (admission gate or session cap), not because
	// the transaction conflicted. Retryable like errCodeAborted, but the
	// client should back off roughly an epoch first instead of retrying hot.
	errCodeShed uint8 = 2
	// errCodeBoundary marks a read that arrived after its epoch's last read
	// batch: the server held it until the next epoch opened and only then
	// refused it. Not overload — retry immediately, without backoff.
	errCodeBoundary uint8 = 3
)

// muxMaxFrame bounds a single frame; generous for any key/value the proxy
// accepts, and small enough that a corrupt length prefix cannot balloon
// allocation.
const muxMaxFrame = 16 << 20

// frameHeaderLen is the encoded size of kind+session+reqID.
const frameHeaderLen = 9

// frame is one decoded protocol frame. A frame read off the wire borrows its
// payload from a pooled buffer: whoever consumes the frame calls release once
// every alias of the payload is dead (values that outlive the frame — an
// engine-retained write value, a future's read result — are carved first).
type frame struct {
	kind    frameKind
	session uint32
	req     uint32
	payload []byte
	buf     *frameBuf
}

// release returns the frame's pooled buffer. Safe on frames without one
// (locally built frames, zero frames); idempotent per frame value.
func (f *frame) release() {
	if f.buf != nil {
		frameBufPool.Put(f.buf)
		f.buf = nil
		f.payload = nil
	}
}

// frameBuf is a pooled frame body, recycled across reads so the steady-state
// read path performs no per-frame allocation.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

var errShortFrame = errors.New("clientproto: short frame")

// decodeFrame parses a frame body (everything after the length prefix). The
// returned payload aliases b.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < frameHeaderLen {
		return frame{}, errShortFrame
	}
	return frame{
		kind:    frameKind(b[0]),
		session: binary.BigEndian.Uint32(b[1:5]),
		req:     binary.BigEndian.Uint32(b[5:9]),
		payload: b[frameHeaderLen:],
	}, nil
}

// appendHeader appends the length prefix and header of a frame whose payload
// is n bytes long. Writers build it in their bufio.Writer's own buffer
// (AvailableBuffer) and write the payload's parts after it from where they
// lie, so a frame costs no allocation and no intermediate payload.
func appendHeader(dst []byte, kind frameKind, session, req uint32, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameHeaderLen+n))
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, session)
	return binary.BigEndian.AppendUint32(dst, req)
}

// readMuxFrame reads and decodes one frame into a pooled buffer: the length
// prefix is peeked out of the bufio window (no scratch copy) and the body
// lands in a recycled frameBuf the returned frame aliases. The caller owns
// the frame and must release it.
func readMuxFrame(r *bufio.Reader) (frame, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > muxMaxFrame {
		return frame{}, fmt.Errorf("clientproto: frame of %d bytes exceeds limit", n)
	}
	if _, err := r.Discard(4); err != nil {
		return frame{}, err
	}
	buf := frameBufPool.Get().(*frameBuf)
	if cap(buf.b) < int(n) {
		buf.b = make([]byte, n)
	}
	buf.b = buf.b[:n]
	if _, err := io.ReadFull(r, buf.b); err != nil {
		frameBufPool.Put(buf)
		return frame{}, err
	}
	f, err := buf.frame()
	if err != nil {
		frameBufPool.Put(buf)
	}
	return f, err
}

// frame decodes the frame whose body b holds; the frame owns b.
func (b *frameBuf) frame() (frame, error) {
	f, err := decodeFrame(b.b)
	if err != nil {
		return frame{}, err
	}
	f.buf = b
	return f, nil
}

// parseWritePayload parses a frameWrite payload: klen(u32) | key | value. The
// returned value aliases p.
func parseWritePayload(p []byte) (key string, value []byte, err error) {
	if len(p) < 4 {
		return "", nil, errShortFrame
	}
	klen := int(binary.BigEndian.Uint32(p))
	if klen < 0 || len(p)-4 < klen {
		return "", nil, errShortFrame
	}
	return string(p[4 : 4+klen]), p[4+klen:], nil
}

// encodeErrPayload builds a frameErr payload.
func encodeErrPayload(code uint8, msg string) []byte {
	p := make([]byte, 0, 1+len(msg))
	p = append(p, code)
	return append(p, msg...)
}

// parseErrPayload is encodeErrPayload's inverse.
func parseErrPayload(p []byte) (code uint8, msg string, err error) {
	if len(p) < 1 {
		return 0, "", errShortFrame
	}
	return p[0], string(p[1:]), nil
}

// parseReadOKPayload parses a read reply payload: found(u8) | value. The
// returned value aliases p.
func parseReadOKPayload(p []byte) (value []byte, found bool, err error) {
	if len(p) < 1 {
		return nil, false, errShortFrame
	}
	if p[0] == 0 {
		return nil, false, nil
	}
	return p[1:], true, nil
}
