package clientproto

import (
	"encoding/binary"
	"errors"

	"obladi/internal/wire"
)

// The client protocol multiplexes many concurrent transaction sessions over
// one TCP connection, on internal/wire's framing: the frame kind is the
// wire's, and the wire id is session<<32 | reqID, whose big-endian bytes are
// session(u32) | reqID(u32). A client opens the stream with a 4-byte magic;
// the server closes a connection that opens with anything else, without a
// reply.
//
//	magic: 0x00 'O' 'B' '2'
//	frame: len(u32) | kind(u8) | session(u32) | reqID(u32) | payload
//
// Sessions are client-allocated identifiers, unique per connection for its
// lifetime; request IDs are client-allocated, unique per session. Each
// request frame is answered by exactly one reply frame echoing its session
// and request ID. Requests of one session execute in wire order;
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

// frames recycles the client protocol's frames, at both ends.
var frames wire.Pool

// frame is one frame decoded from the pooled buffer it aliases: whoever
// consumes the frame calls release once every alias of the payload is dead
// (keys and values that outlive the frame — an engine-retained write value, a
// future's read result — are carved first).
type frame struct {
	kind    frameKind
	session uint32
	req     uint32
	payload []byte
	buf     *wire.Buf
}

// frameOf decodes the frame b holds; the frame owns b.
func frameOf(b *wire.Buf) frame {
	id := b.ID()
	return frame{kind: frameKind(b.Kind()), session: uint32(id >> 32), req: uint32(id), payload: b.Payload(), buf: b}
}

// muxID is the wire id of a session's request.
func muxID(session, req uint32) uint64 { return uint64(session)<<32 | uint64(req) }

// release returns the frame's pooled buffer. Safe on zero frames; idempotent
// per frame value.
func (f *frame) release() {
	wire.Put(f.buf)
	f.buf, f.payload = nil, nil
}

var errShortFrame = errors.New("clientproto: short frame")

// parseWritePayload parses a frameWrite payload: klen(u32) | key | value. The
// returned key and value alias p.
func parseWritePayload(p []byte) (key, value []byte, err error) {
	if len(p) < 4 {
		return nil, nil, errShortFrame
	}
	klen := int(binary.BigEndian.Uint32(p))
	if klen < 0 || len(p)-4 < klen {
		return nil, nil, errShortFrame
	}
	return p[4 : 4+klen], p[4+klen:], nil
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
