// Package wire is the framing Obladi's three network links share: the
// proxy's link to its storage servers (internal/storage), application
// clients' link to the proxy (internal/clientproto) and a primary proxy's
// lease link to its standby (internal/replica). Every frame is
//
//	len(u32) | kind(u8) | id(u64) | payload
//
// big-endian, len counting everything after itself. Each protocol gives kind
// and id their meaning — an op or reply status and a request ID on the
// storage link, a frame kind and session<<32 | request on the client link, a
// hello or heartbeat on the lease link — and sets its own frame limit. This
// package holds what does not depend on that meaning: the frame reader and
// writer, frame buffers pooled up to MaxPooled, a pipelining client that
// matches replies to requests by id, and a server's accept loop and
// connection set. A frame need not be held whole at either end: a client
// may write a payload in pieces from where they lie (Client.BeginSend), and
// a reader may take a frame's header (PeekHeader) and read its payload off
// the connection itself.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
	"weak"
)

// HeaderLen is the size of a frame's kind and id, the least a length prefix
// may announce.
const HeaderLen = 9

// Buf is a frame buffer: a frame read off a connection lands in one, and
// payloads are encoded into them. Up to MaxPooled bytes they come from and go
// back to a Pool, so the steady-state wire path allocates nothing per frame.
// Whatever aliases B is dead once the buffer goes back (DESIGN.md, "Who owns
// a bucket's bytes at each hop").
type Buf struct {
	B    []byte
	pool *Pool
}

// MaxPooled is the largest buffer a Pool keeps. Every frame of a steady
// state is below it — a slot-read reply is tens of kilobytes, every other
// frame a few — so a longer one is rare (a full checkpoint's append, the
// resident levels' load at recovery) and gets a buffer the pool holds only
// weakly: a pool that kept it would hold megabytes for the next rare frame.
// A write-back vector, which grows with the epoch, is not held whole on the
// storage wire at all (internal/storage streams it).
const MaxPooled = 64 << 10

// Pool recycles one protocol's frame buffers. Each protocol keeps its own,
// so one link's frames never sit on the other's buffers: a storage reply
// grows to kilobytes, a client frame is a few dozen bytes. The zero Pool is
// ready to use.
type Pool struct {
	p sync.Pool

	// long is the last buffer over MaxPooled put back, held weakly:
	// the next long frame reuses it unless a collection freed it first, so
	// a long frame every few epochs need not allocate each time, and none
	// outlives a collection.
	mu   sync.Mutex
	long weak.Pointer[Buf]
}

// Get returns an empty buffer with room for at least size bytes: a pooled
// one up to MaxPooled, past it the last long one put back if a collection
// has not freed it and it is long enough, or else a new one.
func (p *Pool) Get(size int) *Buf {
	if size > MaxPooled {
		p.mu.Lock()
		b := p.long.Value()
		p.long = weak.Pointer[Buf]{}
		p.mu.Unlock()
		if b == nil || cap(b.B) < size {
			b = &Buf{B: make([]byte, 0, size), pool: p}
		}
		b.B = b.B[:0]
		return b
	}
	b, _ := p.p.Get().(*Buf)
	if b == nil {
		b = &Buf{pool: p}
	}
	if cap(b.B) < size {
		b.B = make([]byte, 0, size)
	}
	b.B = b.B[:0]
	return b
}

// Put returns b to its pool. One that holds more than MaxPooled bytes —
// taken for a long frame, or grown past the cap since — the pool holds only
// weakly, in place of the last such one. A nil b is ignored.
func Put(b *Buf) {
	switch {
	case b == nil:
	case cap(b.B) <= MaxPooled:
		b.pool.p.Put(b)
	default:
		b.pool.mu.Lock()
		b.pool.long = weak.Make(b)
		b.pool.mu.Unlock()
	}
}

// Kind, ID and Payload decode the frame body ReadFrame left in b.
func (b *Buf) Kind() uint8     { return b.B[0] }
func (b *Buf) ID() uint64      { return binary.BigEndian.Uint64(b.B[1:HeaderLen]) }
func (b *Buf) Payload() []byte { return b.B[HeaderLen:] }

// PrefixLen is the size of a frame's length prefix.
const PrefixLen = 4

// frameLen decodes a length prefix, refusing one under HeaderLen or over
// limit.
func frameLen(prefix []byte, limit int) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n < HeaderLen || uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("wire: frame length %d outside [%d, %d]", n, HeaderLen, limit)
	}
	return int(n), nil
}

// ReadFrame reads one frame body — kind, id and payload — into a buffer
// from pool that the caller owns. The length prefix is peeked out of r's
// window, and a length under HeaderLen or over limit fails before anything is
// sized by it.
func ReadFrame(r *bufio.Reader, limit int, pool *Pool) (*Buf, error) {
	prefix, err := r.Peek(PrefixLen)
	if err != nil {
		return nil, err
	}
	n, err := frameLen(prefix, limit)
	if err != nil {
		return nil, err
	}
	r.Discard(PrefixLen) // peeked, so it cannot fail
	b := pool.Get(n)
	b.B = b.B[:n]
	if _, err := io.ReadFull(r, b.B); err != nil {
		Put(b)
		return nil, err
	}
	return b, nil
}

// PeekHeader returns the kind, id and payload length of the next frame on r
// and leaves all of it unread: the caller either reads it with ReadFrame or
// discards its PrefixLen+HeaderLen header bytes and reads the payload off r
// itself, a piece at a time. A length outside [HeaderLen, limit] fails as it
// does in ReadFrame, before the rest of the header is waited for.
func PeekHeader(r *bufio.Reader, limit int) (kind uint8, id uint64, payload int, err error) {
	prefix, err := r.Peek(PrefixLen)
	if err != nil {
		return 0, 0, 0, err
	}
	n, err := frameLen(prefix, limit)
	if err != nil {
		return 0, 0, 0, err
	}
	hdr, err := r.Peek(PrefixLen + HeaderLen)
	if err != nil {
		return 0, 0, 0, err
	}
	return hdr[PrefixLen], binary.BigEndian.Uint64(hdr[PrefixLen+1:]), n - HeaderLen, nil
}

// writeHeader puts the header of a frame whose payload is n bytes, pre (a
// few bytes of it) included, on w. It is built in w's own buffer with pre
// copied in behind it, so it costs no allocation.
func writeHeader(w *bufio.Writer, kind uint8, id uint64, n int, pre []byte) {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(HeaderLen+n))
	hdr = append(hdr, kind)
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	w.Write(append(hdr, pre...))
}

// Write puts one frame whose payload is pre ‖ s ‖ p on w and flushes it. The
// header and pre are built in w's own buffer, and s and p are written from
// where they lie, so a frame costs no allocation and no intermediate payload.
func Write(w *bufio.Writer, kind uint8, id uint64, pre []byte, s string, p []byte) error {
	writeHeader(w, kind, id, len(pre)+len(s)+len(p), pre)
	w.WriteString(s)
	w.Write(p)
	return w.Flush() // a failed write sticks in w: Flush reports it
}

// DialTimeout bounds a connection attempt whose caller sets no bound of its
// own: a dead or blackholed address must fail loudly, not hang for the
// kernel's SYN timeout.
const DialTimeout = 10 * time.Second

// Dial connects to addr over TCP, failing after timeout (DialTimeout when
// timeout is not positive). Every protocol flushes every frame, so Nagle's
// algorithm stays off: it would add delayed-ACK stalls to each small one.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn, nil
}
