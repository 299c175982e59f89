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
// hello or heartbeat on the lease link — and sets its own frame limit. This package holds what does not depend on
// that meaning: the frame reader and writer, pooled frame buffers, a
// pipelining client that matches replies to requests by id, and a server's
// accept loop and connection set.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// HeaderLen is the size of a frame's kind and id, the least a length prefix
// may announce.
const HeaderLen = 9

// Buf is a pooled frame buffer: a frame read off a connection lands in one,
// and payloads are encoded into them, so the steady-state wire path allocates
// nothing per frame. Whatever aliases B is dead once the buffer goes back to
// its pool (DESIGN.md, "Who owns a bucket's bytes at each hop").
type Buf struct {
	B     []byte
	pool  *Pool
	class int // the class it came from and goes back to
}

// Pool recycles one protocol's frame buffers. Each protocol keeps its own,
// so one link's frames never sit on the other's buffers: a storage reply
// grows to kilobytes, a client frame is a few dozen bytes. Within a pool,
// buffers come in two classes by the size of the job they are taken for, and
// return to the class they came from however they grew: out of one mixed
// class the many small frames sit on vector-sized buffers (a write-back
// vector or full checkpoint is most of a megabyte) while each vector
// allocates anew. The zero Pool is ready to use.
type Pool struct{ classes [2]sync.Pool }

const largeBuf = 256 << 10

// Get returns an empty buffer with room for at least size bytes.
func (p *Pool) Get(size int) *Buf {
	class := 0
	if size >= largeBuf {
		class = 1
	}
	b, _ := p.classes[class].Get().(*Buf)
	if b == nil {
		b = &Buf{pool: p, class: class}
	}
	if cap(b.B) < size {
		b.B = make([]byte, 0, size)
	}
	b.B = b.B[:0]
	return b
}

// Put returns b to its pool; a nil b is ignored.
func Put(b *Buf) {
	if b != nil {
		b.pool.classes[b.class].Put(b)
	}
}

// Kind, ID and Payload decode the frame body ReadFrame left in b.
func (b *Buf) Kind() uint8     { return b.B[0] }
func (b *Buf) ID() uint64      { return binary.BigEndian.Uint64(b.B[1:HeaderLen]) }
func (b *Buf) Payload() []byte { return b.B[HeaderLen:] }

// ReadFrame reads one frame body — kind, id and payload — into a buffer
// from pool that the caller owns. The length prefix is peeked out of r's
// window, and a length under HeaderLen or over limit fails before anything is
// sized by it.
func ReadFrame(r *bufio.Reader, limit int, pool *Pool) (*Buf, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n < HeaderLen || uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("wire: frame length %d outside [%d, %d]", n, HeaderLen, limit)
	}
	r.Discard(4) // peeked, so it cannot fail
	b := pool.Get(int(n))
	b.B = b.B[:n]
	if _, err := io.ReadFull(r, b.B); err != nil {
		Put(b)
		return nil, err
	}
	return b, nil
}

// Write puts one frame whose payload is pre ‖ s ‖ p on w and flushes it. The
// header is built in w's own buffer with pre (a few bytes) copied in behind
// it, and s and p are written from where they lie, so a frame costs no
// allocation and no intermediate payload.
func Write(w *bufio.Writer, kind uint8, id uint64, pre []byte, s string, p []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(HeaderLen+len(pre)+len(s)+len(p)))
	hdr = append(hdr, kind)
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	w.Write(append(hdr, pre...))
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
