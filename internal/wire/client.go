package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

var (
	// ErrClosed is what a Client reports once Close was called.
	ErrClosed = errors.New("wire: client closed")
	// ErrTooLarge marks a request refused before sending because its frame
	// would exceed the limit: the peer would reject it and drop the
	// connection, and a u32 length could even wrap.
	ErrTooLarge = errors.New("wire: frame exceeds limit")
)

// Client is the requesting end of a connection: many requests in flight at
// once, each answered by one reply frame that carries the request's id, in
// whatever order the peer finishes them. It is safe for concurrent use.
type Client struct {
	conn  net.Conn
	limit int
	pool  *Pool

	wmu sync.Mutex
	w   *bufio.Writer

	mu      sync.Mutex
	pending map[uint64]chan *Buf
	closed  bool
	err     error // why the connection failed, once it has
}

// NewClient starts reading replies, frames of up to limit bytes, off conn
// into buffers from pool.
func NewClient(conn net.Conn, limit int, pool *Pool) *Client {
	c := &Client{
		conn:    conn,
		limit:   limit,
		pool:    pool,
		w:       bufio.NewWriterSize(conn, 1<<16),
		pending: make(map[uint64]chan *Buf),
	}
	go c.readLoop()
	return c
}

// replyChans recycles the one-slot channels replies arrive on. Only a channel
// that delivered its reply goes back (Recv): one closed by a connection
// failure, or abandoned with its reply unread, is dropped.
var replyChans = sync.Pool{New: func() any { return make(chan *Buf, 1) }}

// Send registers a pending reply for id and writes one request frame whose
// payload is pre ‖ s ‖ p (see Write); every part is consumed before Send
// returns. The returned channel delivers the reply, or closes when the
// connection fails first; Recv reads it. Send returns ErrClosed after Close
// and an error wrapping ErrTooLarge for a frame over the limit, neither of
// which puts anything on the wire, and otherwise the connection's failure. A
// failed write proves the connection dead, so it fails it at once — Err turns
// non-nil and every pending reply's channel closes — rather than when the
// read loop notices: a failover dialer keying off Err must not keep handing
// out a dead connection.
func (c *Client) Send(kind uint8, id uint64, pre []byte, s string, p []byte) (chan *Buf, error) {
	ch, err := c.begin(id, len(pre)+len(s)+len(p))
	if err != nil {
		return nil, err
	}
	if err := c.end(Write(c.w, kind, id, pre, s, p)); err != nil {
		return nil, err
	}
	return ch, nil
}

// BeginSend is Send for a payload of n bytes that the caller writes in
// pieces, from wherever they lie, to w: it registers the reply and puts the
// frame's header on w, and the caller then writes exactly n bytes to w and
// calls EndSend, which flushes the frame. The connection is the caller's
// alone in between, and nothing is allocated for the frame, however long.
// BeginSend fails as Send does, before anything reaches the wire and without
// taking the connection.
func (c *Client) BeginSend(kind uint8, id uint64, n int) (w *bufio.Writer, reply chan *Buf, err error) {
	if reply, err = c.begin(id, n); err != nil {
		return nil, nil, err
	}
	writeHeader(c.w, kind, id, n, nil)
	return c.w, reply, nil
}

// EndSend flushes the frame BeginSend began and releases the connection. Its
// error is Send's for a failed write: the connection has failed, and the
// reply channel closes.
func (c *Client) EndSend() error { return c.end(c.w.Flush()) }

// begin refuses a frame of an n-byte payload over the limit or on a client
// that has stopped, registers a pending reply for id and takes the writer.
func (c *Client) begin(id uint64, n int) (chan *Buf, error) {
	if n += HeaderLen; n > c.limit {
		return nil, fmt.Errorf("%w: request of %d bytes", ErrTooLarge, n)
	}
	c.mu.Lock()
	if err := c.errLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	ch := replyChans.Get().(chan *Buf)
	c.pending[id] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	return ch, nil
}

// end releases the writer begin took; a write error fails the connection.
func (c *Client) end(err error) error {
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("wire: send: %w", err)
		c.fail(err)
	}
	return err
}

// Recv waits for the reply on a channel Send returned, or for ctx to end. ok
// is false when the channel closed instead: the connection failed first (Err
// says why). A ctx error leaves the reply to arrive later: the caller may Recv
// again. The reply's buffer is the caller's to Put.
func Recv(ctx context.Context, ch chan *Buf) (reply *Buf, ok bool, err error) {
	select {
	case reply, ok = <-ch:
		if ok {
			replyChans.Put(ch) // the read loop dropped it before sending: ours alone, and empty
		}
		return reply, ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Err reports why the client stopped: ErrClosed after Close, otherwise the
// connection's failure, or nil while it is alive.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

// errLocked is Err under mu. An explicitly closed client reports ErrClosed,
// not whichever teardown error its read loop recorded.
func (c *Client) errLocked() error {
	if c.closed {
		return ErrClosed
	}
	return c.err
}

// Close closes the connection; pending replies' channels close.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	r := bufio.NewReaderSize(c.conn, 1<<16)
	for {
		b, err := ReadFrame(r, c.limit, c.pool)
		if err != nil {
			c.fail(err)
			return
		}
		id := b.ID()
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch == nil {
			Put(b) // nobody waits for it
			continue
		}
		ch <- b
	}
}

// fail records the connection's failure and closes every pending reply's
// channel.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
}
