package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the wire protocol between the trusted proxy and the
// untrusted storage server. The protocol is a simple length-prefixed binary
// framing over TCP with request pipelining: many requests may be in flight on
// one connection, and responses carry the request id they answer.
//
// Request frame:  len(u32) | op(u8) | reqID(u64) | payload
// Response frame: len(u32) | status(u8) | reqID(u64) | payload
// len counts everything after the length field itself.

type wireOp uint8

const (
	wireReadSlot wireOp = iota + 1
	wireReadBucket
	wireWriteBucket
	wireCommitEpoch
	wireRollbackTo
	wireNumBuckets
	wireKVGet
	wireKVPut
	wireKVDelete
	wireLogAppend
	wireLogScan
	wireLogTruncate
	wireLogLastSeq
	// Vector ops: a whole stage's slot reads (or a sealed epoch's bucket
	// write-backs) packed into one frame, so batches cross the wire as
	// batches instead of one frame + round trip per slot.
	wireReadSlots
	wireWriteBuckets
	// wireFence acquires a proxy-generation fence token (see Fenceable):
	// the server binds the new token to this connection and from then on
	// rejects mutating ops from any connection holding an older token.
	wireFence
)

const (
	statusOK  = 0
	statusErr = 1
)

// maxFrame bounds a single protocol frame; large enough for a full bucket of
// big slots, a log scan chunk, or a vectored stage of slot reads.
const maxFrame = 64 << 20

// maxVector bounds the element count of a single vectored request.
const maxVector = 1 << 20

// vectorChunkBytes is the client-side payload threshold at which a vectored
// call is split into several frames: a sealed epoch's write-back set can
// exceed maxFrame with large slots, and one poison frame would tear down
// the connection (erroring every pipelined request) instead of failing one
// call. Chunks still travel back-to-back on one connection, so a chunked
// vector pays one round trip of wall clock, and layers above (executor
// stats, trace recorder) keep counting one storage call.
const vectorChunkBytes = maxFrame / 4

// vectorChunkRefs bounds refs per ReadSlots frame: the request side is tiny
// (12 bytes/ref) but the response size is slot-size dependent and unknown to
// the client, so the count is kept low enough that even MiB-scale slots fit
// a response frame.
const vectorChunkRefs = 1 << 12

// serverMaxHandlers bounds concurrent request handlers per connection: the
// server fans pipelined (and vectored) requests out to goroutines, and the
// bound keeps a flood of frames from spawning an unbounded worker set.
const serverMaxHandlers = 256

// serverWorkerIdle is how long a connection's extra handler workers wait for
// a request before exiting: a burst's workers stay while requests keep
// coming, and an idle connection shrinks back to its one resident worker.
const serverWorkerIdle = time.Second

// ErrRemote wraps an error string returned by the storage server.
var ErrRemote = errors.New("storage: remote error")

// wireBuf is a pooled wire buffer: request frames read off a connection,
// response payloads, encode scratch and a handler's vector scratch (refs,
// writes) all recycle, so the steady-state wire path allocates nothing per
// frame. A frame decoded from a wireBuf aliases it; whoever consumes the
// frame releases the buffer once every alias is dead (DESIGN.md, "Who owns a
// bucket's bytes at each hop").
type wireBuf struct {
	b      []byte
	refs   []SlotRef
	writes []BucketWrite
	class  int // index of the pool it came from and goes back to
}

// Buffers pool in two classes by the size of the job they are taken for, and
// return to the class they came from however they grew: out of one mixed pool
// the many small frames sit on vector-sized buffers (a write-back vector or
// full checkpoint is most of a megabyte) while each vector allocates anew.
var wireBufPools [2]sync.Pool

const vectorWireBuf = 256 << 10

// getWireBuf returns a pooled buffer for a job of about size bytes; its b
// may still be shorter than that, or nil.
func getWireBuf(size int) *wireBuf {
	class := 0
	if size >= vectorWireBuf {
		class = 1
	}
	if buf, _ := wireBufPools[class].Get().(*wireBuf); buf != nil {
		return buf
	}
	return &wireBuf{class: class}
}

// putWireBuf recycles buf with its backing arrays, minus the slot slices a
// write vector pointed at (those belong to the backend now).
func putWireBuf(buf *wireBuf) {
	clear(buf.writes[:cap(buf.writes)])
	wireBufPools[buf.class].Put(buf)
}

// Server serves a Backend over TCP.
type Server struct {
	backend Backend
	ln      net.Listener

	// fence is the served backend's proxy-generation register: fencing at
	// the wire covers any backend (disk groups included) without the backend
	// itself implementing Fenceable, and a zombie proxy's stale connection
	// is exactly the thing being fenced.
	fence fenceRegister

	mu    sync.Mutex
	conns map[net.Conn]bool
	done  chan struct{}
	wg    sync.WaitGroup
}

// connState is per-connection protocol state: the fence token this
// connection most recently acquired (0 = never fenced; such connections are
// legacy/unfenced and always pass, so non-HA deployments are unaffected).
// Handlers for one connection run concurrently, hence the lock.
type connState struct {
	mu    sync.Mutex
	token uint64
}

func (cs *connState) setToken(t uint64) {
	cs.mu.Lock()
	cs.token = t
	cs.mu.Unlock()
}

func (cs *connState) getToken() uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.token
}

// NewServer starts serving backend on the given address ("host:port"; use
// ":0" for an ephemeral port).
func NewServer(backend Backend, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("storage: listen: %w", err)
	}
	s := &Server{
		backend: backend,
		ln:      ln,
		conns:   make(map[net.Conn]bool),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections.
func (s *Server) Close() error { return s.Drain(0) }

// Drain stops accepting new connections, waits up to grace for the existing
// ones to finish on their own (clients closing after their last request),
// then closes whatever is left. Graceful shutdown (SIGTERM) uses it so a
// proxy's in-flight epoch-boundary barrier is answered rather than torn.
func (s *Server) Drain(grace time.Duration) error {
	close(s.done)
	err := s.ln.Close()
	deadline := time.Now().Add(grace)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serverConn is one served connection: its read loop hands request frames to
// long-lived handler workers, which answer through the shared writer.
type serverConn struct {
	s    *Server
	conn net.Conn
	cs   connState

	wmu sync.Mutex
	w   *bufio.Writer

	// reqs feeds the workers; a send succeeds at once only when a worker is
	// idle. Only the read loop adds to workers; an exiting worker subtracts.
	reqs     chan *wireBuf
	workers  atomic.Int32
	handlers sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 1<<16)
	sc := &serverConn{s: s, conn: conn, w: bufio.NewWriterSize(conn, 1<<16), reqs: make(chan *wireBuf)}
	defer sc.handlers.Wait()
	defer close(sc.reqs)
	sc.workers.Store(1)
	sc.handlers.Add(1)
	go sc.work(true)
	for {
		fb, err := readFrame(r)
		if err != nil {
			return
		}
		if len(fb.b) < 9 {
			putWireBuf(fb)
			return
		}
		sc.dispatch(fb)
	}
}

// dispatch hands a request to an idle worker, or starts one. Slow backends
// (e.g. latency-injected) must not serialize pipelined requests, but a frame
// flood must not grow the worker set past serverMaxHandlers either: at the
// cap the read loop waits for a worker, which back-pressures the connection.
func (sc *serverConn) dispatch(fb *wireBuf) {
	select {
	case sc.reqs <- fb:
		return
	default:
	}
	if sc.workers.Load() < serverMaxHandlers {
		sc.workers.Add(1)
		sc.handlers.Add(1)
		go sc.work(false)
	}
	sc.reqs <- fb
}

// work serves requests until the connection's read loop ends. The resident
// worker stays that long, so a read loop blocked on a full worker set is
// always answered; any other worker exits once idle for serverWorkerIdle.
func (sc *serverConn) work(resident bool) {
	defer sc.handlers.Done()
	if resident {
		for fb := range sc.reqs {
			sc.serve(fb)
		}
		return
	}
	idle := time.NewTimer(serverWorkerIdle)
	defer idle.Stop()
	for {
		select {
		case fb, ok := <-sc.reqs:
			if !ok {
				return
			}
			sc.serve(fb)
			idle.Reset(serverWorkerIdle)
		case <-idle.C:
			sc.workers.Add(-1)
			return
		}
	}
}

// serve answers one request frame and releases it. The response encodes into
// a pooled scratch; the request frame releases after handle (which copies
// anything it retains) and the response write both finish with its bytes.
func (sc *serverConn) serve(fb *wireBuf) {
	op := wireOp(fb.b[0])
	reqID := binary.BigEndian.Uint64(fb.b[1:9])
	rb := getWireBuf(0)
	status, resp := sc.s.handle(&sc.cs, op, fb.b[9:], rb)
	if len(resp)+9 > maxFrame {
		// A response the peer's readFrame would reject must become a clean
		// per-request error, not a connection-killing frame.
		status, resp = statusErr, []byte(fmt.Sprintf("storage: response of %d bytes exceeds frame limit", len(resp)))
	}
	sc.wmu.Lock()
	err := writeResponse(sc.w, status, reqID, resp)
	if err == nil {
		sc.w.Flush()
	}
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
	putWireBuf(fb)
	if resp != nil {
		// Keep whichever backing the handler ended up with (error strings
		// included — any byte slice is a fine future frame).
		rb.b = resp[:0]
	}
	putWireBuf(rb)
}

// mutatingOp reports whether an op changes store state and is therefore
// subject to proxy-generation fencing. Reads stay unfenced: the store is
// untrusted and its ciphertext readable by anyone on the wire anyway.
func mutatingOp(op wireOp) bool {
	switch op {
	case wireWriteBucket, wireWriteBuckets, wireCommitEpoch, wireRollbackTo,
		wireKVPut, wireKVDelete, wireLogAppend, wireLogTruncate:
		return true
	}
	return false
}

// handle executes one request. The payload may alias a pooled frame: every
// slice the backend keeps is copied out of it first (decoder.fields,
// copyBytes, str), so the caller may release the frame as soon as handle
// returns. Vector scratch and the returned response come out of rb.
func (s *Server) handle(cs *connState, op wireOp, payload []byte, rb *wireBuf) (byte, []byte) {
	enc := encoder{buf: rb.b[:0]}
	fail := func(err error) (byte, []byte) {
		return statusErr, []byte(err.Error())
	}
	if mutatingOp(op) {
		if err := s.fence.check(cs.getToken()); err != nil {
			return fail(err)
		}
	}
	d := decoder{buf: payload}
	switch op {
	case wireFence:
		token := s.fence.acquire()
		cs.setToken(token)
		enc.u64(token)
	case wireReadSlot:
		bucket, slot := int(d.u32()), int(d.u32())
		if d.err != nil {
			return fail(d.err)
		}
		data, err := s.backend.ReadSlot(bucket, slot)
		if err != nil {
			return fail(err)
		}
		enc.bytes(data)
	case wireReadBucket:
		bucket := int(d.u32())
		if d.err != nil {
			return fail(d.err)
		}
		slots, err := s.backend.ReadBucket(bucket)
		if err != nil {
			return fail(err)
		}
		enc.u32(uint32(len(slots)))
		for _, sl := range slots {
			enc.bytes(sl)
		}
	case wireWriteBucket:
		bucket, epoch := int(d.u32()), d.u64()
		slots := d.fields()
		if d.err != nil {
			return fail(fmt.Errorf("storage: bad write-bucket frame: %w", d.err))
		}
		if err := s.backend.WriteBucket(bucket, epoch, slots); err != nil {
			return fail(err)
		}
	case wireReadSlots:
		n := d.count(8)
		if d.err != nil {
			return fail(fmt.Errorf("storage: bad read-slots frame: %w", d.err))
		}
		refs := rb.refs[:0]
		for i := 0; i < n; i++ {
			refs = append(refs, SlotRef{Bucket: int(d.u32()), Slot: int(d.u32())})
		}
		rb.refs = refs
		data, err := s.backend.ReadSlots(refs)
		if err != nil {
			return fail(err)
		}
		enc.u32(uint32(len(data)))
		for _, sl := range data {
			enc.bytes(sl)
		}
	case wireWriteBuckets:
		n := d.count(16)
		writes := rb.writes[:0]
		for i := 0; i < n && d.err == nil; i++ {
			w := BucketWrite{Bucket: int(d.u32()), Epoch: d.u64()}
			w.Slots = d.fields()
			writes = append(writes, w)
		}
		rb.writes = writes
		if d.err != nil {
			return fail(fmt.Errorf("storage: bad write-buckets frame: %w", d.err))
		}
		if err := s.backend.WriteBuckets(writes); err != nil {
			return fail(err)
		}
	case wireCommitEpoch:
		if err := s.backend.CommitEpoch(d.u64()); err != nil {
			return fail(err)
		}
	case wireRollbackTo:
		if err := s.backend.RollbackTo(d.u64()); err != nil {
			return fail(err)
		}
	case wireNumBuckets:
		n, err := s.backend.NumBuckets()
		if err != nil {
			return fail(err)
		}
		enc.u32(uint32(n))
	case wireKVGet:
		key := d.str()
		if d.err != nil {
			return fail(d.err)
		}
		v, found, err := s.backend.Get(key)
		if err != nil {
			return fail(err)
		}
		if found {
			enc.u8(1)
			enc.bytes(v)
		} else {
			enc.u8(0)
		}
	case wireKVPut:
		key := d.str()
		val := d.copyBytes()
		if d.err != nil {
			return fail(d.err)
		}
		if err := s.backend.Put(key, val); err != nil {
			return fail(err)
		}
	case wireKVDelete:
		key := d.str()
		if d.err != nil {
			return fail(d.err)
		}
		if err := s.backend.Delete(key); err != nil {
			return fail(err)
		}
	case wireLogAppend:
		rec := d.copyBytes()
		if d.err != nil {
			return fail(d.err)
		}
		seq, err := s.backend.Append(rec)
		if err != nil {
			return fail(err)
		}
		enc.u64(seq)
	case wireLogScan:
		from := d.u64()
		if d.err != nil {
			return fail(d.err)
		}
		recs, err := s.backend.Scan(from)
		if err != nil {
			return fail(err)
		}
		enc.u32(uint32(len(recs)))
		for _, rec := range recs {
			enc.bytes(rec)
		}
	case wireLogTruncate:
		if err := s.backend.Truncate(d.u64()); err != nil {
			return fail(err)
		}
	case wireLogLastSeq:
		seq, err := s.backend.LastSeq()
		if err != nil {
			return fail(err)
		}
		enc.u64(seq)
	default:
		return fail(fmt.Errorf("storage: unknown op %d", op))
	}
	if d.err != nil {
		return fail(d.err)
	}
	return statusOK, enc.buf
}

// readFrame reads one frame into a pooled buffer: the length prefix is
// peeked out of the bufio window (no scratch copy) and the body lands in a
// recycled wireBuf. The caller owns the returned buffer and must putWireBuf
// it once done with every slice aliasing it.
func readFrame(r *bufio.Reader) (*wireBuf, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > maxFrame {
		return nil, fmt.Errorf("storage: frame of %d bytes exceeds limit", n)
	}
	if _, err := r.Discard(4); err != nil {
		return nil, err
	}
	buf := getWireBuf(int(n))
	if cap(buf.b) < int(n) {
		buf.b = make([]byte, n)
	}
	buf.b = buf.b[:n]
	if _, err := io.ReadFull(r, buf.b); err != nil {
		putWireBuf(buf)
		return nil, err
	}
	return buf, nil
}

// writeResponse writes one response frame; the header is built in the
// writer's own buffer, so nothing escapes per call.
func writeResponse(w *bufio.Writer, status byte, reqID uint64, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(9+len(payload)))
	hdr = append(hdr, status)
	hdr = binary.BigEndian.AppendUint64(hdr, reqID)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Client is a Backend implemented against a remote Server. It is safe for
// concurrent use; concurrent calls are pipelined over a single connection.
type Client struct {
	conn net.Conn

	wmu sync.Mutex
	w   *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	closed  bool
	readErr error
}

// response is one decoded server reply. Its payload aliases a pooled frame
// buffer; the consumer calls release after copying out whatever it keeps.
type response struct {
	status  byte
	payload []byte
	buf     *wireBuf
}

// replyChanPool recycles the one-slot channels calls wait on; only a channel
// that delivered its reply goes back (a closed or unanswered one is dropped).
var replyChanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// release returns the response's pooled buffer. Idempotent per value; safe
// on zero responses.
func (r *response) release() {
	if r.buf != nil {
		putWireBuf(r.buf)
		r.buf = nil
		r.payload = nil
	}
}

var _ Backend = (*Client)(nil)

// DialMulti connects to one storage server per shard. Addresses may carry
// surrounding whitespace (comma-separated flag values). On any failure the
// already-established connections are closed before returning.
func DialMulti(addrs []string) ([]Backend, error) {
	backends := make([]Backend, 0, len(addrs))
	for _, a := range addrs {
		c, err := Dial(strings.TrimSpace(a))
		if err != nil {
			CloseAll(backends)
			return nil, err
		}
		backends = append(backends, c)
	}
	return backends, nil
}

// DialTimeout bounds how long Dial waits for a TCP connection. A dead shard
// address must fail proxy startup loudly, not hang it forever.
const DialTimeout = 10 * time.Second

// Dial connects to a storage server, failing after DialTimeout.
func Dial(addr string) (*Client, error) {
	return DialWithTimeout(addr, DialTimeout)
}

// DialWithTimeout connects to a storage server with an explicit connect
// timeout (0 or negative selects DialTimeout).
func DialWithTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("storage: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The protocol is request/response with explicit flushes; Nagle
		// buffering would add delayed-ACK stalls to every small frame.
		tc.SetNoDelay(true)
	}
	c := &Client{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, 1<<16),
		pending: make(map[uint64]chan response),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	r := bufio.NewReaderSize(c.conn, 1<<16)
	for {
		fb, err := readFrame(r)
		if err != nil {
			c.fail(err)
			return
		}
		if len(fb.b) < 9 {
			putWireBuf(fb)
			c.fail(fmt.Errorf("storage: short response frame"))
			return
		}
		status := fb.b[0]
		reqID := binary.BigEndian.Uint64(fb.b[1:9])
		c.mu.Lock()
		ch := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- response{status: status, payload: fb.b[9:], buf: fb}
		} else {
			putWireBuf(fb)
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
}

// call sends one request and waits for its reply. The returned response's
// payload borrows a pooled buffer: the caller parses (copying whatever it
// keeps) and then releases it. The request payload is fully consumed before
// call returns, so callers may recycle its backing immediately.
func (c *Client) call(op wireOp, payload []byte) (response, error) {
	return c.callPrefixed(op, nil, payload)
}

// callPrefixed is call with the request payload in two parts, pre‖payload. pre
// (a few bytes) travels with the frame header, which is built in the writer's
// own buffer, so a request that is one length-prefixed field — Append's record
// — is sent from where it lies instead of being copied behind its length.
func (c *Client) callPrefixed(op wireOp, pre, payload []byte) (response, error) {
	ch := replyChanPool.Get().(chan response)
	c.mu.Lock()
	if c.closed {
		// Closing the client also tears down the read loop, which records a
		// connection error; an explicitly closed client must still report
		// ErrClosed, not whichever teardown error won the race.
		c.mu.Unlock()
		return response{}, ErrClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return response{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	n := len(pre) + len(payload)
	if n+9 > maxFrame {
		// Refuse rather than send: the server would reject the frame and
		// kill the connection; a u32 header could even wrap past 4 GiB.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return response{}, fmt.Errorf("storage: request of %d bytes exceeds frame limit", n)
	}
	c.wmu.Lock()
	hdr := binary.BigEndian.AppendUint32(c.w.AvailableBuffer(), uint32(9+n))
	hdr = append(hdr, byte(op))
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	_, err := c.w.Write(append(hdr, pre...))
	if err == nil {
		_, err = c.w.Write(payload)
	}
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return response{}, fmt.Errorf("storage: send: %w", err)
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return response{}, fmt.Errorf("storage: connection lost: %w", err)
	}
	replyChanPool.Put(ch) // the read loop dropped it before sending: ours alone, and empty
	if resp.status != statusOK {
		msg := string(resp.payload)
		err := fmt.Errorf("%w: %s", ErrRemote, msg)
		if strings.HasPrefix(msg, ErrFenced.Error()) {
			// Reconstruct the sentinel so errors.Is(err, ErrFenced) holds
			// across the wire: a fenced-out proxy must be able to tell "I am
			// a zombie" from an ordinary storage failure.
			err = fmt.Errorf("%w: %w", ErrRemote, ErrFenced)
		}
		resp.release()
		return response{}, err
	}
	return resp, nil
}

// AcquireFence implements Fenceable over the wire: the server binds the new
// token to THIS connection, so the client itself is the returned view — its
// later mutating ops are checked server-side against the highest token
// issued for the served backend.
func (c *Client) AcquireFence() (Backend, uint64, error) {
	token, err := c.callForU64(wireFence, nil)
	if err != nil {
		return nil, 0, err
	}
	return c, token, nil
}

// callForU64 performs an op whose reply is one u64.
func (c *Client) callForU64(op wireOp, payload []byte) (uint64, error) {
	return u64Reply(c.call(op, payload))
}

// u64Reply decodes a reply that is one u64.
func u64Reply(resp response, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	defer resp.release()
	d := decoder{buf: resp.payload}
	v := d.u64()
	return v, d.err
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) ReadSlot(bucket, slot int) ([]byte, error) {
	rq := getWireBuf(0)
	enc := encoder{buf: rq.b[:0]}
	enc.u32(uint32(bucket))
	enc.u32(uint32(slot))
	resp, err := c.call(wireReadSlot, enc.buf)
	rq.b = enc.buf
	putWireBuf(rq)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: resp.payload}
	data := d.copyBytes()
	err = d.err
	resp.release()
	return data, err
}

// ReadSlots packs the whole vector into a single request frame: one wire op
// and one round trip however many slots the stage reads. Vectors larger
// than vectorChunkRefs are split across frames (sent back-to-back, still
// ~one round trip) so a response can never exceed the frame limit.
func (c *Client) ReadSlots(refs []SlotRef) ([][]byte, error) {
	if len(refs) > vectorChunkRefs {
		out := make([][]byte, 0, len(refs))
		for start := 0; start < len(refs); start += vectorChunkRefs {
			end := start + vectorChunkRefs
			if end > len(refs) {
				end = len(refs)
			}
			part, err := c.readSlotsFrame(refs[start:end])
			if err != nil {
				return nil, err
			}
			out = append(out, part...)
		}
		return out, nil
	}
	return c.readSlotsFrame(refs)
}

func (c *Client) readSlotsFrame(refs []SlotRef) ([][]byte, error) {
	rq := getWireBuf(0)
	enc := encoder{buf: rq.b[:0]}
	enc.u32(uint32(len(refs)))
	for _, r := range refs {
		enc.u32(uint32(r.Bucket))
		enc.u32(uint32(r.Slot))
	}
	data, err := c.callForFields(wireReadSlots, enc.buf)
	rq.b = enc.buf
	putWireBuf(rq)
	if err == nil && len(data) != len(refs) {
		err = fmt.Errorf("storage: bad read-slots response (%d results for %d refs)", len(data), len(refs))
	}
	return data, err
}

// callForFields performs an op whose reply is a vector of byte fields (slots,
// log records), copied out of the pooled reply frame into one arena: two
// allocations per call instead of one per field.
func (c *Client) callForFields(op wireOp, payload []byte) ([][]byte, error) {
	resp, err := c.call(op, payload)
	if err != nil {
		return nil, err
	}
	defer resp.release()
	d := decoder{buf: resp.payload}
	out := d.fields()
	if d.err != nil {
		return nil, fmt.Errorf("storage: bad response to op %d: %w", op, d.err)
	}
	return out, nil
}

func (c *Client) ReadBucket(bucket int) ([][]byte, error) {
	var enc encoder
	enc.u32(uint32(bucket))
	return c.callForFields(wireReadBucket, enc.buf)
}

func (c *Client) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	rq := getWireBuf(0)
	enc := encoder{buf: rq.b[:0]}
	enc.bucket(bucket, epoch, slots)
	resp, err := c.call(wireWriteBucket, enc.buf)
	rq.b = enc.buf
	putWireBuf(rq)
	resp.release()
	return err
}

// WriteBuckets ships a whole write-back set in one request frame, splitting
// into several (sent back-to-back) only when the payload would approach the
// frame limit; sizes are known before encoding, so each frame is written
// once into a buffer sized for it. Buckets install in vector order.
func (c *Client) WriteBuckets(writes []BucketWrite) error {
	for start := 0; ; {
		end, size := start, 4
		for end < len(writes) {
			n := 4 + 8 + 4
			for _, s := range writes[end].Slots {
				n += 4 + len(s)
			}
			if end > start && size+n > vectorChunkBytes {
				break
			}
			size += n
			end++
		}
		if err := c.writeBucketsFrame(writes[start:end], size); err != nil {
			return err
		}
		if start = end; start >= len(writes) {
			return nil
		}
	}
}

func (c *Client) writeBucketsFrame(writes []BucketWrite, size int) error {
	rq := getWireBuf(size)
	if cap(rq.b) < size {
		rq.b = make([]byte, 0, size)
	}
	enc := encoder{buf: rq.b[:0]}
	enc.u32(uint32(len(writes)))
	for _, w := range writes {
		enc.bucket(w.Bucket, w.Epoch, w.Slots)
	}
	resp, err := c.call(wireWriteBuckets, enc.buf)
	resp.release()
	putWireBuf(rq)
	return err
}

// callU64 performs an op whose request is one u64 and whose reply is empty.
func (c *Client) callU64(op wireOp, v uint64) error {
	rq := getWireBuf(0)
	rq.b = binary.BigEndian.AppendUint64(rq.b[:0], v)
	resp, err := c.call(op, rq.b)
	putWireBuf(rq)
	resp.release()
	return err
}

func (c *Client) CommitEpoch(epoch uint64) error { return c.callU64(wireCommitEpoch, epoch) }
func (c *Client) RollbackTo(epoch uint64) error  { return c.callU64(wireRollbackTo, epoch) }

func (c *Client) NumBuckets() (int, error) {
	resp, err := c.call(wireNumBuckets, nil)
	if err != nil {
		return 0, err
	}
	defer resp.release()
	d := decoder{buf: resp.payload}
	n := int(d.u32())
	return n, d.err
}

func (c *Client) Get(key string) ([]byte, bool, error) {
	var enc encoder
	enc.str(key)
	resp, err := c.call(wireKVGet, enc.buf)
	if err != nil {
		return nil, false, err
	}
	defer resp.release()
	d := decoder{buf: resp.payload}
	if d.u8() == 0 {
		return nil, false, d.err
	}
	v := d.copyBytes()
	return v, true, d.err
}

func (c *Client) Put(key string, value []byte) error {
	var enc encoder
	enc.str(key)
	enc.bytes(value)
	resp, err := c.call(wireKVPut, enc.buf)
	resp.release()
	return err
}

func (c *Client) Delete(key string) error {
	var enc encoder
	enc.str(key)
	resp, err := c.call(wireKVDelete, enc.buf)
	resp.release()
	return err
}

func (c *Client) Append(record []byte) (uint64, error) {
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(record)))
	return u64Reply(c.callPrefixed(wireLogAppend, pre[:], record))
}

func (c *Client) Scan(from uint64) ([][]byte, error) {
	var enc encoder
	enc.u64(from)
	return c.callForFields(wireLogScan, enc.buf)
}

func (c *Client) Truncate(before uint64) error { return c.callU64(wireLogTruncate, before) }

func (c *Client) LastSeq() (uint64, error) { return c.callForU64(wireLogLastSeq, nil) }

// encoder builds wire payloads.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// bucket encodes one written bucket: bucket, epoch, slot count, slots.
func (e *encoder) bucket(bucket int, epoch uint64, slots [][]byte) {
	e.u32(uint32(bucket))
	e.u64(epoch)
	e.u32(uint32(len(slots)))
	for _, s := range slots {
		e.bytes(s)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder parses wire payloads.
type decoder struct {
	buf []byte
	err error
}

var errShort = errors.New("storage: short payload")

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf) < n {
		d.err = errShort
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) copyBytes() []byte {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// view reads a length-prefixed byte field without copying; the result
// aliases the decoder's buffer (a pooled frame — dead once it releases).
func (d *decoder) view() []byte {
	n := int(d.u32())
	return d.take(n)
}

// count reads a vector's element count, failing when it exceeds maxVector or
// what the rest of the payload could hold at minSize bytes an element.
func (d *decoder) count(minSize int) int {
	n := d.u32()
	if d.err == nil && (n > maxVector || int(n) > len(d.buf)/minSize) {
		d.err = errShort
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// fields decodes a count and that many length-prefixed fields (a bucket's
// slots, a read vector's results) into an arena the caller may keep: a size
// pass over the prefixes bounded by the payload, one exactly-sized allocation,
// capacity-clipped subslices. One arena per bucket, not per frame: a version
// that lives long pins its own bytes only.
func (d *decoder) fields() [][]byte {
	n := d.count(4)
	size := decoder{buf: d.buf}
	total := 0
	for i := 0; i < n; i++ {
		total += len(size.view())
	}
	if d.err == nil {
		d.err = size.err
	}
	if d.err != nil {
		return nil
	}
	arena := make([]byte, 0, total)
	out := make([][]byte, n)
	for i := range out {
		at := len(arena)
		arena = append(arena, d.view()...)
		out[i] = arena[at:len(arena):len(arena)]
	}
	return out
}

func (d *decoder) str() string {
	n := int(d.u32())
	b := d.take(n)
	return string(b)
}
