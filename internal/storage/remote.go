package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/slab"
	"obladi/internal/wire"
)

// This file implements the wire protocol between the trusted proxy and the
// untrusted storage server, over internal/wire's framing with request
// pipelining: many requests may be in flight on one connection, and responses
// carry the request id they answer.
//
// Request frame:  len(u32) | op(u8) | reqID(u64) | payload
// Response frame: len(u32) | status(u8) | reqID(u64) | payload

type wireOp uint8

const (
	// Ops 1 and 3 are reserved: they were the scalar slot read and bucket
	// write, now vectors of one (wireReadSlots, wireWriteBuckets). Ops 7-9
	// are too: they were the baselines' key-value get, put and delete, and
	// no store keeps that namespace now. A server answers every reserved op
	// as an unknown one.
	_ wireOp = iota + 1
	wireReadBucket
	_
	wireCommitEpoch
	wireRollbackTo
	wireNumBuckets
	_
	_
	_
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
// call. Each chunk's frame is sent once the previous one is answered, so a
// vector of k chunks pays k round trips; layers above (executor stats, trace
// recorder) keep counting one storage call.
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

// serverReadBuf sizes each connection's read buffer, and so the window a
// write-back vector is streamed through: what a connection holds of an
// epoch's write-back set at a time, however long the set.
const serverReadBuf = 64 << 10

// serverWorkerIdle is how long a connection's extra handler workers wait for
// a request before exiting: a burst's workers stay while requests keep
// coming, and an idle connection shrinks back to its one resident worker.
const serverWorkerIdle = time.Second

// ErrRemote wraps an error string returned by the storage server.
var ErrRemote = errors.New("storage: remote error")

// bufs recycles the storage wire's frames, request encodings and response
// encodings, at both ends.
var bufs wire.Pool

// Server serves a Backend over TCP. A connection's frames are read whole
// into pooled buffers and answered by handler workers, except write-back
// vectors, which the read loop streams into the backend a window of whole
// buckets at a time (streamWriteBuckets): a torn or refused one may leave a
// prefix of its whole buckets installed but uncommitted, as
// BucketStore.WriteBuckets allows.
type Server struct {
	backend Backend
	srv     *wire.Server

	// fence is the served backend's proxy-generation register: fencing at
	// the wire covers any backend (disk groups included) without the backend
	// itself implementing Fenceable, and a zombie proxy's stale connection
	// is exactly the thing being fenced.
	fence fenceRegister

	// slotLen is the length of the slot that kept the last read-slots reply
	// from landing in place, 0 before the first reply: the ORAM's frame
	// length, at which the next replies' destinations are carved (readSlots).
	slotLen atomic.Uint32
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
	return newServer(backend, ln), nil
}

func newServer(backend Backend, ln net.Listener) *Server {
	s := &Server{backend: backend}
	s.srv = wire.Serve(ln, s.serveConn)
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the server and closes all connections.
func (s *Server) Close() error { return s.srv.Close() }

// Drain stops accepting new connections, waits up to grace for the existing
// ones to finish on their own (clients closing after their last request),
// then closes whatever is left. Graceful shutdown (SIGTERM) uses it so a
// proxy's in-flight epoch-boundary barrier is answered rather than torn.
func (s *Server) Drain(grace time.Duration) error { return s.srv.Drain(grace) }

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
	reqs     chan *wire.Buf
	workers  atomic.Int32
	handlers sync.WaitGroup

	// group is the read loop's scratch for write-back vectors.
	group writeGroup
}

// scratch is a handler worker's vector scratch, reused request to request: a
// slot read's refs.
type scratch struct {
	refs []SlotRef
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, serverReadBuf)
	sc := &serverConn{s: s, conn: conn, w: bufio.NewWriterSize(conn, 1<<16), reqs: make(chan *wire.Buf)}
	defer sc.handlers.Wait()
	defer close(sc.reqs)
	sc.workers.Store(1)
	sc.handlers.Add(1)
	go sc.work(true)
	for {
		op, id, n, err := wire.PeekHeader(r, maxFrame)
		if err != nil {
			return
		}
		if wireOp(op) == wireWriteBuckets {
			r.Discard(wire.PrefixLen + wire.HeaderLen) // peeked
			if !sc.streamWriteBuckets(r, id, n) {
				return
			}
			continue
		}
		fb, err := wire.ReadFrame(r, maxFrame, &bufs)
		if err != nil {
			return
		}
		sc.dispatch(fb)
	}
}

// dispatch hands a request to an idle worker, or starts one. Slow backends
// (e.g. latency-injected) must not serialize pipelined requests, but a frame
// flood must not grow the worker set past serverMaxHandlers either: at the
// cap the read loop waits for a worker, which back-pressures the connection.
func (sc *serverConn) dispatch(fb *wire.Buf) {
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
	var hs scratch
	if resident {
		for fb := range sc.reqs {
			sc.serve(fb, &hs)
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
			sc.serve(fb, &hs)
			idle.Reset(serverWorkerIdle)
		case <-idle.C:
			sc.workers.Add(-1)
			return
		}
	}
}

// serve answers one request frame and releases it. The response encodes into
// a pooled buffer; the request frame releases after handle (whose backend
// copies anything it keeps) and the response write both finish with its bytes.
func (sc *serverConn) serve(fb *wire.Buf, hs *scratch) {
	rb := bufs.Get(0)
	status, resp := sc.s.handle(&sc.cs, hs, wireOp(fb.Kind()), fb.Payload(), rb.B)
	if len(resp)+wire.HeaderLen > maxFrame {
		// A response the peer's frame reader would reject must become a
		// clean per-request error, not a connection-killing frame.
		status, resp = statusErr, []byte(fmt.Sprintf("storage: response of %d bytes exceeds frame limit", len(resp)))
	}
	sc.reply(status, fb.ID(), resp)
	wire.Put(fb)
	if resp != nil {
		// Keep whichever backing the handler ended up with (error strings
		// included — any byte slice is a fine future frame).
		rb.B = resp[:0]
	}
	wire.Put(rb)
}

// reply writes a response frame; a failed write closes the connection.
func (sc *serverConn) reply(status byte, id uint64, resp []byte) {
	sc.wmu.Lock()
	err := wire.Write(sc.w, status, id, nil, "", resp)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}

// streamWriteBuckets answers a write-buckets request whose n-byte payload is
// still on r without holding the vector whole: every write-back a server
// takes comes this way. It parses the payload a window at a time out of r's
// buffer and hands the whole buckets of each window to the backend's
// WriteBuckets as views of it, in vector order, before r reads on. So while
// its buckets fit r's buffer a server holds that buffer's worth per
// connection, however long the epoch's write-back set; a payload that fits
// the buffer is one window and one call; a bucket longer than r's buffer
// has the rest of the payload read into a buffer of its own.
// The fence is checked once, before the first group. A payload that does
// not decode — a count or length running past the frame, bytes left after
// the last bucket — is refused as a bad write-buckets frame, and the group
// it falls in, the last one included, never reaches the backend. The
// rest of a refused frame is read and dropped and the reply follows, so the
// next frame starts where the peer put it. It reports false when r fails
// mid-frame: the connection is torn and closes unanswered. Either way, as
// BucketStore allows for a mid-vector failure, the groups installed before
// stay installed and uncommitted: the state a crash between two WriteBuckets
// calls leaves.
func (sc *serverConn) streamWriteBuckets(r *bufio.Reader, id uint64, n int) bool {
	p := payload{r: r, left: n}
	err := sc.s.fence.check(sc.cs.getToken())
	if err == nil {
		err = sc.group.parse(sc.s.backend, &p)
		sc.group.flush(nil) // the window's views die as r reads on
		if errors.Is(err, errShort) || errors.Is(err, errTrailing) {
			err = fmt.Errorf("storage: bad write-buckets frame: %w", err)
		}
	}
	if p.torn == nil && p.r != nil && p.left > 0 {
		if _, derr := r.Discard(p.left); derr != nil {
			p.torn = derr
		}
	}
	if p.torn != nil {
		return false
	}
	if err != nil {
		sc.reply(statusErr, id, []byte(err.Error()))
	} else {
		sc.reply(statusOK, id, nil)
	}
	return true
}

// payload is a streamed frame's payload: win, a window on its next bytes,
// of which off are parsed.
type payload struct {
	r    *bufio.Reader // nil once the rest of the payload is in win
	win  []byte        // a view of r's buffer, or the rest read whole
	off  int
	left int   // payload bytes on r, win's included
	torn error // a read of r that failed
}

// rest is how many payload bytes follow the parsed ones, in win or not.
func (p *payload) rest() int {
	if p.r == nil {
		return len(p.win) - p.off
	}
	return p.left - p.off
}

// more drops the parsed bytes and widens the window: the next bytes up to
// r's buffer, or, when the unparsed bytes already fill that, the rest of the
// payload read whole. It reports false when r fails.
func (p *payload) more() bool {
	p.r.Discard(p.off) // parsed, so buffered
	p.left -= p.off
	p.win, p.off = p.win[p.off:], 0
	if len(p.win) < p.r.Size() {
		p.win, p.torn = p.r.Peek(min(p.r.Size(), p.left))
		return p.torn == nil
	}
	// One bucket outgrows the reader's buffer.
	buf := make([]byte, p.left)
	if _, p.torn = io.ReadFull(p.r, buf); p.torn != nil {
		return false
	}
	p.r, p.win, p.left = nil, buf, 0
	return true
}

// writeGroup is a write-back vector's whole buckets decoded as views of the
// bytes that carried them, a window on the connection's read buffer
// (serverConn.group). It holds views only, and none once flushed.
type writeGroup struct {
	writes []BucketWrite
	slots  [][]byte
	sent   bool // a group of the streamed vector being parsed reached the store
}

// streamedWriter is a store that models a write-back vector as one request
// (Latency charges its round trip once a vector): the server hands it each
// group of a streamed vector with whether the group opens the vector.
type streamedWriter interface {
	writeStreamed(writes []BucketWrite, opens bool) error
}

// parse parses a write-buckets payload out of p and installs it in backend,
// a window's whole buckets at a time, leaving what it did not parse in p.
// It returns errShort or errTrailing for a payload that does not decode,
// the backend's error, or nil when r tore.
func (g *writeGroup) parse(backend Backend, p *payload) error {
	g.sent = false
	if p.left < 4 {
		return errShort
	}
	hdr, err := p.r.Peek(4)
	if err != nil {
		p.torn = err
		return nil
	}
	n := binary.BigEndian.Uint32(hdr)
	p.r.Discard(4)
	p.left -= 4
	if n > maxVector || int(n) > p.left/16 {
		return errShort
	}
	for i := 0; i < int(n); {
		w, size, err := g.parseBucket(p.win[p.off:], p.rest())
		if err != nil {
			return err
		}
		if size == 0 {
			// The window ends inside the bucket: the whole buckets before
			// it go to the store before r reads on.
			if err := g.flush(backend); err != nil {
				return err
			}
			if !p.more() {
				return nil
			}
			continue
		}
		g.writes = append(g.writes, w)
		p.off += size
		i++
	}
	if p.rest() > 0 {
		return errTrailing
	}
	return g.flush(backend)
}

// parseBucket decodes the bucket at the head of b, a prefix of the rest
// bytes left of the payload, its slots views of b added to g.slots. It
// returns the bucket's encoded size, or 0 when b ends inside it, and
// errShort when a count or length runs past the payload. Counts are bounded
// as decoder.count bounds them. A later append may move g.slots; a returned
// write's table stays valid where it is.
func (g *writeGroup) parseBucket(b []byte, rest int) (w BucketWrite, size int, err error) {
	at := len(g.slots)
	d := decoder{buf: b}
	// fits reports whether k more bytes are in b, failing the bucket when the
	// payload does not hold them either.
	fits := func(k int) bool {
		if used := len(b) - len(d.buf); k > rest-used {
			err = errShort
		}
		return err == nil && k <= len(d.buf)
	}
	if fits(16) {
		w.Bucket, w.Epoch = int(d.u32()), d.u64()
		m := int(d.u32())
		if m > maxVector || m > (rest-16)/4 {
			err = errShort
		}
		for i := 0; i < m && fits(4); i++ {
			k := int(d.u32())
			if !fits(k) {
				break
			}
			g.slots = append(g.slots, d.take(k)[:k:k])
		}
		if err == nil && len(g.slots)-at == m {
			w.Slots = g.slots[at:len(g.slots):len(g.slots)]
			return w, len(b) - len(d.buf), nil
		}
	}
	clear(g.slots[at:])
	g.slots = g.slots[:at]
	return BucketWrite{}, 0, err
}

// flush hands the group's whole buckets to backend (none when it is nil),
// through streamedWriter when backend has it. The group keeps its arrays but
// pins no slot.
func (g *writeGroup) flush(backend Backend) error {
	var err error
	if backend != nil && len(g.writes) > 0 {
		if sw, ok := backend.(streamedWriter); ok {
			err = sw.writeStreamed(g.writes, !g.sent)
		} else {
			err = backend.WriteBuckets(g.writes)
		}
		g.sent = true
	}
	clear(g.writes)
	clear(g.slots)
	g.writes, g.slots = g.writes[:0], g.slots[:0]
	return err
}

// mutatingOp reports whether an op changes store state and is therefore
// subject to proxy-generation fencing. Reads stay unfenced: the store is
// untrusted and its ciphertext readable by anyone on the wire anyway.
func mutatingOp(op wireOp) bool {
	switch op {
	case wireWriteBuckets, wireCommitEpoch, wireRollbackTo,
		wireLogAppend, wireLogTruncate:
		return true
	}
	return false
}

// handle executes one request other than a write-back (streamWriteBuckets).
// The payload may alias a pooled frame: a log record reaches the backend as
// a view of it (a store copies what it keeps), so the caller may release the
// frame as soon as handle returns. A slot read's refs decode into the
// worker's scratch hs, and its slots are copied by the backend's ReadSlots
// straight into the reply (readSlots); a bucket read is a copy (ReadBucket).
// The response is appended to out[:0].
func (s *Server) handle(cs *connState, hs *scratch, op wireOp, payload, out []byte) (byte, []byte) {
	enc := encoder{buf: out[:0]}
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
		if err := d.end(); err != nil {
			return fail(err)
		}
		token := s.fence.acquire()
		cs.setToken(token)
		enc.u64(token)
	case wireReadBucket:
		bucket := int(d.u32())
		if d.err != nil {
			return fail(d.err)
		}
		slots, err := s.backend.ReadBucket(bucket)
		if err != nil {
			return fail(err)
		}
		enc.buf = appendFields(enc.buf, slots)
	case wireReadSlots:
		n := d.count(8)
		if d.err != nil {
			return fail(fmt.Errorf("storage: bad read-slots frame: %w", d.err))
		}
		refs := hs.refs[:0]
		for i := 0; i < n; i++ {
			refs = append(refs, SlotRef{Bucket: int(d.u32()), Slot: int(d.u32())})
		}
		hs.refs = refs
		var err error
		if enc.buf, err = s.readSlots(enc.buf, refs); err != nil {
			return fail(err)
		}
	case wireCommitEpoch:
		epoch, err := d.onlyU64()
		if err == nil {
			err = s.backend.CommitEpoch(epoch)
		}
		if err != nil {
			return fail(err)
		}
	case wireRollbackTo:
		epoch, err := d.onlyU64()
		if err == nil {
			err = s.backend.RollbackTo(epoch)
		}
		if err != nil {
			return fail(err)
		}
	case wireNumBuckets:
		n, err := s.backend.NumBuckets()
		if err != nil {
			return fail(err)
		}
		enc.u32(uint32(n))
	case wireLogAppend:
		rec := d.view()
		if err := d.end(); err != nil {
			return fail(err)
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
		before, err := d.onlyU64()
		if err == nil {
			err = s.backend.Truncate(before)
		}
		if err != nil {
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

// readSlots appends the reply to a read of refs to dst: the slot count, then
// each slot as a length-prefixed field. The backend's ReadSlots copies the
// slots, under its own read lock, straight into their fields: each ref's Into
// is carved from the reply at the slot length the server learned (slotLen),
// when such a reply fits a frame. A reply whose slots did not all land in
// place — the first one, or one whose slots have another length — is encoded
// again from the results, into a buffer of its own, since some of them may
// lie in dst; its slot length is the one the server carves at next.
func (s *Server) readSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	e := encoder{buf: dst}
	e.u32(uint32(len(refs)))
	size := int(s.slotLen.Load())
	carved := size > 0 && len(e.buf)+len(refs)*(4+size) <= maxFrame-wire.HeaderLen
	if carved {
		e.buf = slices.Grow(e.buf, len(refs)*(4+size))
		for i := range refs {
			e.u32(uint32(size))
			off := len(e.buf)
			e.buf = e.buf[:off+size]
			refs[i].Into = e.buf[off : off+size : off+size]
		}
	}
	got, err := s.backend.ReadSlots(refs)
	if err != nil {
		return dst, err
	}
	for i, sl := range got {
		if !carved || len(sl) != size || &sl[0] != &refs[i].Into[0] {
			s.slotLen.Store(uint32(len(sl)))
			n := 4
			for _, f := range got {
				n += 4 + len(f)
			}
			return appendFields(make([]byte, 0, n), got), nil
		}
	}
	return e.buf, nil
}

// Client is a Backend implemented against a remote Server. It is safe for
// concurrent use; concurrent calls are pipelined over a single connection.
type Client struct {
	wc     *wire.Client
	nextID atomic.Uint64
	vecs   slab.Slices[[]byte] // ReadSlots' result vectors, which callers keep
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

// Dial connects to a storage server, failing after wire.DialTimeout: a dead
// shard address must fail proxy startup loudly, not hang it.
func Dial(addr string) (*Client, error) { return dial(addr, 0) }

// dial is Dial with an explicit connect timeout (0 selects wire.DialTimeout).
func dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := wire.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("storage: dial %s: %w", addr, err)
	}
	return &Client{wc: wire.NewClient(conn, maxFrame, &bufs)}, nil
}

// call sends one request, pre‖payload, and waits for its reply. pre (a few
// bytes) travels with the frame header, so a request that is one
// length-prefixed field — Append's record — is sent from where it lies
// instead of being copied behind its length. The request is fully consumed
// before call returns, so callers may recycle its backing immediately. The
// reply's payload (Payload) borrows a pooled buffer: the caller parses it,
// copying whatever it keeps, and then puts it back with wire.Put.
func (c *Client) call(op wireOp, pre, payload []byte) (*wire.Buf, error) {
	ch, err := c.wc.Send(uint8(op), c.nextID.Add(1), pre, "", payload)
	if err != nil {
		return nil, lostErr(err)
	}
	return c.await(ch)
}

// await waits for the reply on ch, a request's reply channel, as call does.
func (c *Client) await(ch chan *wire.Buf) (*wire.Buf, error) {
	resp, ok, _ := wire.Recv(context.Background(), ch)
	if !ok {
		return nil, lostErr(c.wc.Err())
	}
	if resp.Kind() == statusOK {
		return resp, nil
	}
	msg := string(resp.Payload())
	wire.Put(resp)
	// Reconstruct the sentinel a caller acts on so errors.Is holds across
	// the wire: a fenced-out proxy must be able to tell "I am a zombie" from
	// an ordinary storage failure.
	if strings.HasPrefix(msg, ErrFenced.Error()) {
		return nil, fmt.Errorf("%w: %w", ErrRemote, ErrFenced)
	}
	return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
}

// lostErr maps the wire client's failures: a closed client reports ErrClosed,
// an oversized request its size, anything else the lost connection.
func lostErr(err error) error {
	switch {
	case errors.Is(err, wire.ErrClosed):
		return ErrClosed
	case errors.Is(err, wire.ErrTooLarge):
		return fmt.Errorf("storage: %w", err)
	}
	return fmt.Errorf("storage: connection lost: %w", err)
}

// AcquireFence implements Fenceable over the wire: the server binds the new
// token to THIS connection, so the client itself is the returned view — its
// later mutating ops are checked server-side against the highest token
// issued for the served backend.
func (c *Client) AcquireFence() (Backend, uint64, error) {
	token, err := c.callForU64(wireFence, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return c, token, nil
}

// callForU64 performs an op whose reply is one u64.
func (c *Client) callForU64(op wireOp, pre, payload []byte) (uint64, error) {
	resp, err := c.call(op, pre, payload)
	if err != nil {
		return 0, err
	}
	defer wire.Put(resp)
	d := decoder{buf: resp.Payload()}
	v := d.u64()
	return v, d.err
}

// Close closes the connection.
func (c *Client) Close() error { return c.wc.Close() }

func (c *Client) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(c, bucket, slot) }

// ReadSlots packs the whole vector into a single request frame: one wire op
// and one round trip however many slots the stage reads. Vectors larger
// than vectorChunkRefs are split across frames so a response can never
// exceed the frame limit; each frame is sent once the previous one is
// answered, so such a vector pays a round trip a frame. Each slot
// is copied straight out of the pooled reply frame into its ref's Into, or
// into one buffer a frame for the refs without one. The result vector is
// carved (c.vecs).
func (c *Client) ReadSlots(refs []SlotRef) ([][]byte, error) {
	out := c.vecs.Make(len(refs))
	for start := 0; ; start += vectorChunkRefs {
		end := min(start+vectorChunkRefs, len(refs))
		if err := c.readSlotsFrame(refs[start:end], out[start:end]); err != nil {
			return nil, err
		}
		if end == len(refs) {
			return out, nil
		}
	}
}

// readSlotsFrame reads refs in one frame, their slots into out.
func (c *Client) readSlotsFrame(refs []SlotRef, out [][]byte) error {
	rq := bufs.Get(0)
	enc := encoder{buf: rq.B}
	enc.u32(uint32(len(refs)))
	for _, r := range refs {
		enc.u32(uint32(r.Bucket))
		enc.u32(uint32(r.Slot))
	}
	resp, err := c.call(wireReadSlots, nil, enc.buf)
	rq.B = enc.buf
	wire.Put(rq)
	if err != nil {
		return err
	}
	defer wire.Put(resp)
	d := decoder{buf: resp.Payload()}
	if n := d.count(4); d.err == nil && n != len(refs) {
		return fmt.Errorf("storage: bad read-slots response (%d results for %d refs)", n, len(refs))
	}
	if d.fill(out, refs); d.err != nil {
		return fmt.Errorf("storage: bad response to op %d: %w", wireReadSlots, d.err)
	}
	return nil
}

// callForFields performs an op whose reply is a vector of byte fields (a
// bucket's slots, log records), copied out of the pooled reply frame into
// one buffer the caller keeps.
func (c *Client) callForFields(op wireOp, payload []byte) ([][]byte, error) {
	resp, err := c.call(op, nil, payload)
	if err != nil {
		return nil, err
	}
	defer wire.Put(resp)
	d := decoder{buf: resp.Payload()}
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
	return writeBucket(c, bucket, epoch, slots)
}

// WriteBuckets ships a whole write-back set in one request frame, splitting
// into several only when the payload would approach the frame limit; each
// frame is sent once the previous one is answered, so a split vector pays a
// round trip a frame. Sizes are known before encoding, so a frame is written
// from the caller's slots as it is encoded, never held whole. Buckets
// install in vector order.
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

// writeBucketsFrame sends writes as one request frame, its payload size
// bytes, and waits for the reply. Each field is encoded in the connection
// writer's own buffer and each slot written from where it lies.
func (c *Client) writeBucketsFrame(writes []BucketWrite, size int) error {
	w, ch, err := c.wc.BeginSend(uint8(wireWriteBuckets), c.nextID.Add(1), size)
	if err != nil {
		return lostErr(err)
	}
	enc := encoder{buf: available(w, 4)}
	enc.u32(uint32(len(writes)))
	w.Write(enc.buf)
	for _, bw := range writes {
		enc.buf = available(w, 16)
		enc.u32(uint32(bw.Bucket))
		enc.u64(bw.Epoch)
		enc.u32(uint32(len(bw.Slots)))
		w.Write(enc.buf)
		for _, s := range bw.Slots {
			enc.buf = available(w, 4)
			enc.u32(uint32(len(s)))
			w.Write(enc.buf)
			w.Write(s)
		}
	}
	if err := c.wc.EndSend(); err != nil {
		return lostErr(err)
	}
	resp, err := c.await(ch)
	wire.Put(resp)
	return err
}

// available returns w's free buffer, empty, with room for at least n bytes:
// a field encoded into it is written without a copy elsewhere.
func available(w *bufio.Writer, n int) []byte {
	if w.Available() < n {
		w.Flush() // a failure sticks in w, and EndSend reports it
	}
	return w.AvailableBuffer()
}

// callU64 performs an op whose request is one u64 and whose reply is empty.
func (c *Client) callU64(op wireOp, v uint64) error {
	var rq [8]byte
	binary.BigEndian.PutUint64(rq[:], v)
	resp, err := c.call(op, rq[:], nil)
	wire.Put(resp)
	return err
}

func (c *Client) CommitEpoch(epoch uint64) error { return c.callU64(wireCommitEpoch, epoch) }
func (c *Client) RollbackTo(epoch uint64) error  { return c.callU64(wireRollbackTo, epoch) }

func (c *Client) NumBuckets() (int, error) {
	resp, err := c.call(wireNumBuckets, nil, nil)
	if err != nil {
		return 0, err
	}
	defer wire.Put(resp)
	d := decoder{buf: resp.Payload()}
	n := int(d.u32())
	return n, d.err
}

// Get, Put and Delete implement KVStore: the server keeps no namespace, so
// the client refuses them without a call (ErrClosed once it is closed or its
// connection lost).
func (c *Client) Get(string) ([]byte, bool, error) { return nil, false, c.noKV() }
func (c *Client) Put(string, []byte) error         { return c.noKV() }
func (c *Client) Delete(string) error              { return c.noKV() }

func (c *Client) noKV() error {
	if err := c.wc.Err(); err != nil {
		return lostErr(err)
	}
	return ErrNoKV
}

func (c *Client) Append(record []byte) (uint64, error) {
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(record)))
	return c.callForU64(wireLogAppend, pre[:], record)
}

func (c *Client) Scan(from uint64) ([][]byte, error) {
	var enc encoder
	enc.u64(from)
	return c.callForFields(wireLogScan, enc.buf)
}

func (c *Client) Truncate(before uint64) error { return c.callU64(wireLogTruncate, before) }

func (c *Client) LastSeq() (uint64, error) { return c.callForU64(wireLogLastSeq, nil, nil) }

// encoder builds wire payloads.
type encoder struct {
	buf []byte
}

func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// appendFields appends a count and that many length-prefixed fields.
func appendFields(dst []byte, fs [][]byte) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(fs)))
	for _, f := range fs {
		e.bytes(f)
	}
	return e.buf
}

// decoder parses wire payloads.
type decoder struct {
	buf []byte
	err error
}

var (
	errShort    = errors.New("storage: short payload")
	errTrailing = errors.New("storage: trailing bytes after payload")
)

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

// end fails the decode with errTrailing when bytes are left: a mutation
// runs only once its whole frame has decoded, so a short or overlong frame
// is refused before it reaches the store.
func (d *decoder) end() error {
	if d.err == nil && len(d.buf) > 0 {
		d.err = errTrailing
	}
	return d.err
}

// onlyU64 decodes a payload that is exactly one u64 (end).
func (d *decoder) onlyU64() (uint64, error) {
	v := d.u64()
	return v, d.end()
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
// slots or log records) as copies the caller may keep (fill).
func (d *decoder) fields() [][]byte {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([][]byte, n)
	if d.fill(out, nil); d.err != nil {
		return nil
	}
	return out
}

// fill decodes len(out) length-prefixed fields into out: field i is copied
// into refs[i]'s destination when that holds it (refs may be nil), every
// other field into one exact-length buffer. A size pass over the prefixes,
// bounded by the payload, runs before anything is copied.
func (d *decoder) fill(out [][]byte, refs []SlotRef) {
	size := decoder{buf: d.buf, err: d.err}
	spare := 0
	for i := range out {
		n := len(size.view())
		if refs == nil || refs[i].into(n) == nil {
			spare += n
		}
	}
	if d.err = size.err; d.err != nil {
		return
	}
	buf := make([]byte, spare) // no allocation when every field has a destination
	for i := range out {
		f := d.view()
		var dst []byte
		if refs != nil {
			dst = refs[i].into(len(f))
		}
		if dst == nil {
			dst, buf = buf[:len(f):len(f)], buf[len(f):]
		}
		copy(dst, f)
		out[i] = dst
	}
}
