package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// bufs recycles the storage wire's frames, request encodings and response
// encodings, at both ends.
var bufs wire.Pool

// Server serves a Backend over TCP.
type Server struct {
	backend Backend
	srv     *wire.Server

	// fence is the served backend's proxy-generation register: fencing at
	// the wire covers any backend (disk groups included) without the backend
	// itself implementing Fenceable, and a zombie proxy's stale connection
	// is exactly the thing being fenced.
	fence fenceRegister
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
}

// scratch is a handler worker's vector scratch, reused request to request: a
// slot read's refs, and a bucket write's writes with the slot views they carry
// into the request frame.
type scratch struct {
	refs   []SlotRef
	writes []BucketWrite
	slots  [][]byte
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 1<<16)
	sc := &serverConn{s: s, conn: conn, w: bufio.NewWriterSize(conn, 1<<16), reqs: make(chan *wire.Buf)}
	defer sc.handlers.Wait()
	defer close(sc.reqs)
	sc.workers.Store(1)
	sc.handlers.Add(1)
	go sc.work(true)
	for {
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
	sc.wmu.Lock()
	err := wire.Write(sc.w, status, fb.ID(), nil, "", resp)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
	wire.Put(fb)
	if resp != nil {
		// Keep whichever backing the handler ended up with (error strings
		// included — any byte slice is a fine future frame).
		rb.B = resp[:0]
	}
	wire.Put(rb)
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

// handle executes one request. The payload may alias a pooled frame: bucket
// writes reach the backend as views of it (a store copies what it keeps), log
// records as copies (copyBytes), so the caller may release the frame as soon
// as handle returns. Read replies are encoded through
// encodeSlotsFrom/encodeBucketFrom, under the store's read lock when it
// reuses retired versions' bytes. Vectors decode into the worker's
// scratch hs, and the response is appended to out[:0].
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
		token := s.fence.acquire()
		cs.setToken(token)
		enc.u64(token)
	case wireReadBucket:
		bucket := int(d.u32())
		if d.err != nil {
			return fail(d.err)
		}
		var err error
		if enc.buf, err = encodeBucketFrom(s.backend, enc.buf, bucket); err != nil {
			return fail(err)
		}
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
		if enc.buf, err = encodeSlotsFrom(s.backend, enc.buf, refs); err != nil {
			return fail(err)
		}
	case wireWriteBuckets:
		n := d.count(16)
		writes, views := hs.writes[:0], hs.slots[:0]
		for i := 0; i < n && d.err == nil; i++ {
			w := BucketWrite{Bucket: int(d.u32()), Epoch: d.u64()}
			at := len(views)
			views = d.views(views)
			// A later append may move views; this write's table stays valid
			// where it is.
			w.Slots = views[at:len(views):len(views)]
			writes = append(writes, w)
		}
		var err error
		if d.err != nil {
			err = fmt.Errorf("storage: bad write-buckets frame: %w", d.err)
		} else {
			err = s.backend.WriteBuckets(writes)
		}
		// The views die with the request frame: the scratch keeps its
		// arrays but pins no frame.
		clear(writes)
		clear(views)
		hs.writes, hs.slots = writes[:0], views[:0]
		if err != nil {
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

// Client is a Backend implemented against a remote Server. It is safe for
// concurrent use; concurrent calls are pipelined over a single connection.
type Client struct {
	wc     *wire.Client
	nextID atomic.Uint64
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
	rq := bufs.Get(0)
	enc := encoder{buf: rq.B}
	enc.u32(uint32(len(refs)))
	for _, r := range refs {
		enc.u32(uint32(r.Bucket))
		enc.u32(uint32(r.Slot))
	}
	data, err := c.callForFields(wireReadSlots, enc.buf)
	rq.B = enc.buf
	wire.Put(rq)
	if err == nil && len(data) != len(refs) {
		err = fmt.Errorf("storage: bad read-slots response (%d results for %d refs)", len(data), len(refs))
	}
	return data, err
}

// callForFields performs an op whose reply is a vector of byte fields (slots,
// log records), copied out of the pooled reply frame into one arena: two
// allocations per call instead of one per field.
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
	rq := bufs.Get(size)
	enc := encoder{buf: rq.B}
	enc.u32(uint32(len(writes)))
	for _, w := range writes {
		enc.bucket(w.Bucket, w.Epoch, w.Slots)
	}
	resp, err := c.call(wireWriteBuckets, nil, enc.buf)
	wire.Put(resp)
	wire.Put(rq)
	return err
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

// bucket encodes one written bucket: bucket, epoch, slot count, slots.
func (e *encoder) bucket(bucket int, epoch uint64, slots [][]byte) {
	e.u32(uint32(bucket))
	e.u64(epoch)
	e.u32(uint32(len(slots)))
	for _, s := range slots {
		e.bytes(s)
	}
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

// onlyU64 decodes a payload that is exactly one u64: a mutation carrying
// one runs only once the whole frame has decoded, so a short or overlong
// frame is refused before it reaches the store.
func (d *decoder) onlyU64() (uint64, error) {
	v := d.u64()
	if d.err == nil && len(d.buf) > 0 {
		d.err = errTrailing
	}
	return v, d.err
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

// views decodes a count and that many length-prefixed fields as views of the
// decoder's buffer, appended to dst: nothing is copied, so they are dead when
// the frame is. The server hands a write's slots to its store this way.
func (d *decoder) views(dst [][]byte) [][]byte {
	n := d.count(4)
	for i := 0; i < n && d.err == nil; i++ {
		dst = append(dst, d.view())
	}
	return dst
}

// fields decodes a count and that many length-prefixed fields (a read reply's
// slots or log records) into one arena the caller may keep: a size pass over
// the prefixes bounded by the payload, one exactly-sized allocation,
// capacity-clipped subslices.
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
