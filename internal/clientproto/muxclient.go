package clientproto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"obladi/internal/core"
	"obladi/internal/kvtxn"
	"obladi/internal/slab"
	"obladi/internal/wire"
)

var (
	// ErrConnLost marks an operation that failed because the connection
	// died before the server acted on it (or before we learned it did).
	// Pre-commit it also wraps kvtxn.ErrAborted: the transaction's session
	// died with the connection, nothing of it can commit, and the caller's
	// retry loop may safely replay it — against a failover peer if one is
	// configured.
	ErrConnLost = errors.New("clientproto: connection lost")
	// ErrCommitUnknown means the COMMIT frame was fully sent but the
	// connection died before the decision arrived. The server may have
	// committed; at-most-once acknowledgement demands this NOT be
	// retryable, so it deliberately does not wrap kvtxn.ErrAborted —
	// blindly replaying could double-apply the transaction. Callers must
	// re-read to learn the outcome (or use naturally idempotent writes).
	ErrCommitUnknown = errors.New("clientproto: commit outcome unknown (connection lost after COMMIT was sent)")
)

// MuxClient speaks the multiplexed protocol: many concurrent transaction
// sessions over one TCP connection, requests pipelined without waiting for
// replies. It is safe for concurrent use; each MuxTxn it hands out follows
// the kvtxn.Txn contract (single goroutine, though read futures may be
// resolved from others).
type MuxClient struct {
	wc *wire.Client

	mu          sync.Mutex
	nextSession uint32
	// txns hands out transactions, sixteen to an allocation, under mu. A
	// chunk is never reused, so a settled MuxTxn kept by its caller keeps
	// answering from its own memory (slab's escape rule) — and keeps the
	// chunk's 15 other transactions and their results alive with it.
	txns slab.Chunked[MuxTxn]

	// vals carves read values out of their reply frames for the caller.
	vals carver
}

// DialMux connects to a proxy server and opens the protocol, failing after
// wire.DialTimeout when the proxy does not answer.
func DialMux(addr string) (*MuxClient, error) { return dialMux(addr, 0) }

// dialMux is DialMux with an explicit connect timeout (0 selects
// wire.DialTimeout).
func dialMux(addr string, timeout time.Duration) (*MuxClient, error) {
	conn, err := wire.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("clientproto: dial %s: %w", addr, err)
	}
	if _, err := conn.Write([]byte(muxMagic)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("clientproto: sending magic: %w", err)
	}
	return &MuxClient{wc: wire.NewClient(conn, muxMaxFrame, &frames)}, nil
}

// Close closes the connection; pending operations fail with a
// connection-lost error.
func (c *MuxClient) Close() error { return c.wc.Close() }

// send writes one request frame, whose payload is key — or, for a WRITE,
// klen(u32) | key | value — written behind the header from where it lies. The
// returned channel delivers the reply (or closes on connection loss);
// wire.Recv is how it is read.
func (c *MuxClient) send(kind frameKind, session, req uint32, key string, value []byte) (chan *wire.Buf, error) {
	var klen [4]byte
	var pre []byte
	if kind == frameWrite {
		binary.BigEndian.PutUint32(klen[:], uint32(len(key)))
		pre = klen[:]
	}
	ch, err := c.wc.Send(uint8(kind), muxID(session, req), pre, key, value)
	switch {
	case err == nil:
		return ch, nil
	case errors.Is(err, wire.ErrClosed) || errors.Is(err, wire.ErrTooLarge):
		return nil, fmt.Errorf("clientproto: %w", err)
	}
	// The connection is dead and this frame was never sent, or at worst sent
	// torn, which the server cannot act on: the operation is as retryable as
	// any pre-commit loss.
	return nil, fmt.Errorf("%w: %v: %w", ErrConnLost, err, kvtxn.ErrAborted)
}

// Lost reports whether the client's connection has failed or been closed;
// the failover dialer uses it to decide when to redial.
func (c *MuxClient) Lost() bool { return c.wc.Err() != nil }

// connLost reports the connection-level error behind a closed reply channel.
// It wraps both ErrConnLost and kvtxn.ErrAborted: an operation that never
// got its reply died with its session, so before the commit point it is
// safely retryable (Commit reclassifies its own losses as ErrCommitUnknown).
func (c *MuxClient) connLost() error {
	return fmt.Errorf("%w: %v: %w", ErrConnLost, c.wc.Err(), kvtxn.ErrAborted)
}

// replyError converts a reply frame into the operation's error result,
// reconstructing retryable aborts so errors.Is(err, kvtxn.ErrAborted) holds
// across the wire — and load-sheds so errors.Is(err, core.ErrShed) does too,
// letting the client back off instead of retrying hot, and boundary-window
// refusals (core.ErrBoundaryWindow), which call for an immediate retry.
func (c *MuxClient) replyError(f frame) error {
	switch f.kind {
	case frameOK:
		return nil
	case frameErr:
		code, msg, err := parseErrPayload(f.payload)
		if err != nil {
			return fmt.Errorf("clientproto: malformed error reply")
		}
		switch code {
		case errCodeAborted:
			return fmt.Errorf("%w: %s", kvtxn.ErrAborted, msg)
		case errCodeShed:
			return fmt.Errorf("%w: %w: %s", kvtxn.ErrAborted, core.ErrShed, msg)
		case errCodeBoundary:
			return fmt.Errorf("%w: %w: %s", kvtxn.ErrAborted, core.ErrBoundaryWindow, msg)
		}
		return fmt.Errorf("clientproto: %s", msg)
	default:
		return fmt.Errorf("clientproto: unexpected reply kind %d", f.kind)
	}
}

// Begin opens a new transaction session. The BEGIN frame is pipelined like
// every other request: Begin does not wait for the server's ack, which is
// collected with the other outstanding acks at Commit/Abort.
func (c *MuxClient) Begin() *MuxTxn {
	return c.BeginCtx(context.Background())
}

// BeginCtx is Begin with a context applied to every wait the transaction
// performs (read futures, commit).
func (c *MuxClient) BeginCtx(ctx context.Context) *MuxTxn {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	c.nextSession++
	id := c.nextSession
	t := c.txns.New()
	c.mu.Unlock()
	t.c, t.session, t.ctx = c, id, ctx
	t.pend = t.pendBuf[:0]
	t.enqueue(frameBegin, "", nil, "begin")
	return t
}

// muxInline is how many op futures, pending acks and read futures a MuxTxn
// carries inline; a transaction past it allocates each further one.
const muxInline = 4

// MuxTxn is one multiplexed transaction session. Its first muxInline op
// futures, pending acks and read futures are part of it: a transaction of a
// few operations is one object.
type MuxTxn struct {
	c       *MuxClient
	session uint32
	ctx     context.Context
	nextReq uint32
	// pend holds the acks of pipelined mutations (begin/write/delete) not
	// yet collected; Commit and Abort drain it.
	pend    []*MuxAck
	settled bool
	sendErr error

	ops          [muxInline]MuxAck
	reads        [muxInline]MuxFuture
	pendBuf      [muxInline]*MuxAck
	nops, nreads int
}

// newOp returns the transaction's next op future.
func (t *MuxTxn) newOp(op string) *MuxAck {
	var f *MuxAck
	if t.nops < len(t.ops) {
		f = &t.ops[t.nops]
	} else {
		f = new(MuxAck)
	}
	t.nops++
	f.t, f.op = t, op
	return f
}

// newRead returns the transaction's next read future.
func (t *MuxTxn) newRead() *MuxFuture {
	var f *MuxFuture
	if t.nreads < len(t.reads) {
		f = &t.reads[t.nreads]
	} else {
		f = new(MuxFuture)
	}
	t.nreads++
	f.t = t
	return f
}

// enqueue sends one request frame and tracks its ack as a MuxAck.
func (t *MuxTxn) enqueue(kind frameKind, key string, value []byte, op string) *MuxAck {
	t.nextReq++
	f := t.newOp(op)
	if t.sendErr != nil {
		f.done, f.err = true, t.sendErr
		return f
	}
	ch, err := t.c.send(kind, t.session, t.nextReq, key, value)
	if err != nil {
		t.sendErr = err
		f.done, f.err = true, err
		return f
	}
	f.ch = ch
	t.pend = append(t.pend, f)
	return f
}

// MuxAck is the pending ack of a pipelined mutation.
type MuxAck struct {
	t  *MuxTxn
	op string
	ch chan *wire.Buf

	mu   sync.Mutex
	done bool
	err  error
}

// Wait blocks until the operation's ack arrives or ctx is done (nil means
// the transaction's context). It is idempotent; Commit/Abort call it for
// every ack the caller didn't collect.
func (f *MuxAck) Wait(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return f.err
	}
	if ctx == nil {
		ctx = f.t.ctx
	}
	b, ok, err := wire.Recv(ctx, f.ch)
	if err != nil {
		// The ack may still arrive; the future stays pending so a later
		// drain can collect it.
		return err
	}
	f.done = true
	if !ok {
		f.err = f.t.c.connLost()
	} else {
		f.err = f.t.c.replyError(frameOf(b))
		wire.Put(b)
	}
	return f.err
}

// MuxFuture is a pending read result.
type MuxFuture struct {
	t  *MuxTxn
	ch chan *wire.Buf

	mu    sync.Mutex
	done  bool
	value []byte
	found bool
	err   error
}

// Wait blocks until the read's batch executes server-side and the reply
// arrives, or ctx is done (nil means the transaction's context).
func (f *MuxFuture) Wait(ctx context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return f.value, f.found, f.err
	}
	if ctx == nil {
		ctx = f.t.ctx
	}
	if f.ch == nil {
		f.done = true
		f.err = f.t.sendErrOrLost()
		return nil, false, f.err
	}
	b, ok, err := wire.Recv(ctx, f.ch)
	if err != nil {
		return nil, false, err
	}
	f.done = true
	if !ok {
		f.err = f.t.c.connLost()
		return nil, false, f.err
	}
	reply := frameOf(b)
	if reply.kind == frameOK {
		// The parsed value aliases the reply's pooled buffer; carve it out
		// before the buffer goes back to the pool (the future's result
		// outlives the frame).
		var v []byte
		v, f.found, f.err = parseReadOKPayload(reply.payload)
		f.value = f.t.c.vals.copy(v)
	} else {
		f.err = f.t.c.replyError(reply)
	}
	reply.release()
	return f.value, f.found, f.err
}

func (t *MuxTxn) sendErrOrLost() error {
	if t.sendErr != nil {
		return t.sendErr
	}
	return t.c.connLost()
}

// ReadAsync pipelines a READ frame and returns its future immediately: a
// transaction can put its whole read set on the wire before the first batch
// fires, and the server packs the reads into the same batch.
func (t *MuxTxn) ReadAsync(key string) kvtxn.ReadFuture {
	if t.settled {
		// A settled transaction may be a stale handle used from several
		// goroutines: answer without touching it.
		return &MuxFuture{t: t, done: true, err: fmt.Errorf("%w: session settled", kvtxn.ErrAborted)}
	}
	f := t.newRead()
	if t.sendErr != nil {
		f.done, f.err = true, t.sendErr
		return f
	}
	t.nextReq++
	ch, err := t.c.send(frameRead, t.session, t.nextReq, key, nil)
	if err != nil {
		t.sendErr = err
		f.done, f.err = true, err
		return f
	}
	f.ch = ch
	return f
}

// Read fetches one key, blocking until its batch executes.
func (t *MuxTxn) Read(key string) ([]byte, bool, error) {
	return t.ReadAsync(key).Wait(t.ctx)
}

// ReadMany pipelines all keys, sharing one read batch server-side.
func (t *MuxTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	futures := make([]kvtxn.ReadFuture, len(keys))
	for i, k := range keys {
		futures[i] = t.ReadAsync(k)
	}
	out := make([]kvtxn.Value, len(keys))
	for i, f := range futures {
		v, found, err := f.Wait(t.ctx)
		if err != nil {
			return nil, err
		}
		out[i] = kvtxn.Value{Key: keys[i], Value: v, Found: found}
	}
	return out, nil
}

// WriteAsync pipelines a WRITE frame; the returned future carries the ack.
func (t *MuxTxn) WriteAsync(key string, value []byte) *MuxAck {
	if t.settled {
		return &MuxAck{t: t, op: "write", done: true, err: fmt.Errorf("%w: session settled", kvtxn.ErrAborted)}
	}
	return t.enqueue(frameWrite, key, value, "write")
}

// Write pipelines a write without waiting for its ack; a failure surfaces on
// WriteAsync's future, at Commit, or both.
func (t *MuxTxn) Write(key string, value []byte) error {
	f := t.WriteAsync(key, value)
	if f.done {
		return f.err
	}
	return nil
}

// DeleteAsync pipelines a DELETE frame; the returned future carries the ack.
func (t *MuxTxn) DeleteAsync(key string) *MuxAck {
	if t.settled {
		return &MuxAck{t: t, op: "delete", done: true, err: fmt.Errorf("%w: session settled", kvtxn.ErrAborted)}
	}
	return t.enqueue(frameDelete, key, nil, "delete")
}

// Delete pipelines a delete without waiting for its ack.
func (t *MuxTxn) Delete(key string) error {
	f := t.DeleteAsync(key)
	if f.done {
		return f.err
	}
	return nil
}

// Commit pipelines the COMMIT frame, then collects every outstanding ack and
// the commit decision. The first failed mutation's error wins (the server
// aborted the transaction at that op); otherwise Commit returns the epoch's
// decision.
func (t *MuxTxn) Commit() error {
	if t.settled {
		return fmt.Errorf("%w: session settled", kvtxn.ErrAborted)
	}
	t.settled = true
	if t.sendErr != nil {
		return t.sendErr
	}
	t.nextReq++
	ch, err := t.c.send(frameCommit, t.session, t.nextReq, "", nil)
	if err != nil {
		return err
	}
	var firstErr error
	for _, f := range t.pend {
		if err := f.Wait(t.ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", f.op, err)
		}
	}
	t.pend = nil
	// From here the COMMIT frame is fully on the wire, so a connection loss
	// no longer proves the transaction didn't commit. A server-REPORTED
	// abort (an error reply that arrived) is still an authoritative decision
	// and stays retryable; a conn-loss error is not a decision at all and
	// must surface as ErrCommitUnknown — at-most-once acknowledgement.
	lostAck := firstErr != nil && errors.Is(firstErr, ErrConnLost)
	b, ok, err := wire.Recv(t.ctx, ch)
	if err != nil {
		return fmt.Errorf("%w: %v while awaiting decision", ErrCommitUnknown, err)
	}
	if !ok {
		if firstErr != nil && !lostAck {
			return firstErr
		}
		return fmt.Errorf("%w: %v", ErrCommitUnknown, t.c.connLost())
	}
	err = t.c.replyError(frameOf(b))
	wire.Put(b)
	if err != nil {
		if firstErr != nil && !lostAck {
			return firstErr
		}
		return err
	}
	if lostAck {
		// The decision arrived, so earlier acks on the same ordered stream
		// must have too; a lost ack with a received decision means the
		// decision governs.
		return nil
	}
	return firstErr
}

// Abort pipelines the ABORT frame and collects the outstanding acks,
// discarding their errors (the transaction is being thrown away).
func (t *MuxTxn) Abort() {
	if t.settled {
		return
	}
	t.settled = true
	if t.sendErr != nil {
		return
	}
	t.nextReq++
	ch, err := t.c.send(frameAbort, t.session, t.nextReq, "", nil)
	if err != nil {
		return
	}
	for _, f := range t.pend {
		f.Wait(t.ctx)
	}
	t.pend = nil
	if b, ok, _ := wire.Recv(t.ctx, ch); ok {
		wire.Put(b)
	}
}

// MuxDB adapts a MuxClient to the kvtxn.DB interface so workload suites and
// benchmarks run unchanged over the multiplexed wire.
type MuxDB struct {
	C *MuxClient
}

var (
	_ kvtxn.DB       = MuxDB{}
	_ kvtxn.CtxDB    = MuxDB{}
	_ kvtxn.AsyncTxn = (*MuxTxn)(nil)
)

// Begin implements kvtxn.DB.
func (d MuxDB) Begin() kvtxn.Txn { return d.C.Begin() }

// BeginCtx implements kvtxn.CtxDB.
func (d MuxDB) BeginCtx(ctx context.Context) kvtxn.Txn { return d.C.BeginCtx(ctx) }

// Close implements kvtxn.DB.
func (d MuxDB) Close() error { return d.C.Close() }
