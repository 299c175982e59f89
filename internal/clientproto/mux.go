package clientproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"obladi/internal/core"
	"obladi/internal/kvtxn"
)

// This file is the server half of the multiplexed protocol: one goroutine
// reads frames off the connection and routes them to per-session workers;
// workers execute a session's operations in wire order, registering reads
// asynchronously so a pipelined read set lands in one batch; replies stream
// back whenever they complete, interleaved across sessions, serialized only
// by the shared write mutex.

// muxSessionQueue bounds the per-session op queue. A session ahead of its
// worker by more than this exerts back-pressure on the connection's read
// loop (clients are expected to pipeline one transaction's ops, not
// thousands).
const muxSessionQueue = 128

// muxConn is one connection: what its sessions share.
type muxConn struct {
	s    *Server
	conn net.Conn
	// ctx is cancelled when the connection dies, aborting every open
	// session's transaction and unblocking its waits.
	ctx context.Context

	// Replies from every session go through one writer, guarded by wmu.
	wmu sync.Mutex
	w   *bufio.Writer

	// vals carves the write values the engine keeps out of their frames.
	vals carver

	workers sync.WaitGroup
	// idle holds settled sessions for the next Begin to reuse, queue and
	// read waiters included: a session is a goroutine start, not a set of
	// allocations.
	idle sync.Pool
}

// muxSession is one transaction session multiplexed on a connection. Its
// worker (run) executes the session's operations in wire order and ends with
// the session's commit or abort; a session that settled goes back to the
// connection's idle pool.
type muxSession struct {
	c  *muxConn
	id uint32
	// ops queues the session's request frames as the pooled buffers they
	// were read into; the worker decodes each a second time, which costs
	// three loads — a queue of decoded frames is six times the size, and
	// idle sessions keep their queues.
	ops chan *frameBuf
	run func() // ms.work as a method value, made once: `go ms.run()` needs no closure

	// reads counts the session's resolving read futures; commit and abort
	// wait for it (a commit may not overtake the reads it depends on).
	reads sync.WaitGroup
	// waiters is both the pool of read waiters and the bound on how many
	// resolve at once: the worker takes one per read and blocks when
	// maxPendingReads are out, backpressuring the connection's
	// read loop through ops instead of growing goroutines (and their pending
	// replies) without bound. made counts the waiters created so far; only
	// the worker touches it.
	waiters chan *readWaiter
	made    int
}

// readWaiter resolves one read future on a goroutine of its own and sends
// the reply.
type readWaiter struct {
	ms  *muxSession
	req uint32
	fut kvtxn.ReadFuture
	run func() // w.wait as a method value, made once
}

// reply sends one reply frame; it is safe for concurrent use. The payload is
// the concatenation of p1 and p2 (either may be nil): read replies pass the
// status byte and the borrowed value slice separately so no intermediate
// payload is built. Payloads are fully written before reply returns.
func (c *muxConn) reply(kind frameKind, session, req uint32, p1, p2 []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.w.Write(appendHeader(c.w.AvailableBuffer(), kind, session, req, len(p1)+len(p2)))
	c.w.Write(p1)
	c.w.Write(p2)
	// A failed write sticks in the writer: Flush reports it.
	if c.w.Flush() != nil {
		c.conn.Close()
	}
}

func (c *muxConn) replyErr(f frame, code uint8, msg string) {
	c.reply(frameErr, f.session, f.req, encodeErrPayload(code, msg), nil)
}

// openSession starts session id's worker on an idle session or a new one.
func (c *muxConn) openSession(id uint32) *muxSession {
	ms, _ := c.idle.Get().(*muxSession)
	if ms == nil {
		ms = &muxSession{
			c:       c,
			ops:     make(chan *frameBuf, muxSessionQueue),
			waiters: make(chan *readWaiter, c.s.maxPendingReads),
		}
		ms.run = ms.work
	}
	ms.id = id
	c.s.openSessions.Add(1)
	c.workers.Add(1)
	go ms.run()
	return ms
}

// serveMux serves the protocol on one connection (magic already
// consumed).
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &muxConn{s: s, conn: conn, ctx: ctx, w: bufio.NewWriter(conn)}
	sessions := make(map[uint32]*muxSession)

	for {
		f, err := readMuxFrame(r)
		if err != nil {
			break
		}
		// Routed frames hand their pooled buffer to the session worker,
		// which releases it after the op; unrouted frames release here.
		ms, open := sessions[f.session]
		switch {
		case f.kind == frameBegin && open:
			c.replyErr(f, errCodeGeneric, "session already open")
		case f.kind == frameBegin && len(sessions) >= s.maxSessions:
			// Session cap: shed the Begin instead of growing the worker map
			// without bound. Retryable once earlier sessions settle.
			s.shedSessions.Add(1)
			c.replyErr(f, errCodeShed, fmt.Sprintf("connection session cap (%d) reached", s.maxSessions))
		case f.kind == frameBegin:
			ms = c.openSession(f.session)
			sessions[f.session] = ms
			ms.ops <- f.buf
			continue
		case f.kind < frameBegin || f.kind > frameAbort:
			c.replyErr(f, errCodeGeneric, fmt.Sprintf("unknown frame kind %d", f.kind))
		case !open:
			c.replyErr(f, errCodeGeneric, "no such session")
		default:
			if f.kind == frameCommit || f.kind == frameAbort {
				// The session ends with this op: frames for the id arriving
				// later (a client bug) get "no such session", never a stale
				// transaction. The worker ends after it.
				delete(sessions, f.session)
			}
			ms.ops <- f.buf
			continue
		}
		f.release()
	}
	// Connection teardown: cancel session transactions (unblocking batch and
	// commit waits), close the open sessions' queues so their workers drain
	// and end, and wait them out.
	cancel()
	for _, ms := range sessions {
		close(ms.ops)
	}
	c.workers.Wait()
	conn.Close()
}

// work executes one session's operations in wire order. Reads are registered
// asynchronously and resolved by waiters, so a pipelined read set shares one
// batch and the worker moves straight on to the next op; commit/abort wait
// for every outstanding read first. A refused WRITE or DELETE aborts the
// transaction there (ackMutation).
func (ms *muxSession) work() {
	c := ms.c
	tx := beginTxn(c.s.db, c.ctx)
	var refused error // why the transaction aborted at a refused mutation
	settled := false
	for fb := range ms.ops {
		f, _ := fb.frame() // decoded once already, by the connection's read loop
		switch {
		case f.kind == frameBegin:
			c.reply(frameOK, ms.id, f.req, nil, nil)
		case refused != nil && f.kind != frameAbort:
			settled = f.kind == frameCommit
			ms.replyAck(f.req, refused)
		case f.kind == frameRead:
			// string(f.payload) copies the key out of the pooled buffer in
			// both branches, so the frame releases at the loop bottom while
			// the read is still in flight.
			if atx, ok := tx.(kvtxn.AsyncTxn); ok {
				// Take a waiter first: at the cap the worker blocks here (not
				// the whole server — ops and the TCP window absorb the
				// stall), keeping the per-session goroutine count bounded.
				w := ms.waiter()
				w.req, w.fut = f.req, atx.ReadAsync(string(f.payload))
				ms.reads.Add(1)
				go w.run()
			} else {
				// Engines without asynchronous reads (the evaluation
				// baselines) execute the read inline: a kvtxn.Txn is
				// single-goroutine, so the worker may not run later ops
				// concurrently with a pending read. Sessions still
				// multiplex; only intra-session read pipelining is lost.
				v, found, err := tx.Read(string(f.payload))
				ms.replyRead(f.req, v, found, err)
			}
		case f.kind == frameWrite:
			key, value, err := parseWritePayload(f.payload)
			if err == nil {
				// The engine retains the value past the call (MVTSO buffers it
				// until the epoch's write batch), but value aliases the pooled
				// frame: carve it out before handing it over.
				err = tx.Write(key, c.vals.copy(value))
			}
			tx, refused = ms.ackMutation(tx, f.req, "write", err)
		case f.kind == frameDelete:
			tx, refused = ms.ackMutation(tx, f.req, "delete", tx.Delete(string(f.payload)))
		case f.kind == frameCommit:
			ms.reads.Wait()
			settled = true
			ms.replyAck(f.req, tx.Commit())
		case f.kind == frameAbort:
			ms.reads.Wait()
			settled = true
			if tx != nil {
				tx.Abort()
			}
			c.reply(frameOK, ms.id, f.req, nil, nil)
		}
		f.release()
		if settled {
			break
		}
	}
	if !settled && tx != nil {
		// Connection died with the session open: discard the transaction.
		ms.reads.Wait()
		tx.Abort()
	}
	c.s.openSessions.Add(-1)
	c.workers.Done()
	if settled {
		// Every waiter is back and the queue is empty (the connection routes
		// nothing to a session after its commit or abort); a session whose
		// queue was closed under it is not reusable.
		c.idle.Put(ms)
	}
}

// ackMutation answers a WRITE or DELETE. One the server refused — an engine
// error or a malformed payload — aborts the transaction: ackMutation returns
// a nil transaction and the error every later op of the session, COMMIT
// included, answers. That error keeps the refusal's classification: a
// conflict abort stays retryable, a bad value does not.
func (ms *muxSession) ackMutation(tx kvtxn.Txn, req uint32, op string, err error) (kvtxn.Txn, error) {
	if err == nil {
		ms.replyAck(req, nil)
		return tx, nil
	}
	ms.reads.Wait()
	tx.Abort()
	ms.replyAck(req, err)
	return nil, fmt.Errorf("transaction aborted at a refused %s: %w", op, err)
}

func (ms *muxSession) replyAck(req uint32, err error) {
	if err != nil {
		ms.c.reply(frameErr, ms.id, req, errReply(err), nil)
	} else {
		ms.c.reply(frameOK, ms.id, req, nil, nil)
	}
}

func (ms *muxSession) replyRead(req uint32, v []byte, found bool, err error) {
	if !found {
		v = nil
	}
	if err != nil {
		ms.c.reply(frameErr, ms.id, req, errReply(err), nil)
	} else {
		ms.c.reply(frameOK, ms.id, req, foundByte(found), v)
	}
}

// waiter takes a read waiter from the session's pool, creating one while
// fewer than the cap exist and blocking for one to come back otherwise.
func (ms *muxSession) waiter() *readWaiter {
	select {
	case w := <-ms.waiters:
		return w
	default:
	}
	if ms.made == cap(ms.waiters) {
		return <-ms.waiters
	}
	ms.made++
	w := &readWaiter{ms: ms}
	w.run = w.wait
	return w
}

// wait resolves the waiter's future, replies, and hands the waiter back.
func (w *readWaiter) wait() {
	ms := w.ms
	v, found, err := w.fut.Wait(ms.c.ctx)
	ms.replyRead(w.req, v, found, err)
	w.fut = nil
	// Back in the pool before the session may move on: once reads.Done lets
	// a commit through, the session can settle and be reused.
	ms.waiters <- w
	ms.reads.Done()
}

// beginTxn starts a transaction bound to ctx when the engine supports it.
func beginTxn(db kvtxn.DB, ctx context.Context) kvtxn.Txn {
	if cdb, ok := db.(kvtxn.CtxDB); ok {
		return cdb.BeginCtx(ctx)
	}
	return db.Begin()
}

// Static status-byte segments for read replies, found(u8) | value, written
// ahead of the value without building an intermediate payload.
var (
	replyFound    = []byte{1}
	replyNotFound = []byte{0}
)

// foundByte returns the read reply's status segment. A not-found reply
// carries no value bytes.
func foundByte(found bool) []byte {
	if found {
		return replyFound
	}
	return replyNotFound
}

// errReply encodes err as a frameErr payload, classifying retryable aborts
// so the client can reconstruct errors.Is(err, kvtxn.ErrAborted) across the
// wire. Load-sheds get their own code so the client can also reconstruct
// errors.Is(err, core.ErrShed) and back off instead of retrying hot;
// boundary-window refusals get theirs so the client knows not to.
func errReply(err error) []byte {
	code := errCodeGeneric
	switch {
	case errors.Is(err, core.ErrShed):
		code = errCodeShed
	case errors.Is(err, core.ErrBoundaryWindow):
		code = errCodeBoundary
	case errors.Is(err, kvtxn.ErrAborted) || errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrEpochFull):
		code = errCodeAborted
	}
	return encodeErrPayload(code, err.Error())
}
