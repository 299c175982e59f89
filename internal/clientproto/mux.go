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

// This file is the server half of the multiplexed v2 protocol: one goroutine
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

// muxSession is one transaction session multiplexed on a connection.
type muxSession struct {
	id  uint32
	ops chan frame
	// readSem bounds the session's concurrently-resolving read futures: the
	// worker acquires a slot before spawning a resolver goroutine and blocks
	// at the cap, backpressuring the connection's read loop through ops
	// instead of growing goroutines (and their pending replies) without
	// bound.
	readSem chan struct{}
}

// replyFunc sends one reply frame; it is safe for concurrent use. The
// payload is the concatenation of p1 and p2 (either may be nil): read
// replies pass the status byte and the borrowed value slice separately so no
// intermediate payload is built. Payloads are fully copied into the write
// buffer before replyFunc returns.
type replyFunc func(kind frameKind, session, req uint32, p1, p2 []byte)

// serveMux serves the v2 protocol on one connection (magic already
// consumed). ctx is cancelled when the connection dies, aborting every open
// session's transaction and unblocking its waits.
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	var wmu sync.Mutex
	w := bufio.NewWriter(conn)
	// wbuf is the connection's reply-encode scratch, guarded by wmu: replies
	// from any session reuse one buffer instead of allocating per frame.
	var wbuf []byte
	reply := func(kind frameKind, session, req uint32, p1, p2 []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		wbuf = appendFrame2(wbuf[:0], kind, session, req, p1, p2)
		if _, err := w.Write(wbuf); err != nil {
			conn.Close()
			return
		}
		if w.Flush() != nil {
			conn.Close()
		}
	}
	sessions := make(map[uint32]*muxSession)
	var workers sync.WaitGroup

	for {
		f, err := readMuxFrame(r)
		if err != nil {
			break
		}
		// Routed frames hand their pooled buffer to the session worker,
		// which releases it after the op; unrouted frames release here.
		switch f.kind {
		case frameBegin:
			if _, open := sessions[f.session]; open {
				reply(frameErr, f.session, f.req, encodeErrPayload(errCodeGeneric, "session already open"), nil)
				f.release()
				continue
			}
			if len(sessions) >= s.opt.MaxSessionsPerConn {
				// Session cap: shed the Begin instead of growing the worker
				// map without bound. Retryable once earlier sessions settle.
				s.shedSessions.Add(1)
				reply(frameErr, f.session, f.req, encodeErrPayload(errCodeShed,
					fmt.Sprintf("connection session cap (%d) reached", s.opt.MaxSessionsPerConn)), nil)
				f.release()
				continue
			}
			ms := &muxSession{
				id:      f.session,
				ops:     make(chan frame, muxSessionQueue),
				readSem: make(chan struct{}, s.opt.MaxPendingReadsPerSession),
			}
			sessions[f.session] = ms
			s.openSessions.Add(1)
			workers.Add(1)
			go func() {
				defer workers.Done()
				defer s.openSessions.Add(-1)
				s.runSession(ctx, ms, reply)
			}()
			ms.ops <- f
		case frameRead, frameWrite, frameDelete:
			ms, open := sessions[f.session]
			if !open {
				reply(frameErr, f.session, f.req, encodeErrPayload(errCodeGeneric, "no such session"), nil)
				f.release()
				continue
			}
			ms.ops <- f
		case frameCommit, frameAbort:
			ms, open := sessions[f.session]
			if !open {
				reply(frameErr, f.session, f.req, encodeErrPayload(errCodeGeneric, "no such session"), nil)
				f.release()
				continue
			}
			// The session ends with this op: frames for the id arriving
			// later (a client bug) get "no such session", never a stale
			// transaction. The worker drains the queue and exits.
			delete(sessions, f.session)
			ms.ops <- f
			close(ms.ops)
		default:
			reply(frameErr, f.session, f.req, encodeErrPayload(errCodeGeneric, fmt.Sprintf("unknown frame kind %d", f.kind)), nil)
			f.release()
		}
	}
	// Connection teardown: cancel session transactions (unblocking batch and
	// commit waits), close the queues so workers drain, and wait them out.
	cancel()
	for _, ms := range sessions {
		close(ms.ops)
	}
	workers.Wait()
	conn.Close()
}

// runSession executes one session's operations in wire order. Reads are
// registered asynchronously and resolved on side goroutines, so a pipelined
// read set shares one batch and the worker moves straight on to the next op;
// commit/abort wait for every outstanding read first (a commit may not
// overtake the reads it depends on).
func (s *Server) runSession(ctx context.Context, ms *muxSession, reply replyFunc) {
	tx := beginTxn(s.db, ctx)
	var reads sync.WaitGroup
	settled := false
	for f := range ms.ops {
		switch f.kind {
		case frameBegin:
			reply(frameOK, ms.id, f.req, nil, nil)
		case frameRead:
			// string(f.payload) copies the key out of the pooled buffer in
			// both branches, so the frame releases at the loop bottom while
			// the read is still in flight.
			if atx, ok := tx.(kvtxn.AsyncTxn); ok {
				// Acquire a resolver slot first: at the cap the worker blocks
				// here (not the whole server — ops and the TCP window absorb
				// the stall), keeping the per-session goroutine count bounded.
				ms.readSem <- struct{}{}
				fut := atx.ReadAsync(string(f.payload))
				reads.Add(1)
				go func(req uint32) {
					defer reads.Done()
					defer func() { <-ms.readSem }()
					v, found, err := fut.Wait(ctx)
					if !found {
						v = nil
					}
					if err != nil {
						reply(frameErr, ms.id, req, errReply(err), nil)
					} else {
						reply(frameOK, ms.id, req, foundByte(found), v)
					}
				}(f.req)
			} else {
				// Engines without asynchronous reads (the evaluation
				// baselines) execute the read inline: a kvtxn.Txn is
				// single-goroutine, so the worker may not run later ops
				// concurrently with a pending read. Sessions still
				// multiplex; only intra-session read pipelining is lost.
				v, found, err := tx.Read(string(f.payload))
				if !found {
					v = nil
				}
				if err != nil {
					reply(frameErr, ms.id, f.req, errReply(err), nil)
				} else {
					reply(frameOK, ms.id, f.req, foundByte(found), v)
				}
			}
		case frameWrite:
			key, value, err := parseWritePayload(f.payload)
			if err == nil {
				// The engine retains the value slice past the call (MVTSO
				// buffers it until the epoch's write batch), but value
				// aliases the pooled frame: copy before handing it over.
				err = tx.Write(key, append([]byte(nil), value...))
			}
			if err != nil {
				reply(frameErr, ms.id, f.req, errReply(err), nil)
			} else {
				reply(frameOK, ms.id, f.req, nil, nil)
			}
		case frameDelete:
			if err := tx.Delete(string(f.payload)); err != nil {
				reply(frameErr, ms.id, f.req, errReply(err), nil)
			} else {
				reply(frameOK, ms.id, f.req, nil, nil)
			}
		case frameCommit:
			reads.Wait()
			settled = true
			if err := tx.Commit(); err != nil {
				reply(frameErr, ms.id, f.req, errReply(err), nil)
			} else {
				reply(frameOK, ms.id, f.req, nil, nil)
			}
		case frameAbort:
			reads.Wait()
			settled = true
			tx.Abort()
			reply(frameOK, ms.id, f.req, nil, nil)
		}
		f.release()
	}
	if !settled {
		// Connection died with the session open: discard the transaction.
		reads.Wait()
		tx.Abort()
	}
}

// beginTxn starts a transaction bound to ctx when the engine supports it.
func beginTxn(db kvtxn.DB, ctx context.Context) kvtxn.Txn {
	if cdb, ok := db.(kvtxn.CtxDB); ok {
		return cdb.BeginCtx(ctx)
	}
	return db.Begin()
}

// Static status-byte segments for read replies (same wire format as
// encodeReadOKPayload, without building an intermediate payload).
var (
	replyFound    = []byte{1}
	replyNotFound = []byte{0}
)

// foundByte returns the read reply's status segment. A not-found reply
// carries no value bytes, matching encodeReadOKPayload.
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
