package clientproto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"obladi/internal/core"
	"obladi/internal/kvtxn"
)

// FailoverConfig tunes the failover-aware mux dialer.
type FailoverConfig struct {
	// Addrs lists the client endpoints of the primary and its standbys, in
	// preference order. Required.
	Addrs []string
	// MaxWait bounds the total time a Begin will spend redialing before
	// giving up; it should comfortably exceed the standby's lease timeout
	// so clients ride out a failover. Default 15s.
	MaxWait time.Duration
}

func (c *FailoverConfig) setDefaults() error {
	if len(c.Addrs) == 0 {
		return errors.New("clientproto: FailoverConfig.Addrs required")
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 15 * time.Second
	}
	return nil
}

// dialTimeout bounds one connection attempt; backoffMin..backoffMax bound the
// doubling redial backoff between sweeps of the address list.
const (
	dialTimeout = 500 * time.Millisecond
	backoffMin  = 25 * time.Millisecond
	backoffMax  = time.Second
)

// FailoverClient is a MuxClient facade over an address list: it keeps one
// live connection, and when that connection dies it redials across the list
// with bounded exponential backoff until a proxy (the old primary restarted,
// or a promoted standby) accepts. Transactions are session-scoped, so there
// is no mid-transaction migration: an in-flight transaction on a dead
// connection fails with a retryable abort (ErrConnLost wrapping
// kvtxn.ErrAborted) and the caller's retry loop replays it on the next
// Begin, which transparently lands on the new connection. A commit whose
// decision was lost fails with ErrCommitUnknown and is deliberately NOT
// retryable — that is the at-most-once half of the failover contract.
// BeginCtx's context bounds the redial as well as the transaction: once it
// ends, the redial stops and the transaction fails with its cause.
//
// A shed is not a lost connection: it reaches the caller as the retryable
// abort it is, on the same connection, and the retry loop that replays the
// transaction paces it (core.WaitShedBackoff).
type FailoverClient struct {
	cfg FailoverConfig

	mu     sync.Mutex
	cur    *MuxClient
	closed bool
}

// DialMuxFailover connects to the first reachable address and returns the
// failover client. The initial dial follows the same backoff/MaxWait policy
// as post-failure redials, so a client started during a failover window
// simply waits for promotion.
func DialMuxFailover(cfg FailoverConfig) (*FailoverClient, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	fc := &FailoverClient{cfg: cfg}
	if _, err := fc.client(context.Background()); err != nil {
		return nil, err
	}
	return fc, nil
}

// client returns the live connection, redialing if it is lost. One clock
// bounds a redial: a context ending at MaxWait or with ctx, whichever is
// first, bounds every dial and the backoff between sweeps. The redial gives
// up with ctx's cause if ctx ended, and names MaxWait otherwise.
func (fc *FailoverClient) client(ctx context.Context) (*MuxClient, error) {
	var wait context.Context // made by the first sweep
	backoff := backoffMin
	var lastErr error
	gaveUp := func() error {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return fmt.Errorf("clientproto: no proxy reachable within %v (last: %w)", fc.cfg.MaxWait, lastErr)
	}
	for {
		fc.mu.Lock()
		if fc.closed {
			fc.mu.Unlock()
			return nil, errors.New("clientproto: failover client closed")
		}
		if fc.cur != nil && !fc.cur.Lost() {
			c := fc.cur
			fc.mu.Unlock()
			return c, nil
		}
		fc.mu.Unlock()

		if wait == nil {
			var cancel context.CancelFunc
			wait, cancel = context.WithTimeout(ctx, fc.cfg.MaxWait)
			defer cancel()
		}
		for _, addr := range fc.cfg.Addrs {
			d, _ := wait.Deadline()
			timeout := min(dialTimeout, time.Until(d))
			if timeout <= 0 {
				<-wait.Done() // past its deadline: the context ends at once
			}
			if wait.Err() != nil {
				return nil, gaveUp()
			}
			c, err := dialMux(addr, timeout)
			if err != nil {
				lastErr = err
				continue
			}
			fc.mu.Lock()
			if fc.closed {
				fc.mu.Unlock()
				c.Close()
				return nil, errors.New("clientproto: failover client closed")
			}
			if fc.cur != nil && !fc.cur.Lost() {
				// A concurrent Begin won the redial race; use its connection.
				cur := fc.cur
				fc.mu.Unlock()
				c.Close()
				return cur, nil
			}
			fc.cur = c
			fc.mu.Unlock()
			return c, nil
		}
		// Jittered: a fleet of clients orphaned by the same failover must
		// not sweep the address list in lockstep.
		t := time.NewTimer(core.Jitter(backoff))
		select {
		case <-t.C:
		case <-wait.Done():
			t.Stop()
			return nil, gaveUp()
		}
		backoff = min(2*backoff, backoffMax)
	}
}

// Begin opens a transaction on the live connection (redialing first if
// needed). A dial failure surfaces on the transaction's operations.
func (fc *FailoverClient) Begin() *MuxTxn { return fc.BeginCtx(context.Background()) }

// BeginCtx is Begin with a context, which also bounds the redial.
func (fc *FailoverClient) BeginCtx(ctx context.Context) *MuxTxn {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := fc.client(ctx)
	if err != nil {
		// A txn whose sends all fail with the dial error: operations and
		// Commit surface it, and it is not "session settled" — the caller
		// sees the real reason redialing gave up.
		return &MuxTxn{ctx: ctx, sendErr: err}
	}
	return c.BeginCtx(ctx)
}

// Lost reports whether the client currently holds no live connection (the
// next Begin will redial across the address list).
func (fc *FailoverClient) Lost() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.cur == nil || fc.cur.Lost()
}

// Close closes the live connection and stops redialing.
func (fc *FailoverClient) Close() error {
	fc.mu.Lock()
	fc.closed = true
	c := fc.cur
	fc.cur = nil
	fc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// FailoverDB adapts a FailoverClient to kvtxn.DB so workload suites run
// unchanged across a failover.
type FailoverDB struct {
	C *FailoverClient
}

var (
	_ kvtxn.DB    = FailoverDB{}
	_ kvtxn.CtxDB = FailoverDB{}
)

// Begin implements kvtxn.DB.
func (d FailoverDB) Begin() kvtxn.Txn { return d.C.Begin() }

// BeginCtx implements kvtxn.CtxDB.
func (d FailoverDB) BeginCtx(ctx context.Context) kvtxn.Txn { return d.C.BeginCtx(ctx) }

// Close implements kvtxn.DB.
func (d FailoverDB) Close() error { return d.C.Close() }
