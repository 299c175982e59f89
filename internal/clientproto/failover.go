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
// doubling redial backoff between sweeps of the address list, and the
// doubling shed pacing.
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
type FailoverClient struct {
	cfg FailoverConfig

	mu     sync.Mutex
	cur    *MuxClient
	closed bool

	// Shed pacing: when the primary is overloaded (not dead) it answers
	// with retryable sheds, and a retry loop that replays immediately turns
	// one saturated epoch into a retry storm that keeps it saturated.
	// noteShed arms a jittered, exponentially-growing pause that the next
	// Begin serves out; noteOK disarms it. Guarded by shedMu (not mu: a
	// paced Begin must not block connection management).
	shedMu      sync.Mutex
	shedBackoff time.Duration
	shedUntil   time.Time
}

// noteShed records a server load-shed: the next Begin waits out a jittered
// backoff that doubles with consecutive sheds (backoffMin..backoffMax).
func (fc *FailoverClient) noteShed() {
	fc.shedMu.Lock()
	defer fc.shedMu.Unlock()
	if fc.shedBackoff == 0 {
		fc.shedBackoff = backoffMin
	} else {
		fc.shedBackoff = min(2*fc.shedBackoff, backoffMax)
	}
	fc.shedUntil = time.Now().Add(core.Jitter(fc.shedBackoff))
}

// noteOK records a successfully-settled transaction, disarming shed pacing.
func (fc *FailoverClient) noteOK() {
	fc.shedMu.Lock()
	fc.shedBackoff = 0
	fc.shedUntil = time.Time{}
	fc.shedMu.Unlock()
}

// shedWait serves out any armed shed backoff (or returns early when ctx
// ends; the caller's Begin then carries ctx's cancellation anyway).
func (fc *FailoverClient) shedWait(ctx context.Context) {
	fc.shedMu.Lock()
	until := fc.shedUntil
	fc.shedMu.Unlock()
	d := time.Until(until)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
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
	if _, err := fc.client(); err != nil {
		return nil, err
	}
	return fc, nil
}

// client returns the live connection, redialing if it is lost.
func (fc *FailoverClient) client() (*MuxClient, error) {
	backoff := backoffMin
	deadline := time.Now().Add(fc.cfg.MaxWait)
	var lastErr error
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

		for _, addr := range fc.cfg.Addrs {
			c, err := dialMux(addr, dialTimeout)
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
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("clientproto: no proxy reachable within %v (last: %w)", fc.cfg.MaxWait, lastErr)
		}
		// Jittered: a fleet of clients orphaned by the same failover must
		// not sweep the address list in lockstep.
		time.Sleep(core.Jitter(backoff))
		backoff = min(2*backoff, backoffMax)
	}
}

// Begin opens a transaction on the live connection (redialing first if
// needed). A dial failure surfaces on the transaction's operations.
func (fc *FailoverClient) Begin() *MuxTxn { return fc.BeginCtx(context.Background()) }

// BeginCtx is Begin with a context.
func (fc *FailoverClient) BeginCtx(ctx context.Context) *MuxTxn {
	c, err := fc.client()
	if err != nil {
		if ctx == nil {
			ctx = context.Background()
		}
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
// unchanged across a failover. It also carries the shed-pacing half of
// overload control: a transaction that dies with a load-shed (core.ErrShed
// across the wire) arms a jittered backoff that the next Begin waits out, so
// generic retry loops — which see sheds as ordinary retryable aborts — pace
// themselves instead of hammering a saturated proxy.
type FailoverDB struct {
	C *FailoverClient
}

var (
	_ kvtxn.DB    = FailoverDB{}
	_ kvtxn.CtxDB = FailoverDB{}
)

// Begin implements kvtxn.DB.
func (d FailoverDB) Begin() kvtxn.Txn { return d.BeginCtx(context.Background()) }

// BeginCtx implements kvtxn.CtxDB.
func (d FailoverDB) BeginCtx(ctx context.Context) kvtxn.Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	d.C.shedWait(ctx)
	return &pacedTxn{t: d.C.BeginCtx(ctx), fc: d.C}
}

// Close implements kvtxn.DB.
func (d FailoverDB) Close() error { return d.C.Close() }

// pacedTxn observes a transaction's outcome for shed pacing: sheds arm the
// client's backoff, a clean settle disarms it. Everything else passes
// through to the underlying MuxTxn, including read pipelining.
type pacedTxn struct {
	t  *MuxTxn
	fc *FailoverClient
}

var _ kvtxn.AsyncTxn = (*pacedTxn)(nil)

// observe routes a settled outcome into the pacing state.
func (p *pacedTxn) observe(err error) error {
	switch {
	case err == nil:
		p.fc.noteOK()
	case errors.Is(err, core.ErrShed):
		p.fc.noteShed()
	}
	return err
}

func (p *pacedTxn) Read(key string) ([]byte, bool, error) {
	v, found, err := p.t.Read(key)
	if err != nil && errors.Is(err, core.ErrShed) {
		p.fc.noteShed()
	}
	return v, found, err
}

// ReadAsync implements kvtxn.AsyncTxn.
func (p *pacedTxn) ReadAsync(key string) kvtxn.ReadFuture {
	return pacedFuture{f: p.t.ReadAsync(key), fc: p.fc}
}

type pacedFuture struct {
	f  kvtxn.ReadFuture
	fc *FailoverClient
}

func (pf pacedFuture) Wait(ctx context.Context) ([]byte, bool, error) {
	v, found, err := pf.f.Wait(ctx)
	if err != nil && errors.Is(err, core.ErrShed) {
		pf.fc.noteShed()
	}
	return v, found, err
}

func (p *pacedTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	out, err := p.t.ReadMany(keys)
	if err != nil && errors.Is(err, core.ErrShed) {
		p.fc.noteShed()
	}
	return out, err
}

func (p *pacedTxn) Write(key string, value []byte) error { return p.t.Write(key, value) }

func (p *pacedTxn) Delete(key string) error { return p.t.Delete(key) }

func (p *pacedTxn) Commit() error { return p.observe(p.t.Commit()) }

func (p *pacedTxn) Abort() { p.t.Abort() }
