// Package kvtxn defines the transactional key-value interface shared by
// Obladi and the evaluation baselines (NoPriv, 2PL). The application
// workloads (TPC-C, SmallBank, FreeHealth, YCSB) are written against these
// interfaces so every engine runs the identical business logic.
package kvtxn

import (
	"context"
	"errors"

	"obladi/internal/core"
)

// ErrAborted is the engine-independent abort signal. Engines wrap their own
// abort errors so errors.Is(err, ErrAborted) holds.
var ErrAborted = errors.New("kvtxn: transaction aborted")

// DB is a transactional key-value store.
type DB interface {
	// Begin starts a transaction.
	Begin() Txn
	// Close releases the engine.
	Close() error
}

// Txn is a single-goroutine transaction handle.
type Txn interface {
	// Read returns the visible value of key.
	Read(key string) (value []byte, found bool, err error)
	// ReadMany reads independent keys, batching fetches where the engine
	// supports it. Results are parallel to keys.
	ReadMany(keys []string) ([]Value, error)
	// Write stores value under key.
	Write(key string, value []byte) error
	// Delete removes key.
	Delete(key string) error
	// Commit makes the transaction durable; a nil result is a durable
	// commit acknowledgment.
	Commit() error
	// Abort discards the transaction.
	Abort()
}

// Value is one ReadMany result.
type Value struct {
	Key   string
	Value []byte
	Found bool
}

// CtxDB is the optional DB extension for engines whose transactions honor a
// context: cancellation aborts the transaction and unblocks its waits. The
// protocol server uses it to tie a wire session's transactions to the
// connection's lifetime.
type CtxDB interface {
	DB
	// BeginCtx starts a transaction bound to ctx.
	BeginCtx(ctx context.Context) Txn
}

// ReadFuture is a pending asynchronous read.
type ReadFuture interface {
	// Wait blocks until the read resolves or ctx is done. A nil ctx means
	// the transaction's own context (so futures of a context-bound
	// transaction stay cancellable without re-threading the context).
	Wait(ctx context.Context) (value []byte, found bool, err error)
}

// AsyncTxn is the optional Txn extension for engines that can register a
// read without blocking, so a pipelined caller (one wire session worker, say)
// can issue a transaction's whole read set before the first batch fires.
// Futures may be resolved from goroutines other than the transaction's.
type AsyncTxn interface {
	Txn
	// ReadAsync registers a read and returns immediately.
	ReadAsync(key string) ReadFuture
}

// Proxy is what ProxyDB serves: a *core.Proxy, or the public *obladi.DB
// over one, whose Close also closes its storage backends.
type Proxy interface {
	Begin() *core.Txn
	BeginCtx(ctx context.Context) *core.Txn
	Close() error
}

// ProxyDB adapts the Obladi proxy to the DB interface. It wraps the proxy's
// aborts in ErrAborted, so engine-independent retry loops recognize them.
type ProxyDB struct {
	P Proxy
}

var (
	_ DB    = ProxyDB{}
	_ CtxDB = ProxyDB{}
)

// Begin implements DB.
func (d ProxyDB) Begin() Txn { return &proxyTxn{t: d.P.Begin()} }

// BeginCtx implements CtxDB.
func (d ProxyDB) BeginCtx(ctx context.Context) Txn { return &proxyTxn{t: d.P.BeginCtx(ctx)} }

// Close implements DB.
func (d ProxyDB) Close() error { return d.P.Close() }

type proxyTxn struct {
	t *core.Txn
}

var _ AsyncTxn = (*proxyTxn)(nil)

func (p *proxyTxn) Read(key string) ([]byte, bool, error) {
	v, found, err := p.t.Read(key)
	return v, found, wrapAbort(err)
}

// ReadAsync implements AsyncTxn.
func (p *proxyTxn) ReadAsync(key string) ReadFuture {
	return proxyFuture{f: p.t.ReadAsync(key)}
}

type proxyFuture struct {
	f *core.Future
}

func (pf proxyFuture) Wait(ctx context.Context) ([]byte, bool, error) {
	v, found, err := pf.f.Wait(ctx)
	return v, found, wrapAbort(err)
}

func (p *proxyTxn) ReadMany(keys []string) ([]Value, error) {
	res, err := p.t.ReadMany(keys)
	if err != nil {
		return nil, wrapAbort(err)
	}
	out := make([]Value, len(res))
	for i, r := range res {
		out[i] = Value{Key: r.Key, Value: r.Value, Found: r.Found}
	}
	return out, nil
}

func (p *proxyTxn) Write(key string, value []byte) error {
	return wrapAbort(p.t.Write(key, value))
}

func (p *proxyTxn) Delete(key string) error {
	return wrapAbort(p.t.Delete(key))
}

func (p *proxyTxn) Commit() error { return wrapAbort(p.t.Commit()) }

func (p *proxyTxn) Abort() { p.t.Abort() }

func wrapAbort(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrEpochFull) {
		return errors.Join(ErrAborted, err)
	}
	return err
}

// RunWithRetries executes fn in a transaction, retrying on aborts up to
// maxRetries times. fn must be idempotent. The final Commit is included in
// the retry scope. Load-sheds (core.ErrShed: the proxy is saturated, not
// conflicted) retry too, but behind a jittered exponential backoff — an
// immediate replay would land in the same exhausted epoch and keep the
// proxy saturated.
func RunWithRetries(db DB, maxRetries int, fn func(Txn) error) error {
	var last error
	shedBackoff := core.ShedBackoff
	for attempt := 0; attempt <= maxRetries; attempt++ {
		tx := db.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Abort()
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if errors.Is(err, core.ErrShed) {
			shedBackoff = core.WaitShedBackoff(context.Background(), shedBackoff)
		}
		last = err
	}
	return last
}
