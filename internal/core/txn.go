package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"obladi/internal/mvtso"
)

// Txn is a transaction handle bound to the epoch it started in. Operations
// (Read, Write, Commit, …) must not be called concurrently, but Futures
// returned by ReadAsync may be resolved from other goroutines (see async.go).
// A handle kept past its epoch stays valid and answers ErrAborted (async.go,
// "Stale handles").
type Txn struct {
	p     *Proxy
	inner *mvtso.Txn
	epoch uint64
	ctx   context.Context
	// done flips when the client settles the transaction (Commit/Abort).
	// Atomic because Future waiters may consult the handle while the owning
	// goroutine settles it.
	done atomic.Bool
	// aborted is the first CCU abort mapWriteErr returned: carved with the
	// handle, which is never reused, so a client may keep it.
	aborted abortedError
	w       waiter     // the commit's wait record
	next    *Txn       // the proxy's commit list or a boundary's ack list; guarded by Proxy.mu
	ack     chan error // CommitAsync's channel (nil for Commit)
}

// Begin starts a transaction in the current epoch.
func (p *Proxy) Begin() *Txn {
	return p.BeginCtx(context.Background())
}

// TS returns the transaction's serialization timestamp.
func (t *Txn) TS() uint64 { return uint64(t.inner.TS()) }

// Read returns the value of key as visible to this transaction. It blocks
// while the key's base version is fetched from the ORAM (at most until the
// epoch's read batches are exhausted, or the transaction's context is done).
func (t *Txn) Read(key string) ([]byte, bool, error) {
	return t.ReadAsync(key).Wait(t.ctx)
}

// ReadMany reads several independent keys, requesting all missing base
// versions in the same read batch instead of one batch per key. Results are
// parallel to keys. Transactions with many independent reads should prefer
// ReadMany (or ReadAsync): a sequential Read chain consumes one read batch
// per key (§6.4: dependent reads cost batches).
func (t *Txn) ReadMany(keys []string) ([]ReadResult, error) {
	futures := make([]*Future, len(keys))
	for i, k := range keys {
		futures[i] = t.ReadAsync(k)
	}
	out := make([]ReadResult, len(keys))
	for i, f := range futures {
		v, found, err := f.Wait(t.ctx)
		if err != nil {
			return nil, err
		}
		out[i] = ReadResult{Key: keys[i], Value: v, Found: found}
	}
	return out, nil
}

// ReadResult is one key's outcome from ReadMany.
type ReadResult struct {
	Key   string
	Value []byte
	Found bool
}

// Write stores value under key within the transaction.
func (t *Txn) Write(key string, value []byte) error {
	if err := t.check(key); err != nil {
		return err
	}
	if len(value) > t.p.pub.Params().ValueSize {
		return fmt.Errorf("%w: %d > %d", ErrValueTooLarge, len(value), t.p.pub.Params().ValueSize)
	}
	if err := t.inner.Write(key, value); err != nil {
		return t.mapWriteErr(err)
	}
	return nil
}

// Delete removes key within the transaction.
func (t *Txn) Delete(key string) error {
	if err := t.check(key); err != nil {
		return err
	}
	if err := t.inner.Delete(key); err != nil {
		return t.mapWriteErr(err)
	}
	return nil
}

// mapWriteErr translates a CCU refusal of a write or a commit into the
// proxy's error space. A write-budget refusal aborts the whole transaction
// (its writes cannot all land this epoch; partial commit is not an option) as
// a retryable epoch-capacity abort.
func (t *Txn) mapWriteErr(err error) error {
	if errors.Is(err, mvtso.ErrWriteBatchFull) {
		t.inner.Abort()
		return fmt.Errorf("%w: %v", ErrEpochFull, err)
	}
	if errors.Is(err, mvtso.ErrAborted) {
		if t.aborted.cause != nil {
			// A later write of an aborted transaction: the first error may
			// still be held, so this one is the caller's own.
			return &abortedError{err}
		}
		t.aborted.cause = err
		return &t.aborted
	}
	return err
}

// abortedError is a CCU abort in the proxy's error space: it matches
// ErrAborted, not the CCU's error, and is formatted only when Error is
// called.
type abortedError struct{ cause error }

func (e *abortedError) Error() string { return ErrAborted.Error() + ": " + e.cause.Error() }

func (e *abortedError) Is(target error) bool { return target == ErrAborted }

// Commit requests commit and waits until the epoch publishes the
// transaction's fate into the handle (async.go, "One handshake, two wakes").
// nil means durably committed. If the transaction's context (BeginCtx) ends
// first, Commit stops waiting and returns the context's error — the outcome
// is then unknown to the caller: the request was already registered, and the
// boundary may still commit it.
func (t *Txn) Commit() error {
	if !t.request(nil) {
		return ErrAborted
	}
	if cause := t.p.commitWake.await(&t.w, t.ctx, t.ctx); cause != nil {
		// Best effort: aborts the transaction if the boundary has not
		// decided it yet; a no-op if it has.
		t.inner.Abort()
		return fmt.Errorf("obladi: %w while awaiting epoch decision (outcome unknown)", cause)
	}
	return t.w.err
}

// CommitAsync is Commit without the wait: the returned channel delivers the
// epoch's decision, sent by the publish that decides the handle. The request
// is registered on return: it commits at the boundary unless a dependency aborts.
func (t *Txn) CommitAsync() <-chan error {
	ch := make(chan error, 1)
	if !t.request(ch) {
		ch <- ErrAborted
	}
	return ch
}

// request files the commit request, its outcome also sent on ack if not nil:
// under p.mu it decides the handle at once (closed proxy, dead epoch, a CCU
// abort) or queues it on the commit list for a seal; false if already settled.
func (t *Txn) request(ack chan error) bool {
	if !t.done.CompareAndSwap(false, true) {
		return false
	}
	t.ack = ack
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		t.inner.Abort()
		t.decide(ErrClosed)
	case p.epoch != t.epoch:
		// The transaction's epoch already ended: it was aborted there.
		t.inner.Abort()
		t.decide(fmt.Errorf("%w: epoch ended before commit", ErrAborted))
	default:
		if err := t.inner.Commit(); err != nil {
			t.decide(t.mapWriteErr(err))
		} else {
			t.w.state.Store(waiterQueued)
			t.next, p.committing = p.committing, t
		}
	}
	return true
}

// decide publishes the commit's outcome into the handle's record, for the
// commit wake to announce, and onto CommitAsync's channel. The caller holds p.mu.
func (t *Txn) decide(err error) {
	t.w.publish(err)
	t.p.commitWake.due = true
	if t.ack != nil {
		t.ack <- err
	}
}

// decideAll decides every handle of a commit list with err and empties the
// list. The caller holds p.mu and announces p.commitWake.
func decideAll(list **Txn, err error) {
	for t := *list; t != nil; {
		next := t.next
		t.next = nil
		t.decide(err)
		t = next
	}
	*list = nil
}

// Abort voluntarily aborts the transaction.
func (t *Txn) Abort() {
	if !t.done.CompareAndSwap(false, true) {
		return
	}
	t.inner.Abort()
}

// check validates key, context, and epoch membership for an operation.
func (t *Txn) check(key string) error {
	t.p.mu.Lock()
	defer t.p.mu.Unlock()
	return t.checkLocked(key)
}

// checkLocked is check for a caller holding p.mu.
func (t *Txn) checkLocked(key string) error {
	if t.done.Load() {
		return ErrAborted
	}
	if err := context.Cause(t.ctx); err != nil {
		t.inner.Abort()
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	if key == "" {
		return errors.New("obladi: empty key")
	}
	if key[0] == 0 {
		return errors.New("obladi: keys must not start with a NUL byte")
	}
	if len(key) > t.p.pub.Params().KeySize {
		return fmt.Errorf("obladi: key of %d bytes exceeds KeySize %d", len(key), t.p.pub.Params().KeySize)
	}
	if t.p.closed {
		return ErrClosed
	}
	if t.p.epoch != t.epoch {
		t.inner.Abort()
		return fmt.Errorf("%w: transaction spans epochs", ErrAborted)
	}
	return nil
}

// queueFetchLocked files f's read of its key: on return f's wait record is
// idle (the CCU holds the key's base, nothing to wait for), queued on the
// key's shard under the admission gate — filed under the requesting session
// for fair scheduling — or parked through the boundary window, or already
// decided (a closed proxy, a dead epoch, a shed). The CCU alone says whether
// a base is resident: inside the seal it has already reset its chains while
// p.epoch still names the ending epoch, so a transaction begun there finds no
// base and is held as a boundary-window read. The caller holds p.mu.
func (p *Proxy) queueFetchLocked(f *Future) {
	switch {
	case p.closed:
		f.w.publish(ErrClosed)
		return
	case p.epoch != f.t.epoch:
		f.w.publish(fmt.Errorf("%w: epoch ended during read", ErrAborted))
		return
	}
	sh := p.shards[shardOf(f.key, len(p.shards))]
	if p.ccu.HasBase(f.key) {
		p.stats.CacheHits++
		return
	}
	p.enqueueLocked(sh, f)
}

// enqueueLocked makes f wait for its key's slot on sh. A key nobody has
// scheduled yet needs a new slot: after the last read batch there is none to
// ask for, so the read is held for the next epoch's opening; before it, the
// admission gate decides. A key another session already scheduled costs
// nothing — f just joins its waiters. The caller holds p.mu.
func (p *Proxy) enqueueLocked(sh *shard, f *Future) {
	if sh.queued[f.key] == nil {
		if p.inBoundaryWindowLocked() {
			p.boundaryReads.Add(1)
			f.w.state.Store(waiterQueued)
			f.next, p.parked = p.parked, f
			return
		}
		if err := p.admitFetchLocked(sh, f.t.inner.TS(), f.key); err != nil {
			f.w.publish(err)
			return
		}
	}
	f.w.state.Store(waiterQueued)
	f.next, sh.queued[f.key] = sh.queued[f.key], f
}
