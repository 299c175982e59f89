package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"obladi/internal/mvtso"
)

// This file implements the asynchronous read plane of the client API: a
// transaction can register its whole read set with ReadAsync before the first
// read batch fires, then resolve the Futures as batches execute. The
// synchronous Read/ReadMany paths are thin wrappers over it.
//
// Asynchrony changes nothing the storage side observes: a Future only
// registers the key on its shard's fetch queue, exactly as a blocking Read
// would, and the fixed batch schedule executes regardless of who is waiting.
// In particular, cancelling a Future (or the transaction's context) aborts
// the MVTSO transaction but leaves the queued slot in place — it executes as
// a dummy from the schedule's point of view, so cancellation is invisible in
// the trace.
//
// # One wake-up per batch
//
// A read's outcome is decided for its whole batch at one public moment — the
// StepReadBatch that served it, the seal, a fail-stop — so that moment wakes
// its readers together. Each Future carries a wait record (fetchWaiter). The
// decider, under Proxy.mu, publishes every record it decided (outcome, then
// the done flag), then closes the proxy's one wake channel and installs a
// fresh one. A waiter loads the channel, then checks its record, then sleeps
// on the channel: a record published after the check is announced on that
// channel or on an earlier-closed one, so no wake-up is lost; a close that
// decided other records wakes it spuriously, at most once per batch of its
// epoch, and never on a stepped schedule, where Wait follows the batch.
// Outcomes known at once (closed proxy, dead epoch, shed) are published by the
// caller itself and involve no channel.
//
// # Stale handles
//
// Transactions and futures are handed out of chunks that are never reused
// (internal/slab): a client may keep a *Txn or *Future past its epoch, and it
// keeps answering — ErrAborted, or the value the Future resolved to — without
// ever aliasing or disturbing a live transaction.

// fetchWaiter is a read's wait record, embedded in its Future.
type fetchWaiter struct {
	next  *fetchWaiter  // the key's waiter list or the parked list; guarded by Proxy.mu
	state atomic.Uint32 // waiterIdle, waiterQueued or waiterDone
	err   error         // the outcome; written before state becomes waiterDone
}

const (
	waiterIdle   = iota // nothing to wait for
	waiterQueued        // on a list: a close of the wake channel will announce the outcome
	waiterDone          // err holds the outcome
)

// publish records w's outcome. A decider holding Proxy.mu follows it with
// wakeLocked (see publishLocked); a caller deciding its own read does not.
func (w *fetchWaiter) publish(err error) {
	w.err = err
	w.state.Store(waiterDone)
}

// publishLocked decides every waiter of a list and takes the list apart, so a
// future a client keeps pins no other. The caller holds p.mu and calls
// wakeLocked before releasing it.
func (p *Proxy) publishLocked(w *fetchWaiter, err error) {
	for w != nil {
		next := w.next
		w.next = nil
		w.publish(err)
		p.wakeDue = true
		w = next
	}
}

// wakeLocked announces everything published since the last call: one close,
// whatever the number of waiters. The caller holds p.mu.
func (p *Proxy) wakeLocked() {
	if !p.wakeDue {
		return
	}
	p.wakeDue = false
	close(p.wake.Load().(chan struct{}))
	p.wake.Store(make(chan struct{}))
}

// await blocks until w is decided, or returns the cause of the first context
// to end.
func (w *fetchWaiter) await(p *Proxy, ctx, txnCtx context.Context) error {
	for {
		ch := p.wake.Load().(chan struct{})
		if w.state.Load() == waiterDone {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-txnCtx.Done():
			return context.Cause(txnCtx)
		}
	}
}

// BeginCtx starts a transaction bound to ctx. Cancellation or deadline
// expiry aborts the transaction at its next operation, and unblocks Future
// waits and Commit instead of letting them wait out the epoch. The proxy's
// oblivious schedule is unaffected: slots the transaction already queued
// still execute (as dummies).
func (p *Proxy) BeginCtx(ctx context.Context) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	t := p.txnSlab.New()
	t.epoch = p.epoch
	p.mu.Unlock()
	t.p, t.inner, t.ctx = p, p.ccu.Begin(), ctx
	return t
}

// Future is the pending result of a ReadAsync. It resolves when the read's
// batch executes (or the transaction dies first). A Future belongs to its
// transaction's epoch like every other operation: if the epoch ends before
// the batch serves it, Wait reports the abort.
//
// Wait may be called from a different goroutine than the transaction's, and
// multiple Futures of one transaction may be waited concurrently; concurrent
// Waits on the *same* Future are serialized.
type Future struct {
	t   *Txn
	key string
	w   fetchWaiter // the pending fetch or slot payment, if any

	mu       sync.Mutex
	hadFetch bool // this future's read queued the key's real fetch
	done     bool
	value    []byte
	found    bool
	err      error
}

// ReadAsync registers a read of key and returns immediately. The returned
// Future resolves when the key's base version is resident (for keys already
// fetched this epoch, immediately). Issuing a transaction's independent reads
// through ReadAsync before the first Wait packs them into the same read
// batch, like ReadMany, without requiring the key set up front.
func (t *Txn) ReadAsync(key string) *Future {
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.futureSlab.New()
	f.t, f.key = t, key
	if err := t.checkLocked(key); err != nil {
		f.done, f.err = true, err
		return f
	}
	p.queueFetchLocked(f)
	f.hadFetch = f.w.state.Load() != waiterIdle
	return f
}

// Value resolves the Future under the transaction's own context (Background
// for Begin). Equivalent to Wait with that context.
func (f *Future) Value() ([]byte, bool, error) {
	return f.Wait(f.t.ctx)
}

// Wait blocks until the Future resolves or ctx is done, whichever is first.
// A nil ctx means the transaction's own context (Background for Begin). On
// cancellation the transaction aborts (its queued batch slots still execute
// as dummies) and Wait returns an error matching both ErrAborted and the
// context's error.
func (f *Future) Wait(ctx context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return f.value, f.found, f.err
	}
	t := f.t
	if ctx == nil {
		ctx = t.ctx
	}
	for {
		if f.w.state.Load() != waiterIdle {
			if cause := f.w.await(t.p, ctx, t.ctx); cause != nil {
				// The record stays on its list; nobody reads it again.
				t.inner.Abort()
				return f.resolve(nil, false, fmt.Errorf("%w: %w", ErrAborted, cause))
			}
			f.w.state.Store(waiterIdle)
			if err := f.w.err; err != nil {
				t.inner.Abort()
				return f.resolve(nil, false, err)
			}
		}
		// Ablation (§6.3): a version-cache hit still consumes a read-batch
		// slot. A future that carried the key's real fetch already paid with
		// that slot. The payment waits on the same record as a fetch, so
		// cancellation unblocks it too; payCacheSlot marks the slot paid,
		// making the next loop iteration skip this branch.
		if t.p.cfg.DisableReadCache && !f.hadFetch && t.payCacheSlot(f) {
			continue
		}
		v, found, err := t.inner.Read(f.key)
		switch {
		case err == nil:
			return f.resolve(v, found, nil)
		case errors.Is(err, mvtso.ErrNeedFetch):
			// The version cache no longer holds the base (possible only
			// across batch races); queue again and keep waiting.
			t.p.mu.Lock()
			t.p.queueFetchLocked(f)
			t.p.mu.Unlock()
		case errors.Is(err, mvtso.ErrAborted), errors.Is(err, mvtso.ErrNotActive):
			// Aborted — or settled before this read was ever performed (a
			// future left unwaited past Commit or past its epoch).
			return f.resolve(nil, false, fmt.Errorf("%w: %v", ErrAborted, err))
		default:
			return f.resolve(nil, false, err)
		}
	}
}

// resolve records the Future's final value; the caller holds f.mu.
func (f *Future) resolve(value []byte, found bool, err error) ([]byte, bool, error) {
	f.done = true
	f.value, f.found, f.err = value, found, err
	return value, found, err
}
