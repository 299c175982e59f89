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
// # One handshake, two wakes
//
// A read's outcome is decided for its whole batch at one public moment (the
// StepReadBatch that served it, the seal, a fail-stop), and a commit's for
// its epoch (the seal for aborts, the commit stage for acks, a fail-stop), so
// that moment wakes its waiters together. Each Future and each Txn carries a
// wait record (waiter). The decider, under Proxy.mu, publishes every record
// it decided (outcome, then the done flag), then, if any waiter is parked,
// closes its wake's channel and installs a fresh one. A waiter whose record
// is not done counts itself parked, loads the channel, checks its record and
// only then sleeps. These steps are sequentially consistent atomics, so
// either the decider sees the waiter counted and closes the channel it loaded
// (or a later one, after that one), or the waiter's check follows the
// publication: no wake-up is lost (DESIGN.md, "The wake-up protocol").
// readWake closes at most once a batch and commitWake at most twice an epoch,
// so a parked committer never wakes for a read batch. Where Wait follows the
// decision, as on a stepped schedule, nothing parks and no channel is made.
// Outcomes known at once (closed proxy, dead epoch, shed) are published by
// the caller itself and involve no channel.
//
// # Stale handles
//
// Transactions and futures are handed out of chunks that are never reused
// (internal/slab): a client may keep a *Txn or *Future past its epoch, and it
// keeps answering — ErrAborted, or the value the Future resolved to — without
// ever aliasing or disturbing a live transaction.

// waiter is an outcome's wait record: a read's, embedded in its Future, or a
// commit's, embedded in its Txn.
type waiter struct {
	state atomic.Uint32 // waiterIdle, waiterQueued or waiterDone
	err   error         // the outcome; written before state becomes waiterDone
}

const (
	waiterIdle   = iota // nothing to wait for
	waiterQueued        // on a list: a close of its wake's channel will announce the outcome
	waiterDone          // err holds the outcome
)

// publish records w's outcome. Under Proxy.mu the list deciders mark its wake
// due too (publishReadsLocked, Txn.decide), for the next announce.
func (w *waiter) publish(err error) {
	w.err = err
	w.state.Store(waiterDone)
}

// wake is one instance of the handshake (see "One handshake, two wakes").
type wake struct {
	ch     atomic.Value // the chan struct{} whose close announces what was published
	due    bool         // something was published since the last announce; guarded by Proxy.mu
	parked atomic.Int32 // waiters that may sleep on ch
}

// announce wakes what was published since the last call with one close, and
// none when no waiter is parked (one that parks later finds its record done
// before it sleeps). The caller holds Proxy.mu.
func (k *wake) announce() {
	if !k.due {
		return
	}
	k.due = false
	if k.parked.Load() == 0 {
		return
	}
	close(k.ch.Load().(chan struct{}))
	k.ch.Store(make(chan struct{}))
}

// await blocks until w is decided or returns the cause of the first context
// to end; it counts itself parked before it loads the channel.
func (k *wake) await(w *waiter, ctx, txnCtx context.Context) error {
	if w.state.Load() == waiterDone {
		return nil
	}
	k.parked.Add(1)
	defer k.parked.Add(-1)
	for {
		ch := k.ch.Load().(chan struct{})
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

// publishReadsLocked decides every read of a list and takes the list apart (a
// future a client keeps pins no other). The caller announces p.readWake.
func (p *Proxy) publishReadsLocked(f *Future, err error) {
	for f != nil {
		next := f.next
		f.next = nil
		f.w.publish(err)
		p.readWake.due = true
		f = next
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
	t    *Txn
	key  string
	w    waiter  // the pending fetch, if any
	next *Future // the key's waiter list or the parked list; guarded by Proxy.mu

	mu    sync.Mutex
	done  bool
	value []byte
	found bool
	err   error
}

// ReadAsync registers a read of key and returns immediately. The returned
// Future resolves when the key's base version is resident (for keys already
// fetched this epoch, immediately). Issuing a transaction's independent reads
// through ReadAsync before the first Wait packs them into the same read
// batch, like ReadMany, without requiring the key set up front:
//
//	a, b := tx.ReadAsync("alice"), tx.ReadAsync("bob")
//	av, _, err := a.Value()
//	bv, _, err := b.Value()
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
			if cause := t.p.readWake.await(&f.w, ctx, t.ctx); cause != nil {
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
		v, found, err := t.inner.Read(f.key)
		switch {
		case err == nil:
			return f.resolve(v, found, nil)
		case errors.Is(err, mvtso.ErrNeedFetch):
			// The CCU holds no base for the key: it reset its chains at a
			// seal this transaction began inside of. Filing the read again
			// holds it through the boundary window or finds its epoch
			// over, so the loop ends with the boundary.
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
