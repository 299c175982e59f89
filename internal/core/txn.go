package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"obladi/internal/mvtso"
)

// Txn is a transaction handle bound to the epoch it started in. Operations
// (Read, Write, Commit, …) must not be called concurrently; resolving
// ReadAsync Futures from other goroutines is allowed (see async.go).
type Txn struct {
	p     *Proxy
	inner *mvtso.Txn
	epoch uint64
	ctx   context.Context
	// done flips when the client settles the transaction (Commit/Abort).
	// Atomic because Future waiters may consult the handle while the owning
	// goroutine settles it.
	done atomic.Bool
	// paidSlots tracks keys this txn already spent a batch slot on, for
	// the DisableReadCache ablation. Guarded by p.mu.
	paidSlots map[string]bool
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
	if len(value) > t.p.cfg.Params.ValueSize {
		return fmt.Errorf("%w: %d > %d", ErrValueTooLarge, len(value), t.p.cfg.Params.ValueSize)
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

// mapWriteErr translates a CCU write refusal into the proxy's error space. A
// write-budget refusal aborts the whole transaction (its writes cannot all
// land this epoch; partial commit is not an option) as a retryable
// epoch-capacity abort.
func (t *Txn) mapWriteErr(err error) error {
	if errors.Is(err, mvtso.ErrWriteBatchFull) {
		t.inner.Abort()
		return fmt.Errorf("%w: %v", ErrEpochFull, err)
	}
	if errors.Is(err, mvtso.ErrAborted) {
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	return err
}

// Commit requests commit and blocks until the epoch decides the
// transaction's fate. nil means durably committed. If the transaction's
// context (BeginCtx) ends while the decision is pending, Commit stops
// waiting and returns the context's error — the outcome is then unknown to
// the caller: the commit request was already registered, and the boundary
// may still commit it.
func (t *Txn) Commit() error {
	ch := t.CommitAsync()
	select {
	case err := <-ch:
		return err
	case <-t.ctx.Done():
		// Best effort: aborts the transaction if the boundary has not
		// decided it yet; a no-op if it has.
		t.inner.Abort()
		return fmt.Errorf("obladi: %w while awaiting epoch decision (outcome unknown)", context.Cause(t.ctx))
	}
}

// CommitAsync requests commit and returns a channel that delivers the
// epoch's decision. Once CommitAsync returns, the commit request is
// registered: the transaction will commit at the epoch boundary unless a
// dependency aborts.
func (t *Txn) CommitAsync() <-chan error {
	ch := make(chan error, 1)
	if !t.done.CompareAndSwap(false, true) {
		ch <- ErrAborted
		return ch
	}
	p := t.p
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.inner.Abort()
		ch <- ErrClosed
		return ch
	}
	if p.epoch != t.epoch {
		// The transaction's epoch already ended: it was aborted there.
		p.mu.Unlock()
		t.inner.Abort()
		ch <- fmt.Errorf("%w: epoch ended before commit", ErrAborted)
		return ch
	}
	p.waiters[t.inner.TS()] = ch
	p.mu.Unlock()
	if err := t.inner.Commit(); err != nil {
		// Only deliver if the waiter is still ours: an epoch boundary
		// sealing in this window may have already aborted the transaction
		// and sent its fate (which is why inner.Commit errored) — a second
		// send would jam the one-slot channel and block this caller.
		p.mu.Lock()
		_, registered := p.waiters[t.inner.TS()]
		delete(p.waiters, t.inner.TS())
		p.mu.Unlock()
		if registered {
			if errors.Is(err, mvtso.ErrAborted) {
				err = fmt.Errorf("%w: %v", ErrAborted, err)
			}
			ch <- err
		}
	}
	return ch
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
	if len(key) > t.p.cfg.Params.KeySize {
		return fmt.Errorf("obladi: key of %d bytes exceeds KeySize %d", len(key), t.p.cfg.Params.KeySize)
	}
	t.p.mu.Lock()
	live := t.p.epoch == t.epoch && !t.p.closed
	closed := t.p.closed
	t.p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !live {
		t.inner.Abort()
		return fmt.Errorf("%w: transaction spans epochs", ErrAborted)
	}
	return nil
}

// queueFetch enqueues key on its shard's next read batch (under the
// admission gate, filed under the requesting session ts for fair
// scheduling) and returns a channel delivering the fetch outcome, or nil if
// the key is already resident (no fetch needed) or an immediate error
// channel for a dead epoch or a shed.
func (p *Proxy) queueFetch(epoch uint64, ts mvtso.Timestamp, key string) <-chan error {
	p.mu.Lock()
	immediate := func(err error) <-chan error {
		p.mu.Unlock()
		ch := make(chan error, 1)
		ch <- err
		return ch
	}
	if p.closed {
		return immediate(ErrClosed)
	}
	if p.epoch != epoch {
		return immediate(fmt.Errorf("%w: epoch ended during read", ErrAborted))
	}
	sh := p.shards[shardOf(key, len(p.shards))]
	if sh.fetched[key] {
		p.mu.Unlock()
		return nil
	}
	if !sh.pending[key] {
		// The key needs a new batch slot. After the last read batch there
		// is none to ask for: hold the read for the next epoch's opening.
		if p.inBoundaryWindowLocked() {
			ch := p.parkLocked()
			p.mu.Unlock()
			return ch
		}
		if err := p.admitFetchLocked(sh, ts, key); err != nil {
			return immediate(err)
		}
	}
	// Already scheduled by another session: just join its waiters — no new
	// slot is consumed, so no gate check.
	w := &fetchWaiter{key: key, done: make(chan error, 1)}
	sh.queued[key] = append(sh.queued[key], w)
	full := sh.queuedKeys >= p.cfg.ReadBatchSize
	p.mu.Unlock()
	if full && p.cfg.EagerBatches {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	return w.done
}

// payCacheSlot consumes one read-batch slot for a key whose base version is
// already resident, by enqueueing a unique padding token on the key's shard.
// It returns a channel delivering the slot's batch outcome, or nil when no
// payment is due: the key has not been fetched this epoch (the real fetch
// pays) or this transaction already paid for it. The caller waits — with its
// context, so cancellation is not blocked on the batch.
func (t *Txn) payCacheSlot(key string) <-chan error {
	p := t.p
	p.mu.Lock()
	sh := p.shards[shardOf(key, len(p.shards))]
	if !sh.fetched[key] || t.paidSlots[key] {
		p.mu.Unlock()
		return nil
	}
	if p.inBoundaryWindowLocked() {
		ch := p.parkLocked()
		p.mu.Unlock()
		return ch
	}
	if t.paidSlots == nil {
		t.paidSlots = make(map[string]bool)
	}
	t.paidSlots[key] = true
	p.ablateSeq++
	token := fmt.Sprintf("\x00rc-%d", p.ablateSeq)
	if err := p.admitFetchLocked(sh, t.inner.TS(), token); err != nil {
		delete(t.paidSlots, key)
		p.mu.Unlock()
		ch := make(chan error, 1)
		ch <- err
		return ch
	}
	w := &fetchWaiter{key: token, done: make(chan error, 1)}
	sh.queued[token] = append(sh.queued[token], w)
	p.mu.Unlock()
	return w.done
}
