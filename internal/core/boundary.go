package core

import (
	"fmt"

	"obladi/internal/mvtso"
	"obladi/internal/oramexec"
	"obladi/internal/wal"
)

// boundaryJob carries one sealed epoch from its seal to its commit.
type boundaryJob struct {
	epoch     uint64
	sealed    []*oramexec.SealedEpoch  // per-shard detached write-back sets
	ckpts     []*wal.PendingCheckpoint // per-shard checkpoint snapshots (nil without durability)
	commitAck []chan error             // the committed transactions' waiters
	committed uint64
}

// EndEpoch finalizes the current epoch in two stages. The SEAL decides
// transaction fates, partitions and executes the write batch, detaches every
// shard's buffered write-back set under a sealed-epoch handle, snapshots the
// checkpoints, and immediately opens the next epoch so read batches resume.
// The COMMIT stage flushes the sealed buckets, appends the per-shard
// checkpoints — the coordinator's last: it commits the epoch — commits the
// storage epoch, and only then acknowledges the epoch's commit waiters —
// delayed visibility already deferred acks to the boundary, so deferring them
// to the commit's completion changes no client-visible semantics. The commit
// runs on a background committer and EndEpoch returns right after the seal,
// with at most one boundary in flight (the next seal waits for the previous
// commit to land). A boundary error in either stage fail-stops the proxy:
// every fetch and commit waiter is woken. EndEpoch returns a seal error; a
// commit error reaches the epoch's commit waiters and WaitCommitted.
// Exported for manual mode and tests.
func (p *Proxy) EndEpoch() error {
	job, err := p.sealEpoch()
	if err != nil {
		return err
	}
	p.committers.Add(1)
	go func() {
		defer p.committers.Done()
		p.commitBoundary(job)
	}()
	return nil
}

// WaitCommitted blocks until no boundary is in flight: the last sealed
// epoch's acks are sent and its log prefix is retired. It returns the error
// that fail-stopped the proxy, if one did. A stepped caller that needs a
// quiet store or a deterministic call order calls it after EndEpoch.
func (p *Proxy) WaitCommitted() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight != nil {
		p.boundaryDone.Wait()
	}
	return p.failed
}

// Failed returns the error that fail-stopped the proxy: nil while it serves,
// and after a plain Close.
func (p *Proxy) Failed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// sealEpoch runs the boundary's synchronous stage and opens the next epoch.
// On return the write batch has executed, every shard's write-back set is
// sealed, the checkpoints are snapshotted, and read batches may resume; the
// returned job is registered as the (single) in-flight boundary.
func (p *Proxy) sealEpoch() (*boundaryJob, error) {
	p.mu.Lock()
	// Back-pressure: at most one boundary in flight. If the previous
	// epoch's commit has not landed yet, this boundary waits here — the
	// current epoch's read batches already ran, so only the seal stalls.
	for p.inflight != nil && !p.closed {
		p.boundaryDone.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	epoch := p.epoch
	// Reads that never got a batch slot: their transactions abort with the
	// epoch (fate sharing); wake them now so they observe the abort. The
	// admission gate guarantees every admitted fetch a slot, so none should be
	// left: this is the safety net that keeps a broken gate from stranding a
	// reader past its epoch.
	p.failQueuedLocked(errReadBatchesExhausted)
	p.wakeLocked()
	p.mu.Unlock()

	// Decide fates. Every transaction that did not request commit aborts.
	out := p.ccu.FinalizeEpoch()

	// Partition the deduplicated write set across shards.
	shardOps, wplans, errs := p.step.shardOps, p.step.plans, p.step.errs
	for i := range shardOps {
		shardOps[i] = shardOps[i][:0]
	}
	clear(errs)
	for _, w := range out.Writes {
		i := shardOf(w.Key, len(p.shards))
		if len(shardOps[i]) == p.cfg.WriteBatchSize {
			// Unreachable: the CCU charges every admitted write against the
			// epoch generation's budget under its own lock (SetWriteBudget),
			// so the finalized write set cannot exceed it. Fail-stop if the
			// invariant ever breaks — the epoch cannot commit these writes.
			return nil, p.failBoundary(fmt.Errorf("core: shard %d write set exceeds write batch (%d)", i, p.cfg.WriteBatchSize))
		}
		shardOps[i] = append(shardOps[i], oramexec.WriteOp{Key: w.Key, Value: w.Value, Tombstone: w.Tombstone})
	}
	p.mu.Lock()
	p.stats.WriteSlots += uint64(p.cfg.WriteBatchSize * len(p.shards))
	p.stats.RealWrites += uint64(len(out.Writes))
	p.mu.Unlock()

	// Per-shard seal pipeline (pad, plan, log, execute, seal, checkpoint
	// snapshot) runs concurrently across shards; each stage orders
	// correctly within its shard. The checkpoint must be snapshotted here,
	// before the next epoch mutates the ORAM metadata; its durable append
	// is the commit stage's job.
	job := &boundaryJob{
		epoch:  epoch,
		sealed: make([]*oramexec.SealedEpoch, len(p.shards)),
		ckpts:  make([]*wal.PendingCheckpoint, len(p.shards)),
	}
	// Same staging as StepReadBatch: plan everywhere, append every shard's
	// write-batch schedule deferred, one Sync round (one fsync on a shared
	// log), then execute — the write-ahead rule holds per shard, with the
	// barrier placed once per round instead of once per record.
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		ops := shardOps[i]
		for len(ops) < p.cfg.WriteBatchSize {
			ops = append(ops, oramexec.WriteOp{})
		}
		wplans[i], errs[i] = sh.exec.PlanWriteBatch(ops)
	})
	for i, sh := range p.shards {
		if errs[i] != nil || sh.rlog == nil {
			continue
		}
		if err := sh.rlog.AppendBatchDeferred(epoch, p.cfg.ReadBatches, wplans[i].Log()); err != nil {
			errs[i] = err
		}
	}
	p.syncLogs(p.shards, errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		if errs[i] != nil {
			return
		}
		sh := p.shards[i]
		if _, err := sh.exec.Execute(wplans[i]); err != nil {
			errs[i] = err
			return
		}
		// Detach the epoch's write-back set. The next epoch's reads
		// that land on a sealed bucket are served from it locally, so
		// they stay correct while the flush is still in flight.
		var err error
		if job.sealed[i], err = sh.exec.SealEpoch(); err != nil {
			errs[i] = err
			return
		}
		if sh.rlog != nil {
			job.ckpts[i], errs[i] = sh.rlog.PrepareCheckpoint(epoch, sh.exec.ORAM())
		}
	})
	clear(wplans)
	if err := firstError(errs); err != nil {
		return nil, p.failBoundary(err)
	}

	// Collect the epoch's commit waiters for the commit stage, ack its
	// aborts (no durability obligation), and open the next epoch.
	p.mu.Lock()
	job.commitAck = make([]chan error, 0, len(out.Committed))
	job.committed = uint64(len(out.Committed))
	for _, ts := range out.Committed {
		if ch, ok := p.waiters[ts]; ok {
			job.commitAck = append(job.commitAck, ch)
			delete(p.waiters, ts)
		}
	}
	p.stats.Aborted += uint64(len(out.Aborted))
	for _, ts := range out.Aborted {
		if ch, ok := p.waiters[ts]; ok {
			ch <- ErrAborted
			delete(p.waiters, ts)
		}
	}
	// Any waiter left belongs either to a transaction the CCU no longer
	// tracks (abort it now) or to one that began while this boundary was
	// already finalizing: that transaction lives in the next epoch's CCU
	// generation, so its waiter stays registered and the next boundary
	// decides it. Acking such a transaction as aborted here would lie —
	// its writes would still commit next epoch.
	for ts, ch := range p.waiters {
		if st := p.ccu.Status(ts); st == mvtso.StatusActive || st == mvtso.StatusFinished {
			continue
		}
		ch <- ErrAborted
		delete(p.waiters, ts)
	}
	for _, sh := range p.shards {
		clear(sh.fetched)
	}
	p.txnSlab.EndEpoch()
	p.futureSlab.EndEpoch()
	p.batchIdx = 0
	p.epoch++
	p.beginEpochAllLocked()
	p.inflight = job
	// The next epoch is open: reads held through the boundary window fail
	// now, so their retry begins in an epoch with a full slot budget.
	p.releaseParkedLocked(errBoundaryWindow)
	p.wakeLocked()
	p.mu.Unlock()
	return job, nil
}

// commitBoundary runs a sealed boundary's commit stage and publishes its
// outcome: on success the epoch's commit waiters are acknowledged; on
// failure they receive the error and the proxy fail-stops (a half-committed
// boundary leaves proxy metadata ahead of storage — §8's answer is to crash
// and recover). Either way the boundary slot is freed for the next seal.
func (p *Proxy) commitBoundary(job *boundaryJob) {
	err := p.runCommit(job)
	if err == nil {
		p.retiring.Lock()
		p.mu.Lock()
		p.stats.Epochs++
		p.stats.Committed += job.committed
		for _, ch := range job.commitAck {
			ch <- nil
		}
		p.mu.Unlock()
		job.commitAck = nil
		// The epoch is durable on every shard (checkpoints, the commit point,
		// store commit), so its log prefix can go — after the acks, which
		// have no reason to wait for a truncation, and before the boundary
		// slot is freed, so no later commit's appends overlap it.
		err = p.retireLogs(job.epoch)
		p.retiring.Unlock()
	}
	p.mu.Lock()
	p.inflight = nil
	if err != nil {
		for _, ch := range job.commitAck {
			ch <- err
		}
		p.failStopLocked(err)
	}
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	if err != nil {
		p.ccu.AbortAll()
	}
}

// retireLogs tells every shard's log that epoch is durably committed
// everywhere (see wal.Log.Retire): a function of the epoch counter alone,
// one Truncate per shard per full checkpoint.
func (p *Proxy) retireLogs(epoch uint64) error {
	errs := p.commitErrs
	clear(errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		if rlog := p.shards[i].rlog; rlog != nil {
			errs[i] = rlog.Retire(epoch)
		}
	})
	return firstError(errs)
}

// runCommit makes an epoch durable and decides it, in the one sequence every
// commit takes — a sealed boundary's, bootstrap's baseline, recovery's epoch:
//
//	every shard's write-back, the followers' prepared checkpoints
//	  · ordering point ·
//	the coordinator's committing checkpoint — the global commit point
//	  · ordering point ·
//	every store's epoch commit
//
// An ordering point is a Sync round on independent stores. When every shard
// appends to one physical stream (p.unified: write-back buckets, checkpoints
// and store commits are all records of it) an ordering point is nothing at
// all: record order carries the protocol, crash recovery keeps a prefix of
// the stream — so a lost suffix always falls between two steps, never inside
// an inverted one — and the whole boundary stands on the one flush that ends
// it. Per-shard work runs concurrently; only the commit point is ordered
// across shards.
func (p *Proxy) runCommit(job *boundaryJob) error {
	shared := p.unified != nil
	errs := p.commitErrs
	clear(errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		if job.sealed != nil {
			if _, err := sh.exec.FlushSealed(job.sealed[i]); err != nil {
				errs[i] = err
				return
			}
		}
		if i > 0 && job.ckpts[i] != nil {
			_, errs[i] = sh.rlog.AppendPreparedDeferred(job.ckpts[i])
		}
	})
	if !shared {
		p.syncLogs(p.shards[1:], errs[1:])
	}
	if err := firstError(errs); err != nil {
		return err
	}
	// Commit point: every shard has flushed and every follower is prepared.
	if cp := job.ckpts[0]; cp != nil {
		coord := p.shards[0].rlog
		if _, err := coord.AppendPreparedDeferred(cp); err != nil {
			return err
		}
		// The hook's contract is a durable commit point with nothing after
		// it, so a hooked run flushes here even on a shared stream.
		if !shared || p.testCommitHook != nil {
			if err := coord.Sync(); err != nil {
				return err
			}
		}
		if p.testCommitHook != nil {
			if err := p.testCommitHook(); err != nil {
				return err
			}
		}
	}
	if shared {
		for i := range p.shards {
			if err := p.unified[i].CommitEpochNoSync(job.epoch); err != nil {
				return err
			}
		}
		p.syncLogs(p.shards, errs)
	} else {
		// Each CommitEpoch stands on its own barrier; issued together,
		// backends sharing a commit-group data dir coalesce the round into
		// one fsync wave instead of paying one barrier per shard.
		oramexec.RunStages(len(p.shards), func(i int) {
			errs[i] = p.shards[i].store.CommitEpoch(job.epoch)
		})
	}
	return firstError(errs)
}

// failBoundary fail-stops the proxy after a boundary error: every fetch and
// commit waiter is woken with err, so manual-mode Advance() callers are never
// stranded.
func (p *Proxy) failBoundary(err error) error {
	p.mu.Lock()
	p.failStopLocked(err)
	p.mu.Unlock()
	p.ccu.AbortAll()
	return err
}

// failStopLocked closes the proxy on err, records err as the fail-stop cause
// unless an earlier error already is, and wakes every waiter: fetches, commits
// and a seal or WaitCommitted blocked on the boundary.
func (p *Proxy) failStopLocked(err error) {
	if p.failed == nil {
		p.failed = err
	}
	p.closed = true
	p.failAllLocked(err)
	p.boundaryDone.Broadcast()
}
