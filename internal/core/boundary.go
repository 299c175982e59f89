package core

import (
	"fmt"

	"obladi/internal/mvtso"
	"obladi/internal/oramexec"
	"obladi/internal/wal"
)

// boundaryJob carries one sealed epoch from its seal to its commit. The proxy
// has one (Proxy.job), refilled by every seal.
type boundaryJob struct {
	epoch     uint64
	sealed    []*oramexec.SealedEpoch  // per-shard detached write-back sets (nil: nothing to flush)
	ckpts     []*wal.PendingCheckpoint // per-shard checkpoint snapshots (nil without durability)
	acks      *Txn                     // the committed handles, decided by the commit stage
	committed uint64
}

// EndEpoch finalizes the current epoch in two stages. The SEAL decides
// transaction fates, partitions and executes the write batch, detaches every
// shard's buffered write-back set under a sealed-epoch handle, snapshots the
// checkpoints, and immediately opens the next epoch so read batches resume.
// The COMMIT stage, on the proxy's committer goroutine, flushes the sealed
// buckets, appends the per-shard checkpoints — the coordinator's last: it
// commits the epoch — commits the storage epoch, and only then publishes the
// acks (delayed visibility already deferred them to the boundary). EndEpoch
// returns right after the seal; the next seal waits for the previous commit.
// A boundary error in either stage fail-stops the proxy and wakes every
// waiter with it; a commit error also reaches WaitCommitted. Exported for
// manual mode and tests.
func (p *Proxy) EndEpoch() error {
	p.sealMu.Lock()
	defer p.sealMu.Unlock()
	job, err := p.sealEpoch()
	if err != nil {
		return err
	}
	// The committer is idle: it took the previous job before committing it.
	p.commitQ <- job
	return nil
}

// commitLoop is the committer: it runs each sealed boundary's commit stage,
// in seal order, until the proxy stops it.
func (p *Proxy) commitLoop(q <-chan *boundaryJob) {
	defer p.committer.Done()
	for job := range q {
		p.commitBoundary(job)
	}
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
	// The epoch's schedule is spent from here, whether or not its R-th batch
	// fired (an early seal: Shutdown, or EndEpoch in manual mode): a read
	// arriving while the seal runs unlocked is held as a boundary-window read
	// and fails when the next epoch opens, instead of being queued into it.
	p.batchIdx = p.pub.ReadBatches()
	p.readWake.announce()
	p.mu.Unlock()

	// Decide fates. Every transaction that did not request commit aborts.
	out := p.ccu.FinalizeEpoch()

	// Partition the deduplicated write set across shards.
	shardOps, errs := p.step.shardOps, p.step.errs
	for i := range shardOps {
		shardOps[i] = shardOps[i][:0]
	}
	clear(errs)
	for _, w := range out.Writes {
		i := shardOf(w.Key, len(p.shards))
		if len(shardOps[i]) == p.pub.WriteBatchSize() {
			// Unreachable: the CCU charges every admitted write against the
			// epoch generation's budget under its own lock (SetWriteBudget),
			// so the finalized write set cannot exceed it. Fail-stop if the
			// invariant ever breaks — the epoch cannot commit these writes.
			return nil, p.failBoundary(fmt.Errorf("core: shard %d write set exceeds write batch (%d)", i, p.pub.WriteBatchSize()))
		}
		shardOps[i] = append(shardOps[i], oramexec.WriteOp{Key: w.Key, Value: w.Value, Tombstone: w.Tombstone})
	}
	p.mu.Lock()
	p.stats.WriteSlots += uint64(p.pub.WriteBatchSize() * len(p.shards))
	p.stats.RealWrites += uint64(len(out.Writes))
	p.mu.Unlock()

	// Per-shard seal pipeline (pad, plan, log, execute, seal, checkpoint
	// snapshot) runs concurrently across shards; each stage orders
	// correctly within its shard. The checkpoint must be snapshotted here,
	// before the next epoch mutates the ORAM metadata; its durable append
	// is the commit stage's job.
	// The previous boundary has landed (back-pressure above), so the job is
	// free to refill.
	job := &p.job
	job.epoch = epoch
	p.loggedRound(stagePlanWrites, stageSeal, epoch, p.pub.ReadBatches())
	clear(p.step.plans)
	if err := firstError(errs); err != nil {
		return nil, p.failBoundary(err)
	}

	// Decide each commit request by its own CCU transaction: acks wait for
	// the commit stage, aborts are told now. One begun while this boundary
	// was finalizing is of the next CCU generation, for the next boundary to
	// decide (an abort here would lie: its writes commit next epoch).
	p.mu.Lock()
	job.committed = uint64(len(out.Committed))
	p.stats.Aborted += uint64(len(out.Aborted))
	for link := &p.committing; *link != nil; {
		t := *link
		switch t.inner.Status() {
		case mvtso.StatusCommitted:
			*link, t.next, job.acks = t.next, job.acks, t
		case mvtso.StatusAborted:
			*link, t.next = t.next, nil
			t.decide(ErrAborted)
		default:
			link = &t.next
		}
	}
	p.commitWake.announce()
	p.txnSlab.EndEpoch()
	p.futureSlab.EndEpoch()
	p.batchIdx = 0
	p.epoch++
	p.beginEpochAllLocked()
	p.inflight = job
	// The next epoch is open: reads held through the boundary window fail
	// now, so their retry begins in an epoch with a full slot budget.
	p.releaseParkedLocked(errBoundaryWindow)
	p.readWake.announce()
	p.mu.Unlock()
	return job, nil
}

// commitBoundary runs a sealed boundary's commit stage and publishes its
// outcome into the epoch's committed handles, announced by one close of the
// commit wake: nil on success; on failure the error, and the proxy fail-stops
// (a half-committed boundary leaves proxy metadata ahead of storage — §8's
// answer is to crash and recover). Either way the boundary slot is freed for
// the next seal.
func (p *Proxy) commitBoundary(job *boundaryJob) {
	err := p.runCommit(job)
	if err == nil {
		p.retiring.Lock()
		p.mu.Lock()
		p.stats.Epochs++
		p.stats.Committed += job.committed
		decideAll(&job.acks, nil)
		p.commitWake.announce()
		p.mu.Unlock()
		// The epoch is durable on every shard (checkpoints, the commit point,
		// store commit), so its log prefix can go — after the acks, which
		// have no reason to wait for a truncation, and before the boundary
		// slot is freed, so no later commit's appends overlap it.
		err = p.retireLogs()
		p.retiring.Unlock()
	}
	p.mu.Lock()
	p.inflight = nil
	if err != nil {
		decideAll(&job.acks, err)
		p.failStopLocked(err)
	}
	clear(job.sealed)
	clear(job.ckpts)
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	if err != nil {
		p.ccu.AbortAll()
	}
}

// retireLogs tells every shard's log that the job's epoch is durably
// committed everywhere (see wal.Log.Retire): a function of the epoch counter
// alone, one Truncate per shard per full checkpoint.
func (p *Proxy) retireLogs() error {
	return p.commitRound(stageRetire)
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
	p.commits.Run(stageFlush)
	if !shared {
		p.commits.Run(stageSyncFollowers)
	}
	if err := firstError(errs); err != nil {
		return err
	}
	// Commit point: every shard has flushed and every follower is prepared.
	if cp := job.ckpts[0]; cp != nil {
		coord := p.shards[0].rlog
		if _, err := coord.AppendPrepared(cp); err != nil {
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
		p.commits.Run(stageSyncAll)
	} else {
		// Each CommitEpoch stands on its own barrier; issued together,
		// backends sharing a commit-group data dir coalesce the round into
		// one fsync wave instead of paying one barrier per shard.
		p.commits.Run(stageCommitEpoch)
	}
	return firstError(errs)
}

// flushShard is shard sh's part of a commit's first step: seal and write
// back its sealed epoch's buckets, then append its prepared checkpoint if it
// is a follower.
func (p *Proxy) flushShard(sh *shard) error {
	job := &p.job
	if s := job.sealed[sh.id]; s != nil {
		if _, err := sh.exec.FlushSealed(s); err != nil {
			return err
		}
	}
	if cp := job.ckpts[sh.id]; sh.id > 0 && cp != nil {
		_, err := sh.rlog.AppendPrepared(cp)
		return err
	}
	return nil
}

// sealShard is shard sh's part of the seal once its write-batch schedule is
// durable: execute the write batch, detach the epoch's write-back set and
// snapshot the checkpoint. The next epoch's reads that land on a sealed
// bucket are served from the set locally, so they stay correct while the
// flush is still in flight.
func (p *Proxy) sealShard(sh *shard, plan *oramexec.BatchPlan) error {
	job := &p.job
	if _, err := sh.exec.Execute(plan); err != nil {
		return err
	}
	var err error
	if job.sealed[sh.id], err = sh.exec.SealEpoch(); err != nil {
		return err
	}
	if sh.rlog != nil {
		job.ckpts[sh.id], err = sh.rlog.PrepareCheckpoint(job.epoch, sh.exec.ORAM().Machine())
	}
	return err
}

// failBoundary fail-stops the proxy after a boundary error: every waiter is
// woken with err, so manual-mode Advance() callers are never stranded.
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
