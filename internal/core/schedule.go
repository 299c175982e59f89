package core

import (
	"errors"
	"fmt"
	"time"
)

// epochLoop drives the fixed batch schedule in auto mode: one slot per Δ,
// whatever the load. A kick only stops it: Close and Shutdown mark the proxy
// closed or draining before they send one.
func (p *Proxy) epochLoop() {
	defer p.loop.Done()
	timer := time.NewTimer(p.cfg.BatchInterval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-p.kick:
			return
		}
		p.mu.Lock()
		closed := p.closed || p.draining
		p.mu.Unlock()
		if closed {
			return
		}
		if err := p.Advance(); err != nil {
			// StepReadBatch and EndEpoch fail-stop the proxy themselves on
			// execution errors; the loop only stops driving the schedule.
			if !errors.Is(err, ErrClosed) {
				p.failBoundary(err)
			}
			return
		}
		timer.Reset(p.cfg.BatchInterval)
	}
}

// Advance moves the fixed schedule forward by one slot: the next read batch,
// or the epoch boundary once all R read batches have fired. The epoch loop
// calls it once per Δ; in manual mode the caller does (tests, deterministic
// examples).
func (p *Proxy) Advance() error {
	p.mu.Lock()
	last := p.batchIdx >= p.pub.ReadBatches()
	p.mu.Unlock()
	if last {
		return p.EndEpoch()
	}
	return p.StepReadBatch()
}

// shardReadBatch is one shard's share of a read-batch slot: the real keys it
// serves this round and, parallel to them, the heads of their waiter lists
// (Proxy.step keeps one per shard across rounds).
type shardReadBatch struct {
	sh      *shard
	keys    []string
	waiters []*Future
}

// loggedRound runs one logged batch round on every shard: the plan stage,
// each shard's batch record appended, one Sync round, then the exec stage; a
// shard's error lands in p.step.errs. The write-ahead rule (§8: a batch's
// schedule must be durable before its reads are issued) only orders a shard's
// own log against its own reads, so planning and execution run concurrently
// across shards. The appends, though, are split from their barrier: every
// shard's record is appended first, then one Sync round makes them all
// durable before any read issues. On a shared physical log the round is ONE
// fsync for all shards — barrier placement, not barrier count, is what the
// write-ahead rule fixes.
func (p *Proxy) loggedRound(plan, exec stage, epoch uint64, batch int) {
	p.sched.Run(plan)
	for i, sh := range p.shards {
		if p.step.errs[i] != nil || sh.rlog == nil {
			continue
		}
		if err := sh.rlog.AppendBatch(epoch, batch, p.step.plans[i].Log()); err != nil {
			p.step.errs[i] = err
		}
	}
	p.sched.Run(stageSyncStep)
	p.sched.Run(exec)
}

// StepReadBatch issues the epoch's next read batch on every shard: up to
// bread queued fetches per shard, padded with dummies, executed in parallel
// across shards. Exported for manual mode and tests.
func (p *Proxy) StepReadBatch() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.batchIdx >= p.pub.ReadBatches() {
		p.mu.Unlock()
		return fmt.Errorf("core: epoch %d already issued all %d read batches", p.epoch, p.pub.ReadBatches())
	}
	st := &p.step
	batches, results, plans, errs := st.batches, st.results, st.plans, st.errs
	clear(errs)
	for i, sh := range p.shards {
		// Fair drain: one key per session per pass (admission.go), up to
		// bread slots.
		b := &batches[i]
		b.keys = sh.takeBatchLocked(b.keys, p.pub.ReadBatchSize())
		b.waiters = b.waiters[:0]
		for _, k := range b.keys {
			b.waiters = append(b.waiters, sh.queued[k])
			delete(sh.queued, k)
		}
		p.stats.ReadBatchSlots += uint64(p.pub.ReadBatchSize())
		p.stats.RealReads += uint64(len(b.keys))
	}
	p.batchIdx++
	batchIdx := p.batchIdx - 1
	epoch := p.epoch
	p.mu.Unlock()

	p.loggedRound(stagePlanReads, stageExecReads, epoch, batchIdx)

	p.mu.Lock()
	for i, b := range batches {
		if errs[i] != nil {
			continue
		}
		// Result j answers op j, which carried key j.
		for j := range b.keys {
			r := &results[i][j]
			p.ccu.InstallBase(r.Key, r.Value, r.Found)
			p.publishReadsLocked(b.waiters[j], nil)
			b.waiters[j] = nil
		}
	}
	firstErr := firstError(errs)
	if firstErr != nil {
		// Waiters were already dequeued from sh.queued into the batches, so
		// failAllLocked can no longer reach them: wake every one still
		// unserved (all shards — the batch failed as a unit) or their
		// transactions would block forever.
		for _, b := range batches {
			for _, w := range b.waiters {
				p.publishReadsLocked(w, firstErr)
			}
		}
		// A failed batch leaves planned ORAM metadata with no matching
		// storage reads: the executor state has diverged from the tree, so
		// the proxy fail-stops (crash-and-recover is §8's answer) instead
		// of continuing on a broken schedule.
		p.failStopLocked(firstErr)
	}
	// One close wakes the batch's readers.
	p.readWake.announce()
	p.mu.Unlock()
	// The scratch outlives the step; what it pointed at must not.
	for i := range batches {
		clear(batches[i].keys)
		clear(batches[i].waiters)
	}
	clear(results)
	clear(plans)
	if firstErr != nil {
		p.ccu.AbortAll()
	}
	return firstErr
}
