package core

import (
	"errors"
	"fmt"
	"sync"

	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/wal"
)

// bootstrap initializes fresh ORAMs or recovers from the durability logs.
func (p *Proxy) bootstrap() error {
	coord := p.shards[0]
	if coord.rlog != nil {
		rec, err := coord.rlog.Recover()
		switch {
		case err == nil && rec.HasCommit:
			return p.recover(rec)
		case err == nil, errors.Is(err, wal.ErrNoCheckpoint):
			// Nothing ever committed: a fresh deployment, or a first boot that
			// died before the coordinator's baseline checkpoint. Reinitialize;
			// a follower's stale baseline is superseded by the fresh one.
		default:
			return err
		}
	}
	for i, sh := range p.shards {
		oram, err := oramexec.InitORAMFor(sh.store, p.cfg.Key, p.shardParams(i), oramexec.Config{})
		if err != nil {
			return err
		}
		sh.exec = oramexec.New(oram, sh.store, oramexec.Config{})
	}
	p.epoch = 1
	p.beginEpochAllLocked()
	if coord.rlog != nil {
		// Baseline checkpoints, committed like any epoch, so a crash before
		// the first epoch commits recovers to an empty store.
		return p.commitSnapshot(0)
	}
	return nil
}

// commitSnapshot checkpoints every shard's ORAM metadata as it stands and
// commits it as epoch through the boundary's own commit sequence: bootstrap's
// baseline and recovery's replay epoch are epochs with nothing to flush.
func (p *Proxy) commitSnapshot(epoch uint64) error {
	p.job.epoch = epoch
	clear(p.commitErrs)
	p.commits.Run(stagePrepare)
	if err := firstError(p.commitErrs); err != nil {
		return err
	}
	err := p.runCommit(&p.job)
	clear(p.job.ckpts)
	return err
}

// recover implements §8 across all shards: roll each shadow-paged tree back
// to the last globally committed epoch (the coordinator's), rebuild proxy
// metadata from per-shard checkpoints, deterministically replay each shard's
// logged reads from the aborted epoch, and commit the replay as a recovery
// epoch under the same coordinator-commit protocol.
func (p *Proxy) recover(coordRec *wal.Recovery) error {
	committed := coordRec.CommittedEpoch
	// Phase 1: per-shard log reconstruction. No cross-shard dependency once
	// the committed epoch is known, so it runs concurrently.
	recs := make([]*wal.Recovery, len(p.shards))
	recs[0] = coordRec
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(p.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := p.shards[i].rlog.RecoverWithFloor(committed)
			if err != nil {
				errs[i] = fmt.Errorf("core: recovering shard %d: %w", i, err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The recovery epoch must cover every logged epoch of the dead
	// generation: the pipelined boundary can leave batch records of
	// committed+1 AND committed+2 behind, and the next generation reuses
	// epoch numbers starting after the recovery epoch. Committing the
	// replay under the highest aborted epoch seen on ANY shard pushes the
	// stale records at or below the committed floor, so a later crash can
	// never replay this generation again.
	recoveryEpoch := committed + 1
	for _, rec := range recs {
		if rec.MaxAbortedEpoch > recoveryEpoch {
			recoveryEpoch = rec.MaxAbortedEpoch
		}
	}
	// Phase 2: rollback, state rebuild, deterministic replay (concurrent);
	// only the recovery epoch's commit below needs ordering.
	replayed := make([]int, len(p.shards))
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := p.shards[i]
			rec := recs[i]
			if err := sh.store.RollbackTo(committed); err != nil {
				errs[i] = err
				return
			}
			oram, err := ringoram.Restore(p.cfg.Key, p.shardParams(i), rec.Full, rec.Deltas...)
			if err != nil {
				errs[i] = err
				return
			}
			sh.exec = oramexec.New(oram, sh.store, oramexec.Config{})
			// The upper levels live in the proxy and storage holds only their
			// blocks: fetch them before anything reads a path.
			if err := sh.exec.LoadResident(); err != nil {
				errs[i] = fmt.Errorf("core: shard %d: %w", i, err)
				return
			}
			sh.exec.BeginEpoch(recoveryEpoch)
			for _, batch := range rec.AbortedBatches {
				if err := sh.exec.ReplayBatch(batch); err != nil {
					errs[i] = fmt.Errorf("core: shard %d replaying aborted epoch: %w", i, err)
					return
				}
				replayed[i] += len(batch)
			}
			if len(rec.AbortedBatches) > 0 {
				if _, err := sh.exec.Flush(); err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, n := range replayed {
		p.replayedLast += n
	}
	p.stats.RecoveryReplayed += p.replayedLast
	if err := p.commitSnapshot(recoveryEpoch); err != nil {
		return err
	}
	// The recovery checkpoint is full and now durably committed everywhere:
	// it re-anchors the log floor, so a crash loop cannot grow the log.
	if err := p.retireLogs(); err != nil {
		return err
	}
	p.epoch = recoveryEpoch + 1
	p.beginEpochAllLocked()
	return nil
}
