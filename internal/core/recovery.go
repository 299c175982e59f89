package core

import (
	"errors"
	"fmt"

	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
	"obladi/internal/wal"
)

// bootstrap initializes fresh ORAMs or recovers from the durability logs.
// Either way the per-shard work runs as stages on the committer's fan-out,
// like every boundary's.
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
	if err := p.commitRound(stageInit); err != nil {
		return err
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

// initShard is shard sh's part of bootstrap: write its fresh tree and build
// its executor over it.
func (p *Proxy) initShard(sh *shard) error {
	oram, err := oramexec.InitORAMFor(sh.store, p.cfg.Key, p.shardParams(sh.id), oramexec.Config{})
	if err != nil {
		return err
	}
	sh.exec = oramexec.New(oram, sh.store, oramexec.Config{})
	return nil
}

// commitSnapshot checkpoints every shard's ORAM metadata as it stands and
// commits it as epoch through the boundary's own commit sequence: bootstrap's
// baseline and recovery's replay epoch are epochs with nothing to flush.
func (p *Proxy) commitSnapshot(epoch uint64) error {
	p.job.epoch = epoch
	if err := p.commitRound(stagePrepare); err != nil {
		return err
	}
	err := p.runCommit(&p.job)
	clear(p.job.ckpts)
	return err
}

// recovery is what recover's per-shard stages read and fill.
type recovery struct {
	committed uint64          // the coordinator's committed epoch, every follower's floor
	epoch     uint64          // the epoch the replay commits as
	recs      []*wal.Recovery // each shard's recovered log
}

// recover implements §8 across all shards: roll each shadow-paged tree back
// to the last globally committed epoch (the coordinator's), rebuild proxy
// metadata from per-shard checkpoints, deterministically replay each shard's
// logged reads from the aborted epoch, and commit the replay as a recovery
// epoch under the same coordinator-commit protocol.
func (p *Proxy) recover(coordRec *wal.Recovery) error {
	r := &recovery{
		committed: coordRec.CommittedEpoch,
		recs:      make([]*wal.Recovery, len(p.shards)),
	}
	r.recs[0] = coordRec
	// The recovered logs hold whole checkpoint images: the proxy keeps them
	// only while it recovers.
	p.rec = r
	defer func() { p.rec = nil }()
	// Phase 1: every follower's log, with the committed epoch as its floor.
	if err := p.commitRound(stageScan); err != nil {
		return err
	}
	// The recovery epoch must cover every logged epoch of the dead
	// generation: the pipelined boundary can leave batch records of
	// committed+1 AND committed+2 behind, and the next generation reuses
	// epoch numbers starting after the recovery epoch. Committing the
	// replay under the highest aborted epoch seen on ANY shard pushes the
	// stale records at or below the committed floor, so a later crash can
	// never replay this generation again.
	r.epoch = r.committed + 1
	for _, rec := range r.recs {
		r.epoch = max(r.epoch, rec.MaxAbortedEpoch)
	}
	// Phase 2: rollback, state rebuild, deterministic replay; only the
	// recovery epoch's commit below needs ordering across shards.
	if err := p.commitRound(stageRestore); err != nil {
		return err
	}
	for _, rec := range r.recs {
		for _, batch := range rec.AbortedBatches {
			for _, le := range batch {
				if le.Kind == meta.AccessStep {
					p.stats.RecoveryReplayed++
				}
			}
		}
	}
	if err := p.commitSnapshot(r.epoch); err != nil {
		return err
	}
	// The recovery checkpoint is full and now durably committed everywhere:
	// it re-anchors the log floor, so a crash loop cannot grow the log.
	if err := p.retireLogs(); err != nil {
		return err
	}
	p.epoch = r.epoch + 1
	p.beginEpochAllLocked()
	return nil
}

// scanShard is a follower's part of recovery's first phase: its log,
// recovered with the coordinator's committed epoch as the floor.
func (p *Proxy) scanShard(sh *shard) error {
	if sh.id == 0 {
		return nil // the coordinator's log is already read
	}
	rec, err := sh.rlog.RecoverWithFloor(p.rec.committed)
	if err != nil {
		return fmt.Errorf("core: recovering shard %d: %w", sh.id, err)
	}
	p.rec.recs[sh.id] = rec
	return nil
}

// restoreShard is shard sh's part of recovery's second phase: roll its tree
// back to the committed epoch, rebuild its metadata from its checkpoints,
// load the resident levels, and replay the aborted epochs' logged batches
// under the recovery epoch, flushing what they rewrote.
func (p *Proxy) restoreShard(sh *shard) error {
	r, rec := p.rec, p.rec.recs[sh.id]
	if err := sh.store.RollbackTo(r.committed); err != nil {
		return err
	}
	oram, err := ringoram.Restore(p.cfg.Key, p.shardParams(sh.id), rec.Full, rec.Deltas...)
	if err != nil {
		return err
	}
	sh.exec = oramexec.New(oram, sh.store, oramexec.Config{})
	// The upper levels live in the proxy and storage holds only their
	// blocks: fetch them before anything reads a path.
	if err := sh.exec.LoadResident(); err != nil {
		return fmt.Errorf("core: shard %d: %w", sh.id, err)
	}
	sh.exec.BeginEpoch(r.epoch)
	for _, batch := range rec.AbortedBatches {
		if err := sh.exec.ReplayBatch(batch); err != nil {
			return fmt.Errorf("core: shard %d replaying aborted epoch: %w", sh.id, err)
		}
	}
	if len(rec.AbortedBatches) == 0 {
		return nil
	}
	_, err = sh.exec.Flush()
	return err
}
