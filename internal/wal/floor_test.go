package wal

import (
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
)

// scheduler plans batches over a scratch ORAM so tests have real schedules
// to log without disturbing the client they checkpoint.
type scheduler struct {
	t    *testing.T
	exec *oramexec.Executor
}

func newScheduler(t *testing.T) scheduler {
	o, backend := testORAM(t)
	return scheduler{t: t, exec: oramexec.New(o, backend, oramexec.Config{})}
}

// access returns the log of a one-read batch for key.
func (s scheduler) access(key string) oramexec.BatchLog {
	s.t.Helper()
	plan, err := s.exec.PlanReadBatch([]oramexec.ReadOp{{Key: key}})
	if err != nil {
		s.t.Fatal(err)
	}
	return plan.Log()
}

// bump returns the log of a write batch holding one padding slot.
func (s scheduler) bump() oramexec.BatchLog {
	s.t.Helper()
	plan, err := s.exec.PlanWriteBatch([]oramexec.WriteOp{{}})
	if err != nil {
		s.t.Fatal(err)
	}
	return plan.Log()
}

// TestRecoverWithFloor models the lagging shard of a torn cross-shard commit:
// its log holds the prepared checkpoint for an epoch the coordinator decided,
// but not its own commit record. The floor must promote that epoch to
// committed; a floor with no matching checkpoint must fail loudly.
func TestRecoverWithFloor(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 prepared (checkpoint durable) but this shard's commit record
	// never made it.
	seed(t, o, backend, exec, 2, 4)
	if _, err := l.AppendCheckpoint(2, o); err != nil {
		t.Fatal(err)
	}

	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 1 {
		t.Fatalf("own recovery committed epoch = %d, want 1", rec.CommittedEpoch)
	}

	// Coordinator says epoch 2 committed: the floor promotes it.
	rec, err = l.RecoverWithFloor(2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 2 {
		t.Fatalf("floored recovery committed epoch = %d, want 2", rec.CommittedEpoch)
	}
	// The epoch-2 checkpoint must be part of the recovered state: its
	// position map knows the keys written in epoch 2 as well as epoch 1's.
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if restored.KeyCount() != 8 {
		t.Fatalf("floored recovery restores %d keys, want 8: the promoted epoch's checkpoint is missing", restored.KeyCount())
	}

	// A floor beyond any durable checkpoint is a protocol violation.
	if _, err := l.RecoverWithFloor(3); err == nil {
		t.Fatal("floor without a matching checkpoint accepted")
	}
}

// TestRecoverPipelinedTwoEpochsInFlight models a crash with the pipelined
// boundary mid-commit: epoch 2 is sealed (its batches and checkpoint are
// logged) but its commit record never landed, while epoch 3 had already
// issued read batches. Recovery must report epoch 1 as committed and return
// the batches of BOTH uncommitted epochs, in schedule order.
func TestRecoverPipelinedTwoEpochsInFlight(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t)
	// Sealed epoch 2: read batch + write batch logged, checkpoint prepared
	// at seal and appended by the committer, no commit record (the crash).
	if err := l.AppendBatch(2, 0, sched.access("e2-r")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(2, 1, sched.bump()); err != nil {
		t.Fatal(err)
	}
	cp, err := l.PrepareCheckpoint(2, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPrepared(cp); err != nil {
		t.Fatal(err)
	}
	// Epoch 3 was already reading while epoch 2's commit was in flight.
	if err := l.AppendBatch(3, 0, sched.access("e3-r")); err != nil {
		t.Fatal(err)
	}

	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 1 {
		t.Fatalf("committed epoch = %d, want 1", rec.CommittedEpoch)
	}
	if len(rec.AbortedBatches) != 3 {
		t.Fatalf("aborted batches = %d, want 3 (two of epoch 2, one of epoch 3)", len(rec.AbortedBatches))
	}
	if rec.AbortedBatches[0][0].Key != "e2-r" || rec.AbortedBatches[1][0].Kind != oramexec.LogWriteBump || rec.AbortedBatches[2][0].Key != "e3-r" {
		t.Fatalf("aborted batches out of schedule order: %+v", rec.AbortedBatches)
	}
	// Recovery commits its replay under the HIGHEST aborted epoch so these
	// records can never be replayed by a later crash.
	if rec.MaxAbortedEpoch != 3 {
		t.Fatalf("max aborted epoch = %d, want 3", rec.MaxAbortedEpoch)
	}
}

// TestTruncateKeepsLiveBatchRecords pins down truncation under the pipelined
// boundary: epoch 3's batch record lands in the log BEFORE epoch 2's
// checkpoint and commit records (the committer was still flushing), and a
// truncation after commit(2) must not drop it — it is epoch 3's crash-replay
// schedule.
func TestTruncateKeepsLiveBatchRecords(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t)
	// Epoch 2 seals; epoch 3's first read batch is appended while the
	// committer is still writing epoch 2's checkpoint and commit records.
	if err := l.AppendBatch(2, 0, sched.access("e2-r")); err != nil {
		t.Fatal(err)
	}
	cp, err := l.PrepareCheckpoint(2, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(3, 0, sched.access("e3-r")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPrepared(cp); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(2); err != nil {
		t.Fatal(err)
	}

	if err := l.Retire(2); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatalf("recover after truncation: %v", err)
	}
	if rec.CommittedEpoch != 2 {
		t.Fatalf("committed epoch = %d, want 2", rec.CommittedEpoch)
	}
	if len(rec.AbortedBatches) != 1 || rec.AbortedBatches[0][0].Key != "e3-r" {
		t.Fatalf("truncation dropped epoch 3's live batch record: %+v", rec.AbortedBatches)
	}
	// The prefix before the live batch record IS gone: of the six appended
	// records, only [batch(3,0), checkpoint(2), commit(2)] remain.
	recs, err := backend.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("log holds %d records after truncation, want 3", len(recs))
	}
}
