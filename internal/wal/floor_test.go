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

// TestRecoverWithFloor models a follower of a torn cross-shard commit: its log
// holds prepared checkpoints only, and which of them count is the
// coordinator's decision. The floor promotes exactly the epochs at or below
// it; a floor with no matching checkpoint must fail loudly.
func TestRecoverWithFloor(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1, Shard: 1, Shards: 2})

	for e := uint64(1); e <= 2; e++ {
		seed(t, o, backend, exec, e, 4)
		if _, err := l.AppendCheckpoint(e, o); err != nil {
			t.Fatal(err)
		}
	}
	// The coordinator committed epoch 1 and died before committing epoch 2
	// (floor 1), or got as far as its committing checkpoint (floor 2). Each
	// epoch's checkpoint knows the 4 keys it wrote and every earlier one.
	for floor := uint64(1); floor <= 2; floor++ {
		rec, err := l.RecoverWithFloor(floor)
		if err != nil {
			t.Fatal(err)
		}
		if rec.CommittedEpoch != floor || rec.HasCommit {
			t.Fatalf("floor %d: committed epoch %d, HasCommit %v; a follower commits nothing itself", floor, rec.CommittedEpoch, rec.HasCommit)
		}
		restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...)
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 * int(floor); restored.KeyCount() != want {
			t.Fatalf("floor %d restores %d keys, want %d", floor, restored.KeyCount(), want)
		}
	}
	// A floor beyond any durable checkpoint is a protocol violation.
	if _, err := l.RecoverWithFloor(3); err == nil {
		t.Fatal("floor without a matching checkpoint accepted")
	}
}

// TestRecoverPipelinedTwoEpochsInFlight models a crash with the pipelined
// boundary mid-commit, seen from a follower: epoch 2 is sealed (its batches
// and prepared checkpoint are logged) but the coordinator never committed it,
// while epoch 3 had already issued read batches. Recovery at the coordinator's
// floor must report epoch 1 as committed and return the batches of BOTH
// uncommitted epochs, in schedule order.
func TestRecoverPipelinedTwoEpochsInFlight(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1, Shard: 1, Shards: 2})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t)
	// Sealed epoch 2: read batch + write batch logged, checkpoint prepared
	// at seal and appended by the committer; the coordinator's never was.
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

	rec, err := l.RecoverWithFloor(1)
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
// checkpoint (the committer was still flushing), and a truncation after
// epoch 2 committed must not drop it — it is epoch 3's crash-replay schedule.
func TestTruncateKeepsLiveBatchRecords(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t)
	// Epoch 2 seals; epoch 3's first read batch is appended while the
	// committer is still writing epoch 2's committing checkpoint.
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
	// The prefix before the live batch record IS gone: of the four appended
	// records, only [batch(3,0), checkpoint(2)] remain.
	recs, err := backend.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("log holds %d records after truncation, want 2", len(recs))
	}
}

// TestFollowerCannotCommit: which log may write the committing checkpoint is
// the log's own business, not its caller's. A checkpoint prepared by the
// coordinator's log is refused by a follower's, and the other way round.
func TestFollowerCannotCommit(t *testing.T) {
	o, backend := testORAM(t)
	coord := newLog(t, backend, Config{Shard: 0, Shards: 2})
	follower := newLog(t, backend, Config{Shard: 1, Shards: 2})
	committing, err := coord.PrepareCheckpoint(1, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.AppendPrepared(committing); err == nil {
		t.Fatal("a follower's log wrote a committing checkpoint")
	}
	prepared, err := follower.PrepareCheckpoint(1, o)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCommitRecord(committing.rec) || IsCommitRecord(prepared.rec) {
		t.Fatalf("coordinator prepared kind %d, follower kind %d", committing.rec[0], prepared.rec[0])
	}
	if _, err := coord.AppendPreparedDeferred(prepared); err == nil {
		t.Fatal("the coordinator's log wrote a checkpoint that commits nothing")
	}
	if recs, _ := backend.Scan(0); len(recs) != 0 {
		t.Fatalf("%d records reached the store", len(recs))
	}
}

// TestCommittingMarkIsAuthenticated: the kind byte is plaintext framing, but
// it is bound into the record's AEAD — the store can neither promote a
// follower's prepared checkpoint to a commit nor strip the mark from the
// coordinator's.
func TestCommittingMarkIsAuthenticated(t *testing.T) {
	for _, shard := range []int{0, 1} {
		o, backend := testORAM(t)
		l := newLog(t, backend, Config{Shard: shard, Shards: 2})
		if _, err := l.AppendCheckpoint(1, o); err != nil {
			t.Fatal(err)
		}
		if _, err := l.RecoverWithFloor(1); err != nil {
			t.Fatalf("shard %d: recovering the untouched log: %v", shard, err)
		}
		recs, _ := backend.Scan(0)
		recs[0][0] ^= kindCheckpoint ^ kindCheckpointCommitting
		if _, err := l.RecoverWithFloor(1); err == nil {
			t.Fatalf("shard %d: a checkpoint whose kind byte was flipped to %d recovered", shard, recs[0][0])
		}
		if _, ok, err := l.DecodeCommitEpoch(recs[0]); shard == 1 && (ok || err == nil) {
			t.Fatal("a prepared checkpoint relabelled as committing decoded as a commit")
		}
	}
}
