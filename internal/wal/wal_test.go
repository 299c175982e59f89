package wal

import (
	"errors"
	"fmt"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

func testORAM(t testing.TB) (*ringoram.ORAM, *storage.MemBackend) {
	t.Helper()
	p := ringoram.Params{NumBlocks: 64, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 32, Seed: 17}
	backend := storage.NewMemBackend(p.Geometry().NumBuckets)
	o, err := oramexec.InitORAM(backend, cryptoutil.KeyFromSeed([]byte("wal")), p)
	if err != nil {
		t.Fatal(err)
	}
	return o, backend
}

func newLog(t testing.TB, store storage.LogStore, cfg Config) *Log {
	t.Helper()
	if cfg.Key == nil {
		cfg.Key = cryptoutil.KeyFromSeed([]byte("wal"))
	}
	l, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// seed runs a tiny workload so the ORAM has state worth checkpointing.
func seed(t *testing.T, o *ringoram.ORAM, backend *storage.MemBackend, exec *oramexec.Executor, epoch uint64, n int) {
	t.Helper()
	exec.BeginEpoch(epoch)
	var ops []oramexec.WriteOp
	for i := 0; i < n; i++ {
		ops = append(ops, oramexec.WriteOp{Key: fmt.Sprintf("e%d-k%d", epoch, i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	plan, err := exec.PlanWriteBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := backend.CommitEpoch(epoch); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCommitRecover(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 5)
	if full, err := l.AppendCheckpoint(1, o); err != nil || !full {
		t.Fatalf("checkpoint: full=%v err=%v", full, err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 1 {
		t.Fatalf("committed epoch = %d", rec.CommittedEpoch)
	}
	if info, err := ringoram.InspectImage(rec.Full); err != nil || !info.Full {
		t.Fatalf("no full checkpoint recovered: %+v, %v", info, err)
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...)
	if err != nil {
		t.Fatal(err)
	}
	a0, e0 := o.Counters()
	a1, e1 := restored.Counters()
	if a0 != a1 || e0 != e1 {
		t.Fatalf("counters: %d/%d vs %d/%d", a0, e0, a1, e1)
	}
}

func TestRecoverAppliesDeltas(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 3, PadPosEntries: 8, PadStashEntries: 10})

	for e := uint64(1); e <= 5; e++ {
		seed(t, o, backend, exec, e, 3)
		if _, err := l.AppendCheckpoint(e, o); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 5 {
		t.Fatalf("committed epoch = %d", rec.CommittedEpoch)
	}
	if len(rec.Deltas) == 0 {
		t.Fatal("no deltas recovered despite FullCheckpointEvery=3")
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...)
	if err != nil {
		t.Fatal(err)
	}
	// All five epochs' keys must be readable through a fresh executor.
	exec2 := oramexec.New(restored, backend, oramexec.Config{})
	if err := exec2.LoadResident(); err != nil {
		t.Fatal(err)
	}
	exec2.BeginEpoch(6)
	var ops []oramexec.ReadOp
	for e := 1; e <= 5; e++ {
		ops = append(ops, oramexec.ReadOp{Key: fmt.Sprintf("e%d-k0", e)})
	}
	plan, err := exec2.PlanReadBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec2.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Found || string(r.Value) != "v0" {
			t.Fatalf("%s = %q (found=%v)", r.Key, r.Value, r.Found)
		}
	}
}

func TestRecoverAbortedBatches(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 in flight: two batches logged, then crash (no commit).
	exec.BeginEpoch(2)
	plan, err := exec.PlanReadBatch([]oramexec.ReadOp{{Key: "e1-k0"}, {Key: "e1-k1"}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged := plan.Log().Len()
	if err := l.AppendBatch(2, 0, plan.Log()); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	plan2, err := exec.PlanReadBatch([]oramexec.ReadOp{{Key: "e1-k2"}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(2, 1, plan2.Log()); err != nil {
		t.Fatal(err)
	}

	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 1 {
		t.Fatalf("committed epoch = %d", rec.CommittedEpoch)
	}
	if len(rec.AbortedBatches) != 2 {
		t.Fatalf("aborted batches = %d, want 2", len(rec.AbortedBatches))
	}
	if len(rec.AbortedBatches[0]) != logged {
		t.Fatalf("batch 0: %d entries, logged %d", len(rec.AbortedBatches[0]), logged)
	}
}

func TestRecoverIgnoresCommittedEpochBatches(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})

	exec.BeginEpoch(1)
	plan, err := exec.PlanWriteBatch([]oramexec.WriteOp{{Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(1, 0, plan.Log()); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Flush(); err != nil {
		t.Fatal(err)
	}
	backend.CommitEpoch(1)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.AbortedBatches) != 0 {
		t.Fatalf("committed epoch's batches reported as aborted: %d", len(rec.AbortedBatches))
	}
}

// TestRecoverNoCheckpoint: a follower's prepared checkpoint counts for nothing
// until the coordinator's floor reaches its epoch.
func TestRecoverNoCheckpoint(t *testing.T) {
	o, backend := testORAM(t)
	l := newLog(t, backend, Config{Shard: 1, Shards: 2})
	if _, err := l.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recover of an empty log: %v", err)
	}
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recover with only a prepared checkpoint above the floor: %v", err)
	}
}

func TestPaddingMakesDeltasConstantSize(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 100, PadPosEntries: 16, PadStashEntries: 12, PadValueSize: 32})

	// Epoch 1's checkpoint is full (always, for recoverability); epochs 2
	// and 3 produce deltas with very different touched-key counts. The
	// deltas' position-map entry counts must be indistinguishable.
	seed(t, o, backend, exec, 1, 2)
	if full, err := l.AppendCheckpoint(1, o); err != nil || !full {
		t.Fatalf("first checkpoint: full=%v err=%v", full, err)
	}
	seed(t, o, backend, exec, 2, 1) // touches 1 key
	if full, err := l.AppendCheckpoint(2, o); err != nil || full {
		t.Fatalf("second checkpoint: full=%v err=%v", full, err)
	}
	seed(t, o, backend, exec, 3, 8) // touches 8 keys
	if full, err := l.AppendCheckpoint(3, o); err != nil || full {
		t.Fatalf("third checkpoint: full=%v err=%v", full, err)
	}
	recs, err := backend.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints 2 and 3 dirtied the same buckets' worth of public schedule
	// or not — what must not differ is the padded part: entry counts.
	var infos []ringoram.ImageInfo
	for _, r := range recs {
		if r[0] != kindCheckpointCommitting {
			continue
		}
		plain, err := l.open(r, checkpointHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		info, err := ringoram.InspectImage(plain[checkpointHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	if len(infos) != 3 || infos[1].Full || infos[2].Full {
		t.Fatalf("checkpoints: %+v", infos)
	}
	if infos[1].PosEntries != 16 || infos[2].PosEntries != 16 {
		t.Fatalf("padded pos sizes: %d and %d, want 16", infos[1].PosEntries, infos[2].PosEntries)
	}
}

func TestPaddingStaysOutOfRestoredState(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 2, PadPosEntries: 32, PadStashEntries: 16, PadValueSize: 8})
	for e := uint64(1); e <= 2; e++ {
		seed(t, o, backend, exec, e, 3)
		if _, err := l.AppendCheckpoint(e, o); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deltas) != 1 {
		t.Fatalf("recovered %d deltas, want the padded one of epoch 2", len(rec.Deltas))
	}
	// Restoring must succeed and hold exactly the live client's keys and
	// stash: padding entries are dropped, never applied.
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if restored.KeyCount() != o.KeyCount() || restored.StashSize() != o.StashSize() {
		t.Fatalf("restored client holds %d keys and %d stash blocks, live client %d and %d",
			restored.KeyCount(), restored.StashSize(), o.KeyCount(), o.StashSize())
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})
	seed(t, o, backend, exec, 1, 2)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	recs, _ := backend.Scan(0)
	recs[0][len(recs[0])/2] ^= 0xFF
	if _, err := l.Recover(); err == nil {
		t.Fatal("tampered log accepted")
	}
}

func TestTruncateDropsOldRecords(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 2})
	for e := uint64(1); e <= 6; e++ {
		seed(t, o, backend, exec, e, 2)
		if _, err := l.AppendCheckpoint(e, o); err != nil {
			t.Fatal(err)
		}
		if err := l.Retire(e); err != nil {
			t.Fatal(err)
		}
	}
	// Retiring every epoch cuts once per full checkpoint with anything
	// before it (epochs 3 and 5; epoch 1's heads the log) and leaves the
	// newest one and its delta.
	after, _ := backend.Scan(0)
	if len(after) != 2 {
		t.Fatalf("log holds %d records after retiring, want 2", len(after))
	}
	if st := l.Stats(); st.Truncations != 2 || st.Records != 2 || st.FloorSeq != 5 {
		t.Fatalf("lifecycle stats = %+v, want 2 truncations, 2 records from seq 5", st)
	}
	// The head of the log is a committing full checkpoint: that alone says
	// the log has committed.
	// Recovery still works from the truncated log.
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 6 || !rec.HasCommit {
		t.Fatalf("after truncate: committed epoch %d, HasCommit %v", rec.CommittedEpoch, rec.HasCommit)
	}
	if _, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Params(), rec.Full, rec.Deltas...); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverStats(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{FullCheckpointEvery: 1})
	seed(t, o, backend, exec, 1, 4)
	if _, err := l.AppendCheckpoint(1, o); err != nil {
		t.Fatal(err)
	}
	exec.BeginEpoch(2)
	plan, err := exec.PlanReadBatch([]oramexec.ReadOp{{Key: "e1-k0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(2, 0, plan.Log()); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.BytesRead == 0 || rec.Stats.PosEntries == 0 || rec.Stats.PermBuckets == 0 {
		t.Fatalf("stats not collected: %+v", rec.Stats)
	}
	if rec.Stats.PathEntries == 0 {
		t.Fatal("path entries not counted")
	}
}

func TestNilKeyRejected(t *testing.T) {
	_, backend := testORAM(t)
	if _, err := New(backend, Config{}); err == nil {
		t.Fatal("nil key accepted")
	}
}
