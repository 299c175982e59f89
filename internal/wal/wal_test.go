package wal

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
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

// schedule is a test log's public schedule, R read batches of bread and one
// write batch of bwrite, and its checkpoint cadence; a zero field selects the
// default.
type schedule struct{ r, bread, bwrite, cadence int }

// publicOf is the public value of a log over o: o's parameters with the
// schedule s. A delta checkpoint's position map pads to r·bread + bwrite.
func publicOf(t testing.TB, o *ringoram.ORAM, s schedule) *meta.Public {
	t.Helper()
	pub, err := meta.NewPublic(o.Machine().Params(), s.r, s.bread, s.bwrite, s.cadence)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// restoreRecovery restores a client shaped like o from rec's images.
func restoreRecovery(t testing.TB, o *ringoram.ORAM, rec *Recovery) *ringoram.ORAM {
	t.Helper()
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("wal")), o.Machine().Params(), rec.Full, rec.Deltas...)
	if err != nil {
		t.Fatal(err)
	}
	return restored
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

// appendCheckpoint logs m's epoch-end checkpoint durably: PrepareCheckpoint,
// AppendPrepared and Sync. It returns whether the checkpoint was full.
func appendCheckpoint(l *Log, epoch uint64, m *meta.Machine) (bool, error) {
	cp, err := l.PrepareCheckpoint(epoch, m)
	if err != nil {
		return false, err
	}
	full, err := l.AppendPrepared(cp)
	if err == nil {
		err = l.Sync()
	}
	return full, err
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
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{cadence: 1})})

	seed(t, o, backend, exec, 1, 5)
	if full, err := appendCheckpoint(l, 1, o.Machine()); err != nil || !full {
		t.Fatalf("checkpoint: full=%v err=%v", full, err)
	}
	rec, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 1 {
		t.Fatalf("committed epoch = %d", rec.CommittedEpoch)
	}
	if info, err := meta.InspectImage(rec.Full); err != nil || !info.Full {
		t.Fatalf("no full checkpoint recovered: %+v, %v", info, err)
	}
	restored := restoreRecovery(t, o, rec)
	a0, e0 := o.Machine().Counters()
	a1, e1 := restored.Machine().Counters()
	if a0 != a1 || e0 != e1 {
		t.Fatalf("counters: %d/%d vs %d/%d", a0, e0, a1, e1)
	}
}

func TestRecoverAppliesDeltas(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{r: 1, bread: 4, bwrite: 4, cadence: 3})})

	for e := uint64(1); e <= 5; e++ {
		seed(t, o, backend, exec, e, 3)
		if _, err := appendCheckpoint(l, e, o.Machine()); err != nil {
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
	restored := restoreRecovery(t, o, rec)
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
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{cadence: 1})})

	seed(t, o, backend, exec, 1, 4)
	if _, err := appendCheckpoint(l, 1, o.Machine()); err != nil {
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
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{cadence: 1})})

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
	if _, err := appendCheckpoint(l, 1, o.Machine()); err != nil {
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
	l := newLog(t, backend, Config{Shard: 1, Shards: 2, Public: publicOf(t, o, schedule{})})
	if _, err := l.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recover of an empty log: %v", err)
	}
	if _, err := appendCheckpoint(l, 1, o.Machine()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recover with only a prepared checkpoint above the floor: %v", err)
	}
}

func TestPaddingMakesDeltasConstantSize(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{r: 1, bread: 8, bwrite: 8, cadence: 100})})

	// Epoch 1's checkpoint is full (always, for recoverability); epochs 2
	// and 3 produce deltas with very different touched-key counts. The
	// deltas' position-map entry counts must be indistinguishable.
	seed(t, o, backend, exec, 1, 2)
	if full, err := appendCheckpoint(l, 1, o.Machine()); err != nil || !full {
		t.Fatalf("first checkpoint: full=%v err=%v", full, err)
	}
	seed(t, o, backend, exec, 2, 1) // touches 1 key
	if full, err := appendCheckpoint(l, 2, o.Machine()); err != nil || full {
		t.Fatalf("second checkpoint: full=%v err=%v", full, err)
	}
	seed(t, o, backend, exec, 3, 8) // touches 8 keys
	if full, err := appendCheckpoint(l, 3, o.Machine()); err != nil || full {
		t.Fatalf("third checkpoint: full=%v err=%v", full, err)
	}
	recs, err := backend.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints 2 and 3 dirtied the same buckets' worth of public schedule
	// or not — what must not differ is the padded part: entry counts.
	var infos []meta.ImageInfo
	for _, r := range recs {
		if r[0] != kindCheckpointCommitting {
			continue
		}
		plain, err := l.open(r, checkpointHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		info, err := meta.InspectImage(plain[checkpointHeaderSize:])
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
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{r: 1, bread: 16, bwrite: 16, cadence: 2})})
	for e := uint64(1); e <= 2; e++ {
		seed(t, o, backend, exec, e, 3)
		if _, err := appendCheckpoint(l, e, o.Machine()); err != nil {
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
	restored := restoreRecovery(t, o, rec)
	if restored.Machine().KeyCount() != o.Machine().KeyCount() || restored.Machine().StashSize() != o.Machine().StashSize() {
		t.Fatalf("restored client holds %d keys and %d stash blocks, live client %d and %d",
			restored.Machine().KeyCount(), restored.Machine().StashSize(), o.Machine().KeyCount(), o.Machine().StashSize())
	}
}

// tamperingStore is a log store whose Scan hands its records to tamper, when
// set, before recovery reads them, as a storage server rewriting the log
// would.
type tamperingStore struct {
	storage.LogStore
	tamper func(recs [][]byte)
}

func (s *tamperingStore) Scan(from uint64) ([][]byte, error) {
	recs, err := s.LogStore.Scan(from)
	if err == nil && s.tamper != nil {
		s.tamper(recs)
	}
	return recs, err
}

func TestTamperedRecordRejected(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	// The store flips a byte in the middle of the first record.
	store := &tamperingStore{LogStore: backend, tamper: func(recs [][]byte) { recs[0][len(recs[0])/2] ^= 0xFF }}
	l := newLog(t, store, Config{Public: publicOf(t, o, schedule{cadence: 1})})
	seed(t, o, backend, exec, 1, 2)
	if _, err := appendCheckpoint(l, 1, o.Machine()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); err == nil {
		t.Fatal("tampered log accepted")
	}
}

func TestTruncateDropsOldRecords(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{cadence: 2})})
	for e := uint64(1); e <= 6; e++ {
		seed(t, o, backend, exec, e, 2)
		if _, err := appendCheckpoint(l, e, o.Machine()); err != nil {
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
	restoreRecovery(t, o, rec)
}

func TestRecoverStats(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{cadence: 1})})
	seed(t, o, backend, exec, 1, 4)
	if _, err := appendCheckpoint(l, 1, o.Machine()); err != nil {
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

// TestCheckpointNeedsPublic: a log built without the public parameters logs
// batch records and recovers, but has no pads to checkpoint with, so it
// refuses to rather than write an unpadded image.
func TestCheckpointNeedsPublic(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	seed(t, o, backend, exec, 1, 2)
	if _, err := appendCheckpoint(newLog(t, backend, Config{Public: publicOf(t, o, schedule{})}), 1, o.Machine()); err != nil {
		t.Fatal(err)
	}
	l := newLog(t, backend, Config{})
	exec.BeginEpoch(2)
	plan, err := exec.PlanReadBatch([]oramexec.ReadOp{{Key: "e1-k0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(2, 0, plan.Log()); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if rec, err := l.Recover(); err != nil || len(rec.AbortedBatches) != 1 {
		t.Fatalf("recovery without the public parameters: %v", err)
	}
	if _, err := l.PrepareCheckpoint(2, o.Machine()); err == nil {
		t.Fatal("a log without the public parameters prepared a checkpoint")
	}
	if recs, _ := backend.Scan(0); len(recs) != 2 {
		t.Fatalf("%d records in the store, want the checkpoint and the batch", len(recs))
	}
}

// TestCheckpointsFromMetaAlone pins the layering: the log checkpoints the
// public machine through its byte-plane interface (ringoram/meta), so no
// non-test file of the package imports the byte plane (ringoram) or the
// executor that drives it (oramexec).
func TestCheckpointsFromMetaAlone(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "obladi/internal/ringoram", "obladi/internal/oramexec":
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test file parsed")
	}
}

// TestLogOwnsItsCheckpoints: a log appends only the checkpoint it prepared,
// and once; it keeps no full image past its append; and its delta
// checkpoints are encoded into one buffer, the next reusing the last's.
func TestLogOwnsItsCheckpoints(t *testing.T) {
	o, backend := testORAM(t)
	exec := oramexec.New(o, backend, oramexec.Config{})
	l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{r: 1, bread: 4, bwrite: 4, cadence: 4})})
	other := newLog(t, backend, Config{Public: publicOf(t, o, schedule{r: 1, bread: 4, bwrite: 4, cadence: 4})})
	seed(t, o, backend, exec, 1, 3)
	cp, err := l.PrepareCheckpoint(1, o.Machine())
	if err != nil || !cp.full {
		t.Fatalf("first checkpoint: %v, full %v", err, err == nil && cp.full)
	}
	if _, err := other.AppendPrepared(cp); err == nil {
		t.Fatal("a log appended a checkpoint another log prepared")
	}
	if _, err := l.AppendPrepared(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPrepared(cp); err == nil {
		t.Fatal("a checkpoint was appended twice")
	}
	if cp.rec != nil || l.deltaRec != nil {
		t.Fatal("the log keeps the full image after its append")
	}
	var deltas []*byte
	for epoch := uint64(2); epoch <= 4; epoch++ {
		seed(t, o, backend, exec, epoch, 3)
		if cp, err = l.PrepareCheckpoint(epoch, o.Machine()); err != nil || cp.full {
			t.Fatalf("epoch %d: %v, full %v", epoch, err, err == nil && cp.full)
		}
		deltas = append(deltas, &cp.rec[0])
		if _, err := l.AppendPrepared(cp); err != nil {
			t.Fatal(err)
		}
	}
	if deltas[0] != deltas[1] || deltas[1] != deltas[2] {
		t.Fatal("each delta checkpoint was encoded into a buffer of its own")
	}
	rec, err := l.Recover()
	if err != nil || len(rec.Deltas) != 3 {
		t.Fatalf("recovering the log: %v", err)
	}
	want, err := o.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restoreRecovery(t, o, rec).Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the recovered metadata differs from the live one (%v)", err)
	}
}
