package oramexec

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

func testParams(n int, seed uint64) ringoram.Params {
	return ringoram.Params{
		NumBlocks: n,
		Z:         4,
		S:         6,
		A:         4,
		KeySize:   16,
		ValueSize: 32,
		Seed:      seed,
	}
}

type harness struct {
	backend *storage.MemBackend
	checker *storage.InvariantChecker
	rec     *storage.Recorder
	oram    *ringoram.ORAM
	exec    *Executor
	epoch   uint64
}

func newHarness(t *testing.T, p ringoram.Params, cfg Config) *harness {
	t.Helper()
	backend := storage.NewMemBackend(p.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	rec := storage.NewRecorder(checker)
	oram, err := InitORAM(rec, cryptoutil.KeyFromSeed([]byte("exec")), p)
	if err != nil {
		t.Fatal(err)
	}
	exec := New(oram, rec, cfg)
	h := &harness{backend: backend, checker: checker, rec: rec, oram: oram, exec: exec}
	h.begin()
	return h
}

func (h *harness) begin() {
	h.epoch++
	h.exec.BeginEpoch(h.epoch)
}

// runReads executes one read batch and returns its results.
func (h *harness) runReads(t *testing.T, keys ...string) []ReadResult {
	t.Helper()
	ops := make([]ReadOp, len(keys))
	for i, k := range keys {
		ops[i].Key = k
	}
	plan, err := h.exec.PlanReadBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runWrites applies a write batch. Keys are applied in sorted order so runs
// are deterministic (map iteration order would otherwise vary the plans, and
// with them the ORAM's random slot choices, between runs).
func (h *harness) runWrites(t *testing.T, kv map[string]string, pad int) {
	t.Helper()
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]WriteOp, 0, len(kv)+pad)
	for _, k := range keys {
		ops = append(ops, WriteOp{Key: k, Value: []byte(kv[k])})
	}
	for i := 0; i < pad; i++ {
		ops = append(ops, WriteOp{})
	}
	plan, err := h.exec.PlanWriteBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
}

// endEpoch flushes and commits.
func (h *harness) endEpoch(t *testing.T) {
	t.Helper()
	if _, err := h.exec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.backend.CommitEpoch(h.epoch); err != nil {
		t.Fatal(err)
	}
	h.begin()
}

func (h *harness) checkInvariant(t *testing.T) {
	t.Helper()
	if v := h.checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

func TestExecutorWriteThenRead(t *testing.T) {
	h := newHarness(t, testParams(64, 1), Config{})
	h.runWrites(t, map[string]string{"a": "1", "b": "2"}, 2)
	h.endEpoch(t)
	res := h.runReads(t, "a", "b", "", "")
	if !res[0].Found || string(res[0].Value) != "1" {
		t.Fatalf("a = %+v", res[0])
	}
	if !res[1].Found || string(res[1].Value) != "2" {
		t.Fatalf("b = %+v", res[1])
	}
	if res[2].Found || res[3].Found {
		t.Fatal("padding dummies returned data")
	}
	h.checkInvariant(t)
}

func TestExecutorReadUnknown(t *testing.T) {
	h := newHarness(t, testParams(64, 2), Config{})
	res := h.runReads(t, "ghost")
	if res[0].Found {
		t.Fatal("unknown key found")
	}
	h.checkInvariant(t)
}

func TestExecutorMultiEpochChurn(t *testing.T) {
	h := newHarness(t, testParams(64, 3), Config{})
	oracle := make(map[string]string)
	rng := rand.New(rand.NewPCG(7, 9))
	for epoch := 0; epoch < 8; epoch++ {
		// One read batch over a random subset.
		var keys []string
		seen := make(map[string]bool)
		for len(keys) < 6 {
			k := fmt.Sprintf("k%d", rng.IntN(24))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		res := h.runReads(t, keys...)
		for _, r := range res {
			want, ok := oracle[r.Key]
			if ok != r.Found {
				t.Fatalf("epoch %d: %s found=%v, want %v", epoch, r.Key, r.Found, ok)
			}
			if ok && string(r.Value) != want {
				t.Fatalf("epoch %d: %s = %q, want %q", epoch, r.Key, r.Value, want)
			}
		}
		// One write batch.
		writes := make(map[string]string)
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", rng.IntN(24))
			v := fmt.Sprintf("v%d-%d", epoch, i)
			writes[k] = v
			oracle[k] = v
		}
		h.runWrites(t, writes, 2)
		h.endEpoch(t)
	}
	h.checkInvariant(t)
	if h.exec.Stats().Evictions == 0 {
		t.Fatal("no evictions over 8 epochs")
	}
}

func TestExecutorDuplicateKeysRejected(t *testing.T) {
	h := newHarness(t, testParams(64, 4), Config{})
	_, err := h.exec.PlanReadBatch([]ReadOp{{Key: "x"}, {Key: "x"}})
	if err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestExecutorLocalReadsFromBuffer(t *testing.T) {
	h := newHarness(t, testParams(64, 5), Config{})
	// Enough traffic in one epoch to trigger >= 2 evictions: the second
	// eviction's root read must be served from the buffer.
	var keys []string
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	h.runWrites(t, map[string]string{"seed": "v"}, 0)
	h.runReads(t, keys...)
	st := h.exec.Stats()
	if st.Evictions < 2 {
		t.Fatalf("only %d evictions", st.Evictions)
	}
	if st.LocalReads == 0 {
		t.Fatal("no reads served from the epoch buffer")
	}
	h.endEpoch(t)
	h.checkInvariant(t)
}

func TestExecutorWriteDedup(t *testing.T) {
	h := newHarness(t, testParams(64, 6), Config{})
	var keys []string
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	h.runReads(t, keys...)
	st := h.exec.Stats()
	n, err := h.exec.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) >= st.WritesBuffered {
		t.Fatalf("no dedup: %d buffered intents, %d flushed", st.WritesBuffered, n)
	}
	h.checkInvariant(t)
}

func TestExecutorWriteThrough(t *testing.T) {
	p := testParams(64, 7)
	h := newHarness(t, p, Config{WriteThrough: true})
	oracle := map[string]string{}
	for e := 0; e < 3; e++ {
		w := map[string]string{}
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("k%d", (e*5+i)%12)
			v := fmt.Sprintf("v%d-%d", e, i)
			w[k] = v
			oracle[k] = v
		}
		h.runWrites(t, w, 1)
		var keys []string
		for k := range oracle {
			keys = append(keys, k)
			if len(keys) == 6 {
				break
			}
		}
		res := h.runReads(t, keys...)
		for _, r := range res {
			if !r.Found || string(r.Value) != oracle[r.Key] {
				t.Fatalf("epoch %d: %s = %q (found=%v), want %q", e, r.Key, r.Value, r.Found, oracle[r.Key])
			}
		}
		h.endEpoch(t)
	}
	st := h.exec.Stats()
	if st.LocalReads != 0 {
		t.Fatalf("write-through mode served %d local reads", st.LocalReads)
	}
	if st.BucketWrites != st.WritesBuffered {
		t.Fatalf("write-through dedup mismatch: %d written, %d produced", st.BucketWrites, st.WritesBuffered)
	}
	h.checkInvariant(t)
}

func TestExecutorRollbackDiscardsEpoch(t *testing.T) {
	h := newHarness(t, testParams(64, 8), Config{})
	h.runWrites(t, map[string]string{"durable": "yes"}, 3)
	h.endEpoch(t)

	// Epoch 2: write, flush, but do NOT commit; then roll back.
	h.runWrites(t, map[string]string{"durable": "overwritten", "volatile": "x"}, 2)
	if _, err := h.exec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.rec.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	// Restoring epoch-1 metadata over the rolled-back tree is the recovery
	// flow; it is exercised end to end in internal/core tests.
}

// TestExecutorTraceShapeWorkloadIndependence is the executor-level security
// test: two completely different workloads with identical batch geometry
// must produce storage traces with identical shape (same op kinds, same
// event count per position, same number of bucket writes).
func TestExecutorTraceShapeWorkloadIndependence(t *testing.T) {
	shape := func(seed uint64, keys [][]string, writes []map[string]string) []storage.Op {
		p := testParams(64, seed)
		h := newHarness(t, p, Config{})
		for i := range keys {
			h.runReads(t, keys[i]...)
			h.runWrites(t, writes[i], 4-len(writes[i]))
			h.endEpoch(t)
		}
		h.checkInvariant(t)
		evs := h.rec.Events()
		kinds := make([]storage.Op, len(evs))
		for i, ev := range evs {
			kinds[i] = ev.Op
		}
		return kinds
	}
	// Workload A: scattered cold reads, few writes.
	a := shape(101,
		[][]string{{"a1", "a2", "a3", "a4"}, {"a5", "a6", "a7", "a8"}},
		[]map[string]string{{"w1": "x"}, {"w2": "y"}})
	// Workload B: hot-key reads, different writes.
	b := shape(202,
		[][]string{{"h", "h2", "h3", "h4"}, {"h", "h2", "h5", "h6"}},
		[]map[string]string{{"h": "1"}, {"h2": "2"}})
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d — workload leaks through trace shape", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestExecutorReplayReproducesTrace is the recovery security test: after a
// crash mid-epoch, the recovery replay must issue exactly the same physical
// reads the adversary already observed.
func TestExecutorReplayReproducesTrace(t *testing.T) {
	p := testParams(64, 9)
	h := newHarness(t, p, Config{})

	// Epoch 1: committed baseline.
	h.runWrites(t, map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"}, 1)
	h.endEpoch(t)
	snap, err := h.oram.EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 2: the epoch that will crash. Record log entries and the trace.
	h.rec.Reset()
	var logged []LogEntry
	plan, err := h.exec.PlanReadBatch([]ReadOp{{Key: "k1"}, {Key: "k3"}, {Key: "ghost"}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged = append(logged, decodeLog(t, plan.Log())...)
	if _, err := h.exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	wplan, err := h.exec.PlanWriteBatch([]WriteOp{{Key: "k2", Value: []byte("doomed")}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged = append(logged, decodeLog(t, wplan.Log())...)
	if _, err := h.exec.Execute(wplan); err != nil {
		t.Fatal(err)
	}
	abortedTrace := readMultiset(h.rec.Events())

	// Crash: buffer lost, storage rolled back, metadata restored.
	if err := h.rec.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, snap)
	if err != nil {
		t.Fatal(err)
	}
	exec2 := New(restored, h.rec, Config{})
	exec2.BeginEpoch(3) // recovery epoch
	h.rec.Reset()
	if err := exec2.ReplayBatch(logged); err != nil {
		t.Fatal(err)
	}
	replayTrace := readMultiset(h.rec.Events())
	if len(abortedTrace) != len(replayTrace) {
		t.Fatalf("replay issued %d reads, aborted epoch issued %d", len(replayTrace), len(abortedTrace))
	}
	for k, n := range abortedTrace {
		if replayTrace[k] != n {
			t.Fatalf("replay read-set diverges at %s: %d vs %d", k, replayTrace[k], n)
		}
	}
	// Finish the recovery epoch and verify committed data survived and the
	// aborted write did not.
	if _, err := exec2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.backend.CommitEpoch(3); err != nil {
		t.Fatal(err)
	}
	exec2.BeginEpoch(4)
	res := mustReads(t, exec2, "k1", "k2", "k3")
	want := map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"}
	for _, r := range res {
		if !r.Found || string(r.Value) != want[r.Key] {
			t.Fatalf("after recovery %s = %q (found=%v), want %q", r.Key, r.Value, r.Found, want[r.Key])
		}
	}
	h.checkInvariant(t)
}

// decodeLog takes a plan's durability log through its record encoding, as a
// crash would: what recovery replays is what DecodeBatchLog gives back.
func decodeLog(t *testing.T, l BatchLog) []LogEntry {
	t.Helper()
	buf := make([]byte, l.EncodedSize())
	if err := l.Encode(buf); err != nil {
		t.Fatal(err)
	}
	entries, err := DecodeBatchLog(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != l.Len() {
		t.Fatalf("decoded %d log entries, the plan holds %d", len(entries), l.Len())
	}
	return entries
}

func mustReads(t *testing.T, e *Executor, keys ...string) []ReadResult {
	t.Helper()
	ops := make([]ReadOp, len(keys))
	for i, k := range keys {
		ops[i].Key = k
	}
	plan, err := e.PlanReadBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readMultiset maps "bucket/slot" to read count for all slot-read events.
func readMultiset(evs []storage.Event) map[string]int {
	out := make(map[string]int)
	for _, ev := range evs {
		if ev.Op == storage.OpReadSlot {
			out[fmt.Sprintf("%d/%d", ev.Bucket, ev.Slot)]++
		}
	}
	return out
}

func TestInitORAMRejectsSmallBackend(t *testing.T) {
	p := testParams(64, 10)
	backend := storage.NewMemBackend(3) // far too small
	if _, err := InitORAM(backend, cryptoutil.KeyFromSeed([]byte("x")), p); err == nil {
		t.Fatal("undersized backend accepted")
	}
}

func TestExecutorParallelismCap(t *testing.T) {
	p := testParams(64, 11)
	h := newHarness(t, p, Config{Parallelism: 1})
	h.runWrites(t, map[string]string{"a": "1"}, 0)
	h.endEpoch(t)
	res := h.runReads(t, "a")
	if !res[0].Found || string(res[0].Value) != "1" {
		t.Fatalf("a = %+v", res[0])
	}
	h.checkInvariant(t)
}
