package oramexec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/storage"
)

// TestExecutorVectoredOneCallPerStage pins the batching guarantee at the
// wire: a normal-mode batch is one stage, so however many slots it reads
// remotely, storage sees at most ONE read call — and an epoch flush pushes
// the whole write-back set in ONE write call.
func TestExecutorVectoredOneCallPerStage(t *testing.T) {
	h := newHarness(t, testParams(64, 7), Config{})
	// Populate enough keys to trigger evictions and real paths.
	h.runWrites(t, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}, 8)
	h.endEpoch(t)

	h.rec.Reset()
	res := h.runReads(t, "a", "b", "c", "")
	if !res[0].Found || string(res[0].Value) != "1" {
		t.Fatalf("read a = %+v", res[0])
	}
	calls := h.rec.Calls()
	if calls.ReadSlots > 1 {
		t.Fatalf("one batch (one stage) issued %d ReadSlots calls, want at most 1", calls.ReadSlots)
	}
	stats := h.exec.Stats()
	if stats.RemoteReads > 0 && calls.ReadSlots != 1 {
		t.Fatalf("%d remote slot reads crossed storage in %d calls", stats.RemoteReads, calls.ReadSlots)
	}

	// The epoch's whole write-back set must flush as one call.
	h.runWrites(t, map[string]string{"a": "1b", "e": "5"}, 8)
	h.rec.Reset()
	n, err := h.exec.Flush()
	if err != nil {
		t.Fatal(err)
	}
	calls = h.rec.Calls()
	if n > 0 && calls.WriteBuckets != 1 {
		t.Fatalf("flush of %d buckets used %d WriteBuckets calls, want exactly 1", n, calls.WriteBuckets)
	}
	if stats := h.exec.Stats(); stats.WriteCalls == 0 || stats.ReadCalls == 0 {
		t.Fatalf("executor call counters not maintained: %+v", stats)
	}
	h.checkInvariant(t)
}

// TestExecutorSealedFlushOneCall covers the pipelined boundary's path: a
// sealed epoch's detached write-back set crosses storage as a single
// vectored call per shard.
func TestExecutorSealedFlushOneCall(t *testing.T) {
	h := newHarness(t, testParams(64, 8), Config{})
	h.runWrites(t, map[string]string{"x": "1", "y": "2"}, 10)
	sealed, err := h.exec.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Buckets() == 0 {
		t.Skip("no buckets buffered this epoch")
	}
	h.rec.Reset()
	n, err := h.exec.FlushSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if n != sealed.Buckets() {
		t.Fatalf("FlushSealed wrote %d of %d buckets", n, sealed.Buckets())
	}
	calls := h.rec.Calls()
	if calls.WriteBuckets != 1 {
		t.Fatalf("sealed flush used %d WriteBuckets calls, want exactly 1", calls.WriteBuckets)
	}
}

// TestExecutorVectorTraceMatchesPlan is the security argument for
// vectoring: the adversary-visible trace is the plan's, whatever the
// framing. A batch records exactly the non-local slot reads its planned
// tasks name, in plan order, and a flush writes exactly the buffered
// buckets, each once, under the epoch's tag — vectoring neither adds nor
// drops a slot.
func TestExecutorVectorTraceMatchesPlan(t *testing.T) {
	h := newHarness(t, testParams(64, 11), Config{})
	check := func(what string, want []storage.Event) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: nothing planned to reach storage", what)
		}
		if got := h.rec.Events(); !slices.Equal(got, want) {
			t.Fatalf("%s: recorded trace %v, planned %v", what, got, want)
		}
	}
	execute := func(what string, plan *BatchPlan, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var want []storage.Event
		for _, tk := range plan.tasks {
			for _, r := range tk.step.Reads {
				if !r.Local() {
					want = append(want, storage.Event{Op: storage.OpReadSlot, Bucket: r.Bucket, Slot: r.Slot})
				}
			}
		}
		h.rec.Reset()
		if _, err := h.exec.Execute(plan); err != nil {
			t.Fatal(err)
		}
		check(what, want)
	}
	writes := func(pad int, keys ...string) {
		t.Helper()
		ops := make([]WriteOp, len(keys)+pad) // padding trails the keys
		for i, k := range keys {
			ops[i] = WriteOp{Key: k, Value: []byte("v-" + k)}
		}
		plan, err := h.exec.PlanWriteBatch(ops)
		execute("write batch", plan, err)
	}
	reads := func(keys ...string) {
		t.Helper()
		ops := make([]ReadOp, len(keys))
		for i, k := range keys {
			ops[i].Key = k
		}
		plan, err := h.exec.PlanReadBatch(ops)
		execute("read batch", plan, err)
	}
	flush := func() {
		t.Helper()
		epoch := h.epoch
		h.rec.Reset()
		sealed := h.endEpoch(t)
		var want []storage.Event
		for _, im := range sealed.images {
			want = append(want, storage.Event{Op: storage.OpWriteBucket, Bucket: im.Bucket, Epoch: epoch})
		}
		if !slices.IsSortedFunc(want, func(a, b storage.Event) int { return a.Bucket - b.Bucket }) {
			t.Fatalf("the sealed set is not in bucket order: %v", want)
		}
		check("flush", want)
	}
	writes(9, "k1", "k2", "k3")
	flush()
	reads("k1", "k2", "", "k3")
	reads("", "k2")
	writes(11, "k1")
	flush()
	h.checkInvariant(t)
}

// TestExecutorWriteThroughVectored: in the Figure 10d ablation each
// eviction is a barrier, but its reads still coalesce per stage and its
// writes ship as one vectored call per eviction.
func TestExecutorWriteThroughVectored(t *testing.T) {
	h := newHarness(t, testParams(64, 12), Config{WriteThrough: true})
	h.rec.Reset()
	h.runWrites(t, map[string]string{"a": "1", "b": "2", "c": "3"}, 9)
	calls := h.rec.Calls()
	if h.exec.Stats().BucketWrites > 0 && calls.WriteBuckets == 0 {
		t.Fatal("write-through evictions produced no vectored write calls")
	}
	res := h.runReads(t, "b")
	if !res[0].Found || string(res[0].Value) != "2" {
		t.Fatalf("read through write-through store = %+v", res[0])
	}
	h.checkInvariant(t)
}

// TestExecutorReadBufferReuse: the executor gives every ref of a vector a
// slot frame of its one read buffer as its destination (storage.SlotRef.Into)
// and reuses the buffer vector after vector, stage after stage. Two
// executors run the same seeded epochs over stores that fill destinations (a
// LogHeap shard each), one reusing its buffer and one given a fresh buffer
// before every batch: their read results are byte-identical, and so are their
// storage traces. Write-through mode, whose batch is several stages, reuses
// the buffer within a batch too.
func TestExecutorReadBufferReuse(t *testing.T) {
	for _, cfg := range []Config{{}, {WriteThrough: true}} {
		t.Run(fmt.Sprintf("write-through=%v", cfg.WriteThrough), func(t *testing.T) {
			p := testParams(64, 17)
			run := func(fresh bool) ([]string, []storage.Event) {
				g, err := storage.OpenDiskGroupOpts(t.TempDir(), 1, p.Geometry().NumBuckets, storage.DiskOptions{LogHeap: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				rec := storage.NewRecorder(g.Backends()[0])
				o, err := InitORAMFor(rec, cryptoutil.KeyFromSeed([]byte("reads")), p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e := New(o, rec, cfg)
				execute := func(plan *BatchPlan, err error) []ReadResult {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					if fresh {
						e.reads = nil
					}
					res, err := e.Execute(plan)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				var out []string
				for epoch := uint64(1); epoch <= 6; epoch++ {
					e.BeginEpoch(epoch)
					writes := make([]WriteOp, 6)
					for i := range writes {
						k := fmt.Sprintf("k%02d", (int(epoch)*5+i)%20)
						writes[i] = WriteOp{Key: k, Value: []byte(fmt.Sprintf("%s@%d", k, epoch))}
					}
					execute(e.PlanWriteBatch(writes))
					for b := 0; b < 3; b++ {
						reads := make([]ReadOp, 5)
						for i := range reads[:4] {
							reads[i].Key = fmt.Sprintf("k%02d", (int(epoch)*3+b*4+i)%20)
						}
						for _, r := range execute(e.PlanReadBatch(reads)) {
							out = append(out, fmt.Sprintf("%s=%q/%v", r.Key, r.Value, r.Found))
						}
					}
					sealed, err := e.SealEpoch()
					if err == nil {
						_, err = e.FlushSealed(sealed)
					}
					if err == nil {
						err = rec.CommitEpoch(epoch)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if !fresh && cap(e.reads) == 0 {
					t.Fatal("the executor read nothing into its buffer")
				}
				return out, rec.Events()
			}
			reused, reusedTrace := run(false)
			fresh, freshTrace := run(true)
			if !slices.Equal(reused, fresh) {
				t.Fatalf("read results differ:\nreused buffer %v\nfresh buffers %v", reused, fresh)
			}
			if !slices.Equal(reusedTrace, freshTrace) {
				t.Fatal("the storage traces differ")
			}
			found := 0
			for _, r := range reused {
				if strings.HasSuffix(r, "/true") {
					found++
				}
			}
			if found == 0 {
				t.Fatal("no read found a value: the test would prove nothing")
			}
		})
	}
}
