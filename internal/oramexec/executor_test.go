package oramexec

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
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

// adopt puts the harness's executor over o, restored metadata of its own ORAM,
// with the local-version table on; the caller loads the resident levels.
func (h *harness) adopt(o *ringoram.ORAM) {
	m := o.Machine()
	m.KeepLocal()
	h.oram, h.exec.oram, h.exec.m = o, o, m
	h.exec.readPlan.m, h.exec.writePlan.m = m, m
}

func (h *harness) begin() {
	h.epoch++
	h.exec.BeginEpoch(h.epoch)
}

// runReads executes one read batch and returns its results.
func (h *harness) runReads(t *testing.T, keys ...string) []ReadResult {
	t.Helper()
	return mustReads(t, h.exec, keys...)
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

// endEpoch seals, flushes and commits the way the proxy's boundary does, and
// returns the sealed set: it stays in the ORAM's table until the next seal
// supersedes it, so the next epoch's reads of its buckets are served from the
// proxy.
func (h *harness) endEpoch(t *testing.T) *SealedEpoch {
	t.Helper()
	sealed, err := h.exec.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.exec.FlushSealed(sealed); err != nil {
		t.Fatal(err)
	}
	if err := h.backend.CommitEpoch(h.epoch); err != nil {
		t.Fatal(err)
	}
	h.begin()
	return sealed
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

// TestWriteThroughNamesResidentTree: a tree a resident-set executor has
// written to holds Z slots in its upper buckets, which write-through mode
// cannot read by physical slot. The failure says so.
func TestWriteThroughNamesResidentTree(t *testing.T) {
	p := testParams(64, 13)
	h := newHarness(t, p, Config{})
	h.runWrites(t, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}, 0)
	h.endEpoch(t)
	// The write-through executor gets the tree's metadata without the
	// resident executor's table, as a restart in that mode would.
	img, err := h.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, img)
	if err != nil {
		t.Fatal(err)
	}
	wt := New(o, h.rec, Config{WriteThrough: true})
	wt.BeginEpoch(h.epoch)
	plan, err := wt.PlanReadBatch(make([]ReadOp, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = wt.Execute(plan)
	if !errors.Is(err, storage.ErrNoSuchSlot) || !strings.Contains(err.Error(), "write-through") {
		t.Fatalf("reading a resident-set tree in write-through mode: %v", err)
	}
}

// TestExecutorRollbackDiscardsEpoch: an executor that outlives a rollback must
// not serve anything of the epoch storage dropped — not of the epoch's or the
// sealed set's versions and not of the resident levels', which are by then
// versions that no longer exist. Adopting the restored metadata discards the
// ORAM whose table held them all; the executor loads the resident levels back
// into the new one, and the rolled-back values come from the reloaded levels
// with no slot read of the top.
func TestExecutorRollbackDiscardsEpoch(t *testing.T) {
	p := testParams(64, 8)
	h := newHarness(t, p, Config{})
	nRes := h.exec.resident
	committed := map[string]string{"durable": "yes", "d2": "yes2", "d3": "yes3", "d4": "yes4"}
	h.runWrites(t, committed, 0)
	h.endEpoch(t)
	snap, err := h.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 2: write, flush, but do NOT commit; then roll back.
	h.runWrites(t, map[string]string{"durable": "overwritten", "volatile": "x"}, 2)
	if _, err := h.exec.Flush(); err != nil {
		t.Fatal(err)
	}
	// Abandon the epoch: storage rolls back the versions it holds, and
	// LoadResident brings back the ones it rolled back to.
	if err := h.rec.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, snap)
	if err != nil {
		t.Fatal(err)
	}
	h.adopt(restored) // the same executor over the restored metadata
	h.rec.Reset()
	if err := h.exec.LoadResident(); err != nil {
		t.Fatal(err)
	}
	if got := slotReadRefs(h.rec.Events()); fmt.Sprint(got) != fmt.Sprint(loadRefs(nRes, p.Z)) {
		t.Fatalf("the load read %v", got)
	}
	// The committed blocks the top holds: served from the reloaded levels or
	// not at all.
	if top := h.exec.Stats().ResidentBytes; top == 0 {
		t.Fatal("no committed block sits in a resident level: the test would prove nothing")
	}

	h.epoch = 2
	h.begin()
	h.rec.Reset()
	res := h.runReads(t, "durable", "d2", "d3", "d4", "volatile")
	for _, r := range res[:4] {
		if !r.Found || string(r.Value) != committed[r.Key] {
			t.Fatalf("%s = %q (found=%v) after the rollback, want the epoch-1 value", r.Key, r.Value, r.Found)
		}
	}
	if res[4].Found {
		t.Fatalf("volatile = %q survived the rollback", res[4].Value)
	}
	for _, ref := range slotReadRefs(h.rec.Events()) {
		if ref.Bucket < nRes {
			t.Fatalf("bucket %d slot %d of a resident level read from storage after the load", ref.Bucket, ref.Slot)
		}
	}
	h.checkInvariant(t)
}

// TestExecutorTraceShapeWorkloadIndependence is the executor-level security
// test: two completely different workloads with identical batch geometry
// must produce storage traces with identical shape (same op kinds in the
// same order, same number of slots touched per epoch, same number of bucket
// writes). A touched slot is read from storage unless the previous epoch's
// sealed set holds its bucket; which buckets those are is public (the
// "resident levels" subtest checks the rule), and how many of an epoch's
// random paths cross them is not a function of the workload, so the split is
// not compared.
func TestExecutorTraceShapeWorkloadIndependence(t *testing.T) {
	t.Run("resident levels", testSkipSetIsPublic)
	shape := func(seed uint64, keys [][]string, writes []map[string]string) []string {
		p := testParams(64, seed)
		h := newHarness(t, p, Config{})
		var sig []string
		for i := range keys {
			before := h.exec.Stats()
			h.rec.Reset()
			h.runReads(t, keys[i]...)
			h.runWrites(t, writes[i], 4-len(writes[i]))
			h.endEpoch(t)
			after := h.exec.Stats()
			var kinds []storage.Op
			for _, ev := range h.rec.Events() {
				if n := len(kinds); n == 0 || kinds[n-1] != ev.Op || ev.Op != storage.OpReadSlot {
					kinds = append(kinds, ev.Op)
				}
			}
			slots := after.RemoteReads + after.LocalReads - before.RemoteReads - before.LocalReads
			sig = append(sig, fmt.Sprintf("%d slots, %d bucket writes, %v", slots, after.BucketWrites-before.BucketWrites, kinds))
		}
		h.checkInvariant(t)
		return sig
	}
	// Workload A: scattered cold reads, few writes.
	a := shape(101,
		[][]string{{"a1", "a2", "a3", "a4"}, {"a5", "a6", "a7", "a8"}},
		[]map[string]string{{"w1": "x"}, {"w2": "y"}})
	// Workload B: hot-key reads, different writes.
	b := shape(202,
		[][]string{{"h", "h2", "h3", "h4"}, {"h", "h2", "h5", "h6"}},
		[]map[string]string{{"h": "1"}, {"h2": "2"}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d: %s vs %s — workload leaks through trace shape", i+1, a[i], b[i])
		}
	}
}

// testSkipSetIsPublic runs three workloads that could not differ more — all
// padding, uniform real reads and writes, one hot key — over a tree deep
// enough (L = 6) for levels 0..3 to be resident, and checks that which reads
// stay in the proxy, and what the flush writes, is public.
//
// Path leaves are drawn from a generator that real and padding accesses consume
// differently, so the three runs do not read the same paths and the per-level
// counts of an access's remote reads agree in distribution, not batch by
// batch. What the test asserts is the rule itself and everything that is
// exact. The rule: in each run, every planned read is local exactly when its
// bucket is in a set computed from the bucket number, that run's write trace
// and the eviction counter alone — an upper-level bucket, rewritten earlier
// this epoch, or written by the previous epoch — so no read at levels 0..L-3
// reaches storage, from the first batch on. Exact across runs: each flush's
// bucket set and each batch's remote eviction reads per level. And every
// bucket a flush writes carries Z slots when it is an upper-level bucket and
// Z+S otherwise, all of one length: a function of the bucket number.
func testSkipSetIsPublic(t *testing.T) {
	const epochs, preload, keys = 30, 8, 32
	p := testParams(256, 77)
	p.S = 16 // roomy enough that no early reshuffle (a function of the drawn paths) falls due
	geo := p.Geometry()
	nRes := 1<<(geo.Levels-2) - 1 // levels 0..L-3 stay resident
	if geo.Levels < 6 || nRes != 15 {
		t.Fatalf("geometry %+v keeps %d buckets resident, want L >= 6 and 15", geo, nRes)
	}
	level := func(b int) int { return bits.Len(uint(b+1)) - 1 }
	key := func(i int) string { return fmt.Sprintf("k%d", i) }

	run := func(workload string) (batches, flushes []string) {
		h := newHarness(t, p, Config{})
		leaf, err := h.backend.ReadBucket(geo.NumBuckets - 1)
		if err != nil {
			t.Fatal(err)
		}
		slotSize := len(leaf[0]) // the fresh tree's
		rng := rand.New(rand.NewPCG(3, 4))
		prevFlush := map[int]bool{}
		var evictCount uint64

		// check models one planned batch against the public sets, executes it,
		// and returns its signature.
		check := func(plan *BatchPlan, claimed map[int]bool) string {
			evictRemote := make([]int, geo.Levels+1)
			remote := 0
			for _, tk := range plan.tasks {
				if tk.step.Kind == meta.ReshuffleStep {
					t.Fatalf("%s: an early reshuffle fell due; its timing depends on the drawn paths — pick parameters that avoid it", workload)
				}
				for _, r := range tk.step.Reads {
					public := r.Bucket < nRes || claimed[r.Bucket] || prevFlush[r.Bucket]
					if r.Local() != public {
						t.Fatalf("%s: read of bucket %d (level %d) planned local=%v, the public sets say %v", workload, r.Bucket, level(r.Bucket), r.Local(), public)
					}
					if r.Local() {
						continue
					}
					remote++
					if len(tk.step.Buckets) > 0 {
						evictRemote[level(r.Bucket)]++
					}
				}
				if len(tk.step.Buckets) > 0 {
					if path := evictPath(h.oram, evictCount); fmt.Sprint(tk.step.Buckets) != fmt.Sprint(path) {
						t.Fatalf("%s: eviction %d rewrites %v, the counter says %v", workload, evictCount, tk.step.Buckets, path)
					}
					evictCount++
					for _, b := range tk.step.Buckets {
						claimed[b] = true
					}
				}
			}
			h.rec.Reset()
			if _, err := h.exec.Execute(plan); err != nil {
				t.Fatal(err)
			}
			reads := slotReadRefs(h.rec.Events())
			if len(reads) != remote {
				t.Fatalf("%s: batch planned %d remote reads, storage saw %d", workload, remote, len(reads))
			}
			for _, ref := range reads {
				if level(ref.Bucket) <= geo.Levels-3 {
					t.Fatalf("%s: storage saw a read of bucket %d at resident level %d", workload, ref.Bucket, level(ref.Bucket))
				}
			}
			return fmt.Sprint(evictRemote)
		}

		for e := 0; e < epochs; e++ {
			claimed := map[int]bool{}
			for r := 0; r < 2; r++ {
				ops := make([]ReadOp, 4)
				switch {
				case e < preload || workload == "padding":
				case workload == "hot":
					ops[0].Key = key(0)
				default:
					for i, k := range rng.Perm(keys)[:4] {
						ops[i].Key = key(k)
					}
				}
				plan, err := h.exec.PlanReadBatch(ops)
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, check(plan, claimed))
			}
			ops := make([]WriteOp, 4)
			switch {
			case e < preload:
				for i := range ops {
					ops[i] = WriteOp{Key: key(e*4 + i), Value: []byte("v")}
				}
			case workload == "padding":
			case workload == "hot":
				ops[0] = WriteOp{Key: key(0), Value: []byte(fmt.Sprint(e))}
			default:
				for i, k := range rng.Perm(keys)[:4] {
					ops[i] = WriteOp{Key: key(k), Value: []byte(fmt.Sprint(e))}
				}
			}
			plan, err := h.exec.PlanWriteBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, check(plan, claimed))

			h.rec.Reset()
			h.endEpoch(t)
			prevFlush = map[int]bool{}
			var set []int
			for _, ev := range h.rec.Events() {
				if ev.Op != storage.OpWriteBucket {
					continue
				}
				prevFlush[ev.Bucket] = true
				set = append(set, ev.Bucket)
				written, err := h.backend.ReadBucket(ev.Bucket)
				if err != nil {
					t.Fatal(err)
				}
				want := p.Z + p.S
				if ev.Bucket < nRes {
					want = p.Z
				}
				if len(written) != want {
					t.Fatalf("%s: epoch %d wrote bucket %d with %d slots, its number says %d", workload, e+1, ev.Bucket, len(written), want)
				}
				for _, slot := range written {
					if len(slot) != slotSize {
						t.Fatalf("%s: epoch %d wrote bucket %d with a slot of %d bytes, want the fresh tree's %d", workload, e+1, ev.Bucket, len(slot), slotSize)
					}
				}
			}
			flushes = append(flushes, fmt.Sprint(set))
		}
		h.checkInvariant(t)
		return batches, flushes
	}

	batches, flushes := run("padding")
	for _, workload := range []string{"uniform", "hot"} {
		b, f := run(workload)
		for i := range flushes {
			if f[i] != flushes[i] {
				t.Fatalf("epoch %d: %s wrote buckets %s, padding wrote %s", i+1, workload, f[i], flushes[i])
			}
		}
		for i := range batches {
			if b[i] != batches[i] {
				t.Fatalf("batch %d: %s read %s eviction slots per level from storage, padding %s", i, workload, b[i], batches[i])
			}
		}
	}
}

// TestExecutorReplayReproducesTrace is the recovery security test. After a
// crash mid-epoch the new executor loads the resident levels — one read, a
// function of the geometry — and the replay then reads every slot the aborted
// epoch read from storage, exactly once. It reads more: the restored ORAM's
// table holds no sealed set, so slots the aborted epoch served from the
// previous epoch's sealed set now come from storage. Those are slots the epoch's log
// records name, in buckets of levels L-2..L the epoch never read from storage
// — bucket versions the adversary has not seen a read of — and no slot of any
// bucket version is read twice (the invariant checker sits under the
// recorder). Nothing at the resident levels is read by either side. The
// subtest names the boundary the committed history ran under, the pipelined
// one, whose sealed set the next seal supersedes.
func TestExecutorReplayReproducesTrace(t *testing.T) {
	t.Run("pipelined=true", testReplayAfterPipelinedBoundary)
}

func testReplayAfterPipelinedBoundary(t *testing.T) {
	p := testParams(256, 9)
	h := newHarness(t, p, Config{})
	key := func(i int) string { return fmt.Sprintf("k%d", i) }

	// Committed history, long enough for blocks to sink into the tree.
	want := map[string]string{}
	for e := 0; e < 6; e++ {
		w := map[string]string{}
		for i := 0; i < 4; i++ {
			w[key(e*4+i)] = fmt.Sprintf("v%d", e*4+i)
			want[key(e*4+i)] = w[key(e*4+i)]
		}
		h.runReads(t, key(e), key(e+30), "", "")
		h.runWrites(t, w, 0)
		h.endEpoch(t)
	}
	committed := h.epoch - 1
	snap, err := h.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, evictCount := h.oram.Machine().Counters()

	// The epoch that will crash: two read batches and the write batch,
	// each logged before it executes.
	h.rec.Reset()
	before := h.exec.Stats()
	var logged [][]meta.LogEntry
	for _, keys := range [][]string{{key(1), key(9), "ghost", ""}, {key(2), key(17), key(22), ""}} {
		ops := make([]ReadOp, len(keys))
		for i, k := range keys {
			ops[i].Key = k
		}
		plan, err := h.exec.PlanReadBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, decodeLog(t, plan.Log()))
		if _, err := h.exec.Execute(plan); err != nil {
			t.Fatal(err)
		}
	}
	wplan, err := h.exec.PlanWriteBatch([]WriteOp{{Key: key(3), Value: []byte("doomed")}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged = append(logged, decodeLog(t, wplan.Log()))
	if _, err := h.exec.Execute(wplan); err != nil {
		t.Fatal(err)
	}
	aborted := h.rec.Events()
	if h.exec.Stats().LocalReads == before.LocalReads {
		t.Fatal("the aborted epoch served nothing from the proxy: the test would prove nothing")
	}
	var named map[slotAt]bool
	for _, batch := range logged {
		named, evictCount = loggedSlots(h.oram, evictCount, batch, named)
	}

	// Crash: buffers and resident set lost, storage rolled back,
	// metadata restored, resident set loaded.
	if err := h.rec.RollbackTo(committed); err != nil {
		t.Fatal(err)
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, snap)
	if err != nil {
		t.Fatal(err)
	}
	exec2 := New(restored, h.rec, Config{})
	h.rec.Reset()
	if err := exec2.LoadResident(); err != nil {
		t.Fatal(err)
	}
	nRes := exec2.resident
	if got := slotReadRefs(h.rec.Events()); nRes == 0 || fmt.Sprint(got) != fmt.Sprint(loadRefs(nRes, p.Z)) {
		t.Fatalf("the load of %d resident buckets read %v", nRes, got)
	}
	exec2.BeginEpoch(h.epoch + 1) // recovery epoch
	h.rec.Reset()
	for _, batch := range logged {
		if err := exec2.ReplayBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, ref := range append(slotReadRefs(aborted), slotReadRefs(h.rec.Events())...) {
		if ref.Bucket < nRes {
			t.Fatalf("bucket %d slot %d of a resident level read from storage outside the load", ref.Bucket, ref.Slot)
		}
	}
	if extra := checkReplayTrace(t, aborted, h.rec.Events(), named); extra == 0 {
		t.Fatal("the replay read no slot the aborted epoch had served from the sealed set: the test would prove nothing")
	}

	// Finish the recovery epoch and verify committed data survived and
	// the aborted write did not.
	if _, err := exec2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.backend.CommitEpoch(h.epoch + 1); err != nil {
		t.Fatal(err)
	}
	exec2.BeginEpoch(h.epoch + 2)
	for _, r := range mustReads(t, exec2, key(1), key(3), key(9), key(23)) {
		if !r.Found || string(r.Value) != want[r.Key] {
			t.Fatalf("after recovery %s = %q (found=%v), want %q", r.Key, r.Value, r.Found, want[r.Key])
		}
	}
	h.checkInvariant(t)
}

// slotAt names one slot of a bucket: a map key, as a storage.SlotRef,
// which carries a destination, cannot be.
type slotAt struct{ Bucket, Slot int }

// loggedSlots adds every slot the batch's log entries name to named. Evict
// entries name slots along the evict path, a function of the eviction counter
// alone; the counter after the batch is returned.
func loggedSlots(o *ringoram.ORAM, evictCount uint64, batch []meta.LogEntry, named map[slotAt]bool) (map[slotAt]bool, uint64) {
	if named == nil {
		named = make(map[slotAt]bool)
	}
	for _, le := range batch {
		switch le.Kind {
		case meta.AccessStep:
			for i, b := range o.Machine().Params().Geometry().Path(le.Leaf) {
				named[slotAt{Bucket: b, Slot: le.Slots[i]}] = true
			}
		case meta.EvictStep:
			for i, b := range evictPath(o, evictCount) {
				for _, s := range le.BucketSlots[i] {
					named[slotAt{Bucket: b, Slot: s}] = true
				}
			}
			evictCount++
		case meta.ReshuffleStep:
			for _, s := range le.BucketSlots[0] {
				named[slotAt{Bucket: le.Bucket, Slot: s}] = true
			}
		}
	}
	return named, evictCount
}

// evictPath returns the buckets of the evictCount-th evict-path: Ring ORAM's
// reverse-lexicographic order, a function of the counter alone.
func evictPath(o *ringoram.ORAM, evictCount uint64) []int {
	g := o.Machine().Params().Geometry()
	return g.Path(int(bits.Reverse(uint(evictCount)%uint(g.Leaves)) >> (bits.UintSize - g.Levels)))
}

// checkReplayTrace asserts the replay-trace property over two recorded traces
// and returns how many reads the replay issued beyond the aborted epoch's.
func checkReplayTrace(t *testing.T, aborted, replay []storage.Event, named map[slotAt]bool) (extra int) {
	t.Helper()
	count := func(evs []storage.Event) map[slotAt]int {
		out := make(map[slotAt]int)
		for _, ev := range evs {
			if ev.Op == storage.OpReadSlot {
				out[slotAt{Bucket: ev.Bucket, Slot: ev.Slot}]++
			}
		}
		return out
	}
	seen, again := count(aborted), count(replay)
	observed := make(map[int]bool) // buckets the aborted epoch read from storage
	for ref := range seen {
		observed[ref.Bucket] = true
		if again[ref] != 1 {
			t.Fatalf("the aborted epoch read bucket %d slot %d from storage, the replay read it %d times", ref.Bucket, ref.Slot, again[ref])
		}
	}
	for ref, n := range again {
		switch {
		case n != 1:
			t.Fatalf("the replay read bucket %d slot %d %d times", ref.Bucket, ref.Slot, n)
		case seen[ref] == 1:
		case !named[ref]:
			t.Fatalf("the replay read bucket %d slot %d, which no log record of the aborted epoch names", ref.Bucket, ref.Slot)
		case observed[ref.Bucket]:
			t.Fatalf("the replay read bucket %d slot %d anew, in a bucket the aborted epoch read from storage", ref.Bucket, ref.Slot)
		default:
			extra++
		}
	}
	return extra
}

// decodeLog takes a plan's durability log through its record encoding, as a
// crash would: what recovery replays is what meta.DecodeBatchLog gives
// back.
func decodeLog(t *testing.T, l meta.BatchLog) []meta.LogEntry {
	t.Helper()
	buf := make([]byte, l.EncodedSize())
	if err := l.Encode(buf); err != nil {
		t.Fatal(err)
	}
	entries, err := meta.DecodeBatchLog(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != l.Len() {
		t.Fatalf("decoded %d log entries, the plan holds %d", len(entries), l.Len())
	}
	return entries
}

// mustReads executes one read batch of keys on e and returns its results.
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

func TestInitORAMRejectsSmallBackend(t *testing.T) {
	p := testParams(64, 10)
	backend := storage.NewMemBackend(3) // far too small
	if _, err := InitORAM(backend, cryptoutil.KeyFromSeed([]byte("x")), p); err == nil {
		t.Fatal("undersized backend accepted")
	}
}
