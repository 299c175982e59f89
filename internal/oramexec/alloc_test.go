package oramexec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"obladi/internal/allocgate"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// copyStore is a bucket store that allocates nothing once warm: it copies
// every written slot into the bucket's existing buffers and answers vectored
// reads out of one reused result slice. What an epoch allocates over it is
// the executor's own cost.
type copyStore struct {
	buckets [][][]byte
	out     [][]byte
}

func (s *copyStore) put(bucket int, slots [][]byte) {
	cur := s.buckets[bucket]
	if len(cur) != len(slots) {
		cur = make([][]byte, len(slots))
	}
	for i, sl := range slots {
		cur[i] = append(cur[i][:0], sl...)
	}
	s.buckets[bucket] = cur
}

func (s *copyStore) slot(bucket, slot int) ([]byte, error) {
	if slot >= len(s.buckets[bucket]) {
		return nil, storage.ErrNoSuchSlot
	}
	return s.buckets[bucket][slot], nil
}

func (s *copyStore) ReadSlot(bucket, slot int) ([]byte, error) { return s.slot(bucket, slot) }

func (s *copyStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	s.out = s.out[:0]
	for _, r := range refs {
		d, err := s.slot(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		s.out = append(s.out, d)
	}
	return s.out, nil
}

func (s *copyStore) WriteBuckets(writes []storage.BucketWrite) error {
	for _, w := range writes {
		s.put(w.Bucket, w.Slots)
	}
	return nil
}

func (s *copyStore) ReadBucket(bucket int) ([][]byte, error) { return s.buckets[bucket], nil }
func (s *copyStore) WriteBucket(bucket int, _ uint64, slots [][]byte) error {
	s.put(bucket, slots)
	return nil
}
func (s *copyStore) CommitEpoch(uint64) error         { return nil }
func (s *copyStore) RollbackTo(uint64) error          { return nil }
func (s *copyStore) NumBuckets() (int, error)         { return len(s.buckets), nil }
func (s *copyStore) bucketsWritten(e *Executor) int64 { return e.Stats().BucketWrites }

// TestEpochAllocBudget pins what a steady-state epoch of planned and executed
// batches allocates in the executor and the ORAM: each read value's carve
// (sixteen 256-byte values to a chunk) and nothing else — nothing per bucket,
// since the store copies what it keeps and the next seal recycles the flushed
// buffers, and nothing per boundary. Plans, tasks, results, scratch, the
// sealed sets, the write-back maps and the flush's vector are the executor's,
// reused: with the collector off, a warm seal and flush allocate nothing.
func TestEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gate := allocgate.Begin(t)
	const (
		readBatches = 4
		batchSize   = 16
		// One bucket buffer a collection may take out of the pool, and 3 to
		// spare: a sealed-set handle, write-back map or flush vector per
		// boundary again costs 1 to 3 each.
		perEpoch = 1 + 3
	)
	// The benchmark's geometry: early reshuffles are rare at S = 24.
	p := testParams(1024, 5)
	p.Z, p.S, p.A, p.KeySize, p.ValueSize = 16, 24, 16, 16, 256
	store := &copyStore{buckets: make([][][]byte, p.Geometry().NumBuckets)}
	oram, err := InitORAMFor(store, cryptoutil.KeyFromSeed([]byte("budget")), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(oram, store, Config{})
	value := make([]byte, p.ValueSize)
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i)
	}
	keys := 0
	next := func() string { keys = (keys + 1) % len(names); return names[keys] }
	reads, writes := make([]ReadOp, batchSize), make([]WriteOp, batchSize)
	epoch := uint64(1)
	var boundaryMallocs uint64
	var m0, m1 runtime.MemStats
	run := func() {
		e.BeginEpoch(epoch)
		epoch++
		for r := 0; r < readBatches; r++ {
			for i := range reads {
				reads[i].Key = next()
			}
			plan, err := e.PlanReadBatch(reads)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(plan); err != nil {
				t.Fatal(err)
			}
		}
		for i := range writes {
			writes[i] = WriteOp{Key: next(), Value: value}
		}
		plan, err := e.PlanWriteBatch(writes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(plan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		sealed, err := e.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.FlushSealed(sealed); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		boundaryMallocs += m1.Mallocs - m0.Mallocs
	}
	// Warm up: every key written, every bucket buffer shape seen.
	for i := 0; i < 64; i++ {
		run()
	}
	const runs = 50
	before := store.bucketsWritten(e)
	gate.Settle()
	allocs := testing.AllocsPerRun(runs, run)
	flushed := float64(store.bucketsWritten(e)-before) / (runs + 1)
	budget := perEpoch + readBatches*batchSize/16.0
	t.Logf("%.1f allocations per epoch; %.1f buckets flushed, budget %.1f", allocs, flushed, budget)
	if allocs > budget {
		t.Errorf("%.1f allocations per epoch, budget %.1f: planning, execution or the flush allocates per batch, per value or per bucket again", allocs, budget)
	}
	// A collection empties the buffer pools, so the seal's first recycle
	// after one re-registers a pool, and a goroutine that changes P recycles
	// into another P's cache, which may grow: measure the boundary with the
	// collector off and one P, after an epoch that refills the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.OneP(t)
	run()
	boundaryMallocs = 0
	for i := 0; i < runs; i++ {
		run()
	}
	if boundaryMallocs != 0 {
		t.Errorf("%d allocations in %d warm SealEpoch + FlushSealed boundaries, want 0", boundaryMallocs, runs)
	}
}

// hotPathReadAllocCeiling is the regression gate for the read hot path:
// steady-state heap allocations per physical batch slot across
// PlanReadBatch+Execute, maintenance (evictions, reshuffles) included. With
// delivered blocks landing in pooled slots, decoded keys compared
// in place, and plans/stash entries recycled through pools, the pipeline
// measures ~0.7 on this geometry (what remains is mostly the caller-owned
// result copy and per-epoch bookkeeping); the ceiling leaves room for
// run-to-run noise, not for a per-slot allocation creeping back in (the
// pre-pooling pipeline measured ~23, the pre-arena one ~1.6).
const hotPathReadAllocCeiling = 1.0

// TestHotPathReadAllocBudget fails if the executor's read path regresses
// past the allocation budget, on a steady-state executor over a raw mem
// backend preloaded with 2 048 keys: four read batches of 16 slots an epoch,
// then a padding write batch, flush and commit. Only the read batches are
// measured: the padding write batch, flush and epoch commit run outside the
// measured windows, so the gate tracks exactly the per-slot read pipeline
// (plan, fetch, open, complete) that dominates proxy CPU.
func TestHotPathReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state epochs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gate := allocgate.Begin(t)
	const (
		numKeys     = 2048
		readBatches = 4
		batchSlots  = 16
	)
	p := ringoram.Params{NumBlocks: numKeys, Z: 16, S: 24, A: 16, KeySize: 24, ValueSize: 512, Seed: 42}
	backend := storage.NewMemBackend(p.Geometry().NumBuckets)
	defer backend.Close()
	oram, err := InitORAM(backend, cryptoutil.KeyFromSeed([]byte("hotpath")), p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(oram, backend, Config{})
	epoch := uint64(1)
	e.BeginEpoch(epoch)
	execute := func(plan *BatchPlan, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(plan); err != nil {
			t.Fatal(err)
		}
	}
	endEpoch := func() {
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := backend.CommitEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		epoch++
		e.BeginEpoch(epoch)
	}
	// Preload every key so steady-state reads decode real target slots.
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("hk-%06d", i)
	}
	value := make([]byte, 256)
	for i := range value {
		value[i] = byte(i)
	}
	for start := 0; start < numKeys; start += 32 {
		ops := make([]WriteOp, 0, 32)
		for _, k := range keys[start:min(start+32, numKeys)] {
			ops = append(ops, WriteOp{Key: k, Value: value})
		}
		execute(e.PlanWriteBatch(ops))
	}
	endEpoch()
	// Scratch slices are reused so the test itself stays off the measured
	// allocation profile.
	reads, pads := make([]ReadOp, batchSlots), make([]WriteOp, batchSlots)
	cursor := 0
	slots := func() int64 { s := e.Stats(); return s.RemoteReads + s.LocalReads }
	var mallocs uint64
	var measured int64
	var m0, m1 runtime.MemStats
	runEpoch := func(measure bool) {
		for b := 0; b < readBatches; b++ {
			for i := range reads {
				reads[i].Key = keys[cursor]
				cursor = (cursor + 1) % numKeys
			}
			s0 := slots()
			runtime.ReadMemStats(&m0)
			execute(e.PlanReadBatch(reads))
			runtime.ReadMemStats(&m1)
			if measure {
				mallocs += m1.Mallocs - m0.Mallocs
				measured += slots() - s0
			}
		}
		// Close the epoch off the books: padding writes, flush, commit.
		execute(e.PlanWriteBatch(pads))
		endEpoch()
	}
	// Warm-up: fill the task/arena pools, reach the periodic-eviction regime.
	for i := 0; i < 3; i++ {
		runEpoch(false)
	}
	runtime.GC()
	gate.Settle()
	allocgate.OneP(t)
	const epochs = 12
	for i := 0; i < epochs; i++ {
		runEpoch(true)
	}
	if measured == 0 {
		t.Fatal("no slots processed")
	}
	perSlot := float64(mallocs) / float64(measured)
	t.Logf("read path: %.2f allocs/slot over %d slots (%d epochs)", perSlot, measured, epochs)
	if perSlot > hotPathReadAllocCeiling {
		t.Fatalf("read path allocates %.2f/slot, over the %.1f budget — a per-slot allocation crept back into the hot pipeline", perSlot, hotPathReadAllocCeiling)
	}
}
