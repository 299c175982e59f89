package oramexec

import (
	"fmt"
	"testing"

	"obladi/internal/cryptoutil"
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
// (sixteen 256-byte values to a chunk), three objects per bucket buffer the
// flush hands to the store (which keeps it), and a constant for the sealed
// set. Plans, tasks, results and scratch are the executor's, reused.
func TestEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		readBatches = 4
		batchSize   = 16
		// The sealed set's handle, the next epoch's buffer map (header, table
		// and groups), the flush's vector, and one bucket buffer a collection
		// may take out of the pool.
		perEpoch = 6 + 3
	)
	// The benchmark's geometry: early reshuffles are rare at S = 24.
	p := testParams(1024, 5)
	p.Z, p.S, p.A, p.KeySize, p.ValueSize = 16, 24, 16, 16, 256
	store := &copyStore{buckets: make([][][]byte, p.Geometry().NumBuckets)}
	oram, err := InitORAM(store, cryptoutil.KeyFromSeed([]byte("budget")), p)
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
		sealed, err := e.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.FlushSealed(sealed); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every key written, every bucket buffer shape seen.
	for i := 0; i < 64; i++ {
		run()
	}
	const runs = 50
	before := store.bucketsWritten(e)
	allocs := testing.AllocsPerRun(runs, run)
	flushed := float64(store.bucketsWritten(e)-before) / (runs + 1)
	budget := 3*flushed + perEpoch + readBatches*batchSize/16.0
	t.Logf("%.1f allocations per epoch; %.1f buckets flushed, budget %.1f", allocs, flushed, budget)
	if allocs > budget {
		t.Errorf("%.1f allocations per epoch, budget %.1f: planning or execution allocates per batch or per value again", allocs, budget)
	}
}
