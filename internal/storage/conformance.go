package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// This file exports a conformance suite for the Backend contract, so every
// implementation — MemBackend, DiskBackend, DummyBackend, the latency
// wrapper, the remote client/server pair, and any future store — is held to
// the same edge cases instead of each accumulating ad-hoc coverage.
//
// The suite asserts error *presence*, not error identity, for range checks:
// the remote client flattens server errors into ErrRemote strings. ErrClosed
// is the exception — every backend must report it recognizably via
// errors.Is.

// ConformanceMinBuckets is the minimum bucket count a conformance factory
// must provision.
const ConformanceMinBuckets = 8

// ConformanceOptions tunes the suite for intentionally lossy backends.
type ConformanceOptions struct {
	// BucketDataDiscarded marks backends that ignore bucket writes and
	// serve synthetic reads (DummyBackend): read-back, epoch-ordering and
	// vector-atomicity checks are skipped, while log, KV, NumBuckets and
	// close semantics still apply.
	BucketDataDiscarded bool
}

// RunBackendConformance exercises every Backend contract edge against fresh
// instances produced by factory. The factory must return an empty, open
// backend with at least ConformanceMinBuckets buckets and register any
// cleanup on t.
func RunBackendConformance(t *testing.T, factory func(t *testing.T) Backend) {
	RunBackendConformanceOpts(t, factory, ConformanceOptions{})
}

// RunBackendConformanceOpts is RunBackendConformance with options.
func RunBackendConformanceOpts(t *testing.T, factory func(t *testing.T) Backend, opts ConformanceOptions) {
	type check struct {
		name    string
		buckets bool // requires faithful bucket storage
		run     func(t *testing.T, b Backend)
	}
	checks := []check{
		{"num-buckets", false, conformNumBuckets},
		{"bucket-round-trip", true, conformBucketRoundTrip},
		{"epoch-order-rejection", true, conformEpochOrder},
		{"vector-read-atomicity", true, conformVectorReadAtomicity},
		{"rollback-after-partial-vector", true, conformPartialVectorRollback},
		{"commit-rollback-visibility", true, conformCommitRollback},
		{"slot-count-per-version", true, func(t *testing.T, b Backend) { ConformSlotCountPerVersion(t, b, nil) }},
		{"log-sequence", false, conformLogSequence},
		{"log-truncate", false, conformLogTruncate},
		{"kv", false, conformKV},
		{"closed", false, func(t *testing.T, b Backend) { conformClosed(t, b, opts) }},
	}
	for _, c := range checks {
		if c.buckets && opts.BucketDataDiscarded {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			c.run(t, factory(t))
		})
	}
}

func conformSlots(tag string, n int) [][]byte {
	slots := make([][]byte, n)
	for i := range slots {
		slots[i] = []byte(fmt.Sprintf("%s-slot%d", tag, i))
	}
	return slots
}

func conformNumBuckets(t *testing.T, b Backend) {
	n, err := b.NumBuckets()
	if err != nil {
		t.Fatalf("NumBuckets: %v", err)
	}
	if n < ConformanceMinBuckets {
		t.Fatalf("NumBuckets = %d, conformance factories must provision at least %d", n, ConformanceMinBuckets)
	}
}

func conformBucketRoundTrip(t *testing.T, b Backend) {
	slots := conformSlots("e1b0", 3)
	if err := b.WriteBucket(0, 1, slots); err != nil {
		t.Fatalf("WriteBucket: %v", err)
	}
	for i, want := range slots {
		got, err := b.ReadSlot(0, i)
		if err != nil {
			t.Fatalf("ReadSlot(0,%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadSlot(0,%d) = %q, want %q", i, got, want)
		}
	}
	all, err := b.ReadBucket(0)
	if err != nil {
		t.Fatalf("ReadBucket: %v", err)
	}
	if len(all) != len(slots) {
		t.Fatalf("ReadBucket returned %d slots, want %d", len(all), len(slots))
	}
	for i := range slots {
		if !bytes.Equal(all[i], slots[i]) {
			t.Fatalf("ReadBucket slot %d = %q, want %q", i, all[i], slots[i])
		}
	}
	got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 2}, {Bucket: 0, Slot: 0}})
	if err != nil {
		t.Fatalf("ReadSlots: %v", err)
	}
	if !bytes.Equal(got[0], slots[2]) || !bytes.Equal(got[1], slots[0]) {
		t.Fatalf("ReadSlots out of ref order: %q", got)
	}
	// Contract edges on untouched buckets.
	if _, err := b.ReadSlot(1, 0); err == nil {
		t.Fatal("ReadSlot on a never-written bucket succeeded")
	}
	if all, err := b.ReadBucket(1); err != nil || len(all) != 0 {
		t.Fatalf("ReadBucket on a never-written bucket = %v, %v (want empty, nil)", all, err)
	}
	if _, err := b.ReadSlot(-1, 0); err == nil {
		t.Fatal("ReadSlot(-1, 0) succeeded")
	}
	if _, err := b.ReadSlot(1<<30, 0); err == nil {
		t.Fatal("ReadSlot on an out-of-range bucket succeeded")
	}
	if err := b.WriteBucket(1<<30, 1, conformSlots("x", 1)); err == nil {
		t.Fatal("WriteBucket on an out-of-range bucket succeeded")
	}
}

func conformEpochOrder(t *testing.T, b Backend) {
	if err := b.WriteBucket(2, 5, conformSlots("e5", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBucket(2, 4, conformSlots("e4", 2)); err == nil {
		t.Fatal("lower-epoch write after a higher epoch was accepted")
	}
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 2, Epoch: 3, Slots: conformSlots("e3", 2)}}); err == nil {
		t.Fatal("lower-epoch vectored write after a higher epoch was accepted")
	}
	// Same-epoch writes supersede in place (recovery replay rewrites buckets).
	rewritten := conformSlots("e5-rewrite", 2)
	if err := b.WriteBucket(2, 5, rewritten); err != nil {
		t.Fatalf("same-epoch rewrite rejected: %v", err)
	}
	got, err := b.ReadSlot(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rewritten[0]) {
		t.Fatalf("same-epoch rewrite did not supersede: got %q", got)
	}
	// A fresh bucket may still accept epochs at or below the frontier.
	if err := b.WriteBucket(3, 4, conformSlots("fresh", 1)); err != nil {
		t.Fatalf("write to an untouched bucket at a lower epoch rejected: %v", err)
	}
}

func conformVectorReadAtomicity(t *testing.T, b Backend) {
	if err := b.WriteBucket(0, 1, conformSlots("a", 2)); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 1 << 30, Slot: 0}, {Bucket: 0, Slot: 1}})
	if err == nil {
		t.Fatal("vector with an out-of-range ref succeeded")
	}
	if got != nil {
		t.Fatalf("failed vector returned partial results: %v", got)
	}
	got, err = b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 0, Slot: 7}})
	if err == nil {
		t.Fatal("vector with an out-of-range slot succeeded")
	}
	if got != nil {
		t.Fatalf("failed vector returned partial results: %v", got)
	}
}

func conformPartialVectorRollback(t *testing.T, b Backend) {
	// Epoch 1 is the committed baseline.
	base0, base1 := conformSlots("e1b0", 2), conformSlots("e1b1", 2)
	if err := b.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: base0},
		{Bucket: 1, Epoch: 1, Slots: base1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	// An epoch-2 vector that fails mid-way may leave a prefix installed.
	err := b.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 2, Slots: conformSlots("e2b0", 2)},
		{Bucket: 1 << 30, Epoch: 2, Slots: conformSlots("bad", 2)},
		{Bucket: 1, Epoch: 2, Slots: conformSlots("e2b1", 2)},
	})
	if err == nil {
		t.Fatal("vectored write with an out-of-range bucket succeeded")
	}
	// Shadow paging makes the partial prefix harmless: revert to epoch 1.
	if err := b.RollbackTo(1); err != nil {
		t.Fatalf("RollbackTo after partial vector: %v", err)
	}
	for bucket, want := range map[int][][]byte{0: base0, 1: base1} {
		got, err := b.ReadBucket(bucket)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
			t.Fatalf("bucket %d after rollback = %q, want %q", bucket, got, want)
		}
	}
}

func conformCommitRollback(t *testing.T, b Backend) {
	if err := b.WriteBucket(0, 1, conformSlots("e1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBucket(0, 2, conformSlots("e2", 1)); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e2-slot0" {
		t.Fatalf("newest version not served: %q", got)
	}
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	got, err = b.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e1-slot0" {
		t.Fatalf("rollback did not restore the committed version: %q", got)
	}
	// Rolling back to the committed frontier is a no-op.
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadSlot(0, 0); string(got) != "e1-slot0" {
		t.Fatalf("idempotent rollback changed state: %q", got)
	}
	// Committing again is idempotent too.
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
}

// ConformSlotCountPerVersion holds a store to what the executor leans on:
// successive versions of one bucket may hold different numbers of slots (a
// whole Z+S bucket from tree initialization, then its Z real positions), reads
// are bounded by the newest version's count, a bad slot fails its whole vector,
// and a rollback brings the older count back. reopen, when not nil, closes and
// reopens a durable store between the steps; the store must answer the same.
func ConformSlotCountPerVersion(t *testing.T, b Backend, reopen func(Backend) Backend) {
	if reopen == nil {
		reopen = func(b Backend) Backend { return b }
	}
	expect := func(when string, want [][]byte) {
		t.Helper()
		all, err := b.ReadBucket(0)
		if err != nil || len(all) != len(want) {
			t.Fatalf("%s: ReadBucket returned %d slots (%v), want %d", when, len(all), err, len(want))
		}
		last := len(want) - 1
		got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: last}, {Bucket: 0, Slot: 0}})
		if err != nil || !bytes.Equal(got[0], want[last]) || !bytes.Equal(got[1], want[0]) {
			t.Fatalf("%s: ReadSlots of the first and last slot = %q, %v", when, got, err)
		}
		if _, err := b.ReadSlot(0, len(want)); err == nil {
			t.Fatalf("%s: ReadSlot(0, %d) succeeded on a version of %d slots", when, len(want), len(want))
		}
		if got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 0, Slot: len(want)}}); err == nil || got != nil {
			t.Fatalf("%s: a vector naming slot %d of a version of %d slots returned %q, %v", when, len(want), len(want), got, err)
		}
	}
	whole, real := conformSlots("e1", 40), conformSlots("e2", 16)
	if err := b.WriteBucket(0, 1, whole); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	expect("40 slots committed", whole)
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: real}}); err != nil {
		t.Fatalf("a 16-slot version over a 40-slot one: %v", err)
	}
	expect("16 slots over 40", real)
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	expect("rolled back to 40 slots", whole)
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: conformSlots("e2", 16)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(2); err != nil {
		t.Fatal(err)
	}
	// An uncommitted 40-slot version on top: a reopened store may or may not
	// still hold it, and rolls it back either way.
	if err := b.WriteBucket(0, 3, conformSlots("e3", 40)); err != nil {
		t.Fatal(err)
	}
	b = reopen(b)
	if err := b.RollbackTo(2); err != nil {
		t.Fatal(err)
	}
	expect("16 slots committed, a 40-slot version rolled back", real)
}

func conformLogSequence(t *testing.T, b Backend) {
	if seq, err := b.LastSeq(); err != nil || seq != 0 {
		t.Fatalf("fresh LastSeq = %d, %v (want 0)", seq, err)
	}
	for i := 1; i <= 5; i++ {
		seq, err := b.Append([]byte(fmt.Sprintf("rec%d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
	recs, err := b.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[0]) != "rec1" || string(recs[4]) != "rec5" {
		t.Fatalf("Scan(0) = %q", recs)
	}
	recs, err = b.Scan(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "rec4" {
		t.Fatalf("Scan(4) = %q", recs)
	}
	if recs, err := b.Scan(99); err != nil || len(recs) != 0 {
		t.Fatalf("Scan past the end = %q, %v", recs, err)
	}
}

func conformLogTruncate(t *testing.T, b Backend) {
	for i := 1; i <= 5; i++ {
		if _, err := b.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Truncate(3); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[0]) != "rec3" {
		t.Fatalf("Scan after Truncate(3) = %q", recs)
	}
	if seq, _ := b.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq after truncate = %d, want 5", seq)
	}
	// Truncation beyond the end clamps: sequence numbers keep counting.
	if err := b.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if recs, _ := b.Scan(0); len(recs) != 0 {
		t.Fatalf("Scan after truncate-all = %q", recs)
	}
	if seq, _ := b.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq after truncate-all = %d, want 5", seq)
	}
	seq, err := b.Append([]byte("rec6"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("Append after truncate-all returned seq %d, want 6", seq)
	}
	// Truncate never rewinds.
	if err := b.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if recs, _ := b.Scan(0); len(recs) != 1 || string(recs[0]) != "rec6" {
		t.Fatalf("Scan after no-op truncate = %q", recs)
	}
}

func conformKV(t *testing.T, b Backend) {
	if _, found, err := b.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = %v, %v", found, err)
	}
	if err := b.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := b.Get("k"); err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get(k) = %q, %v, %v", v, found, err)
	}
	if err := b.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := b.Get("k"); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if err := b.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, found, err := b.Get("empty"); err != nil || !found {
		t.Fatalf("empty value not found: %v, %v", found, err)
	}
	if err := b.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := b.Get("k"); found {
		t.Fatal("deleted key still found")
	}
	if err := b.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of a missing key errored: %v", err)
	}
}

// ---- group-commit conformance ----

// RunGroupCommitConformance exercises the Backend contract edges that only
// appear when several shards share one durability scheduler (a CommitGroup
// over one data dir, or a LatencyGroup over mem shards). The factory must
// return n open, empty backends whose durability barriers coalesce, and
// register cleanup on t. The contract under test: coalescing is invisible —
// concurrent CommitEpoch calls from every shard succeed and each shard still
// observes its *own* epoch-order rejection and ErrClosed semantics,
// unchanged from the single-shard suite.
func RunGroupCommitConformance(t *testing.T, n int, factory func(t *testing.T, n int) []Backend) {
	if n < 2 {
		t.Fatalf("group conformance needs at least 2 shards (got %d)", n)
	}
	newShards := func(t *testing.T) []Backend {
		shards := factory(t, n)
		if len(shards) != n {
			t.Fatalf("factory returned %d shards, want %d", len(shards), n)
		}
		return shards
	}

	t.Run("concurrent-commit", func(t *testing.T) {
		shards := newShards(t)
		const epochs = 8
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for e := uint64(1); e <= epochs; e++ {
					slots := conformSlots(fmt.Sprintf("s%d-e%d", i, e), 2)
					if err := b.WriteBucket(0, e, slots); err != nil {
						errs[i] = err
						return
					}
					if err := b.CommitEpoch(e); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		for i, b := range shards {
			got, err := b.ReadSlot(0, 0)
			if err != nil {
				t.Fatalf("shard %d read-back: %v", i, err)
			}
			want := fmt.Sprintf("s%d-e%d-slot0", i, epochs)
			if string(got) != want {
				t.Fatalf("shard %d newest slot = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("per-shard-epoch-order", func(t *testing.T) {
		// Every shard races ahead to its own epoch frontier; a stale write on
		// one shard must be rejected by THAT shard's frontier regardless of
		// what its groupmates are committing at the same moment.
		shards := newShards(t)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				frontier := uint64(i + 2) // distinct per shard
				if err := b.WriteBucket(1, frontier, conformSlots("hi", 1)); err != nil {
					errs[i] = err
					return
				}
				if err := b.CommitEpoch(frontier); err != nil {
					errs[i] = err
					return
				}
				if err := b.WriteBucket(1, frontier-1, conformSlots("stale", 1)); err == nil {
					errs[i] = fmt.Errorf("shard %d accepted an epoch-%d write after epoch %d", i, frontier-1, frontier)
					return
				}
				// Re-committing at or below the frontier stays idempotent.
				if err := b.CommitEpoch(frontier - 1); err != nil {
					errs[i] = err
				}
			}(i, b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("concurrent-append-and-commit", func(t *testing.T) {
		// Mixed namespaces standing on the same scheduler: each shard's log
		// sequence must stay dense and private while everyone commits.
		shards := newShards(t)
		const records = 16
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for r := 1; r <= records; r++ {
					seq, err := b.Append([]byte(fmt.Sprintf("s%d-r%d", i, r)))
					if err != nil {
						errs[i] = err
						return
					}
					if seq != uint64(r) {
						errs[i] = fmt.Errorf("shard %d append %d returned seq %d", i, r, seq)
						return
					}
					if r%4 == 0 {
						if err := b.Put(fmt.Sprintf("k%d", r), []byte("v")); err != nil {
							errs[i] = err
							return
						}
						if err := b.CommitEpoch(uint64(r / 4)); err != nil {
							errs[i] = err
							return
						}
					}
				}
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		for i, b := range shards {
			recs, err := b.Scan(0)
			if err != nil {
				t.Fatalf("shard %d scan: %v", i, err)
			}
			if len(recs) != records {
				t.Fatalf("shard %d recovered %d records, want %d", i, len(recs), records)
			}
			for r, rec := range recs {
				if want := fmt.Sprintf("s%d-r%d", i, r+1); string(rec) != want {
					t.Fatalf("shard %d record %d = %q, want %q", i, r, rec, want)
				}
			}
		}
	})

	t.Run("closed-shard-isolation", func(t *testing.T) {
		// Closing one shard must not take the scheduler (or its groupmates)
		// down with it, and the closed shard must keep reporting ErrClosed.
		shards := newShards(t)
		if err := shards[0].Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := shards[0].CommitEpoch(1); !errors.Is(err, ErrClosed) {
			t.Fatalf("CommitEpoch on closed shard = %v, want ErrClosed", err)
		}
		if _, err := shards[0].Append([]byte("r")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Append on closed shard = %v, want ErrClosed", err)
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for e := uint64(1); e <= 4; e++ {
					if err := b.WriteBucket(0, e, conformSlots("live", 1)); err != nil {
						errs[i] = err
						return
					}
					if err := b.CommitEpoch(e); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, shards[i])
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("surviving shard %d: %v", i, err)
			}
		}
	})

	t.Run("deferred-append-sync", func(t *testing.T) {
		// The deferred-barrier capability (LogBatcher): every shard appends
		// without syncing, ONE shard's SyncLog closes the round, and each
		// stream must still read back dense, private, in-order — the
		// barrier placement the proxy's epoch schedule relies on. Skipped
		// for factories whose shards don't expose the capability.
		shards := newShards(t)
		batchers := make([]LogBatcher, n)
		for i, b := range shards {
			lb, ok := b.(LogBatcher)
			if !ok {
				t.Skipf("shard type %T lacks LogBatcher", b)
			}
			batchers[i] = lb
		}
		const rounds = 5
		for r := 1; r <= rounds; r++ {
			// Mix synced and deferred appends: odd rounds also exercise the
			// plain Append path to prove the two interleave correctly.
			for i, lb := range batchers {
				seq, err := lb.AppendNoSync([]byte(fmt.Sprintf("s%d-r%d-a", i, r)))
				if err != nil {
					t.Fatalf("shard %d round %d AppendNoSync: %v", i, r, err)
				}
				if want := uint64((r-1)*2 + 1); seq != want {
					t.Fatalf("shard %d round %d AppendNoSync seq = %d, want %d", i, r, seq, want)
				}
			}
			// One shard's barrier covers the whole round.
			if err := batchers[r%n].SyncLog(); err != nil {
				t.Fatalf("round %d SyncLog: %v", r, err)
			}
			for i, b := range shards {
				seq, err := b.Append([]byte(fmt.Sprintf("s%d-r%d-b", i, r)))
				if err != nil {
					t.Fatalf("shard %d round %d Append: %v", i, r, err)
				}
				if want := uint64(r * 2); seq != want {
					t.Fatalf("shard %d round %d Append seq = %d, want %d", i, r, seq, want)
				}
			}
		}
		// A SyncLog with nothing pending must be a cheap no-op, not an error.
		for i, lb := range batchers {
			if err := lb.SyncLog(); err != nil {
				t.Fatalf("shard %d idle SyncLog: %v", i, err)
			}
		}
		for i, b := range shards {
			recs, err := b.Scan(0)
			if err != nil {
				t.Fatalf("shard %d scan: %v", i, err)
			}
			if len(recs) != rounds*2 {
				t.Fatalf("shard %d has %d records, want %d", i, len(recs), rounds*2)
			}
			for r := 1; r <= rounds; r++ {
				wantA := fmt.Sprintf("s%d-r%d-a", i, r)
				wantB := fmt.Sprintf("s%d-r%d-b", i, r)
				if got := string(recs[(r-1)*2]); got != wantA {
					t.Fatalf("shard %d record %d = %q, want %q", i, (r-1)*2, got, wantA)
				}
				if got := string(recs[(r-1)*2+1]); got != wantB {
					t.Fatalf("shard %d record %d = %q, want %q", i, (r-1)*2+1, got, wantB)
				}
			}
			last, err := b.LastSeq()
			if err != nil {
				t.Fatalf("shard %d LastSeq: %v", i, err)
			}
			if last != uint64(rounds*2) {
				t.Fatalf("shard %d LastSeq = %d, want %d", i, last, rounds*2)
			}
		}
	})
}

func conformClosed(t *testing.T, b Backend, opts ConformanceOptions) {
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkClosed := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close = %v, want ErrClosed", op, err)
		}
	}
	if !opts.BucketDataDiscarded {
		_, err := b.ReadSlot(0, 0)
		checkClosed("ReadSlot", err)
		_, err = b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}})
		checkClosed("ReadSlots", err)
		_, err = b.ReadBucket(0)
		checkClosed("ReadBucket", err)
		checkClosed("WriteBucket", b.WriteBucket(0, 1, conformSlots("x", 1)))
		checkClosed("WriteBuckets", b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 1, Slots: conformSlots("x", 1)}}))
	}
	checkClosed("CommitEpoch", b.CommitEpoch(1))
	checkClosed("RollbackTo", b.RollbackTo(0))
	_, err := b.NumBuckets()
	checkClosed("NumBuckets", err)
	_, _, err = b.Get("k")
	checkClosed("Get", err)
	checkClosed("Put", b.Put("k", []byte("v")))
	checkClosed("Delete", b.Delete("k"))
	_, err = b.Append([]byte("r"))
	checkClosed("Append", err)
	_, err = b.Scan(0)
	checkClosed("Scan", err)
	checkClosed("Truncate", b.Truncate(1))
	_, err = b.LastSeq()
	checkClosed("LastSeq", err)
}
