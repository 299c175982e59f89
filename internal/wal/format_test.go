package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// formatParams is a small tree whose every bucket one epoch can rewrite: 16
// leaves, so 16 consecutive evict-paths (A accesses each) cover all 31
// buckets.
var formatParams = ringoram.Params{NumBlocks: 64, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 32}

const formatEpochAccesses = 64 // 16 evictions × A

type formatHarness struct {
	t       testing.TB
	oram    *ringoram.ORAM
	exec    *oramexec.Executor
	backend *storage.MemBackend
	log     *Log
	epoch   uint64
}

func newFormatHarness(t testing.TB, seed uint64, cfg Config) *formatHarness {
	t.Helper()
	p := formatParams
	p.Seed = seed
	backend := storage.NewMemBackend(p.Geometry().NumBuckets)
	o, err := oramexec.InitORAM(backend, cryptoutil.KeyFromSeed([]byte("wal")), p)
	if err != nil {
		t.Fatal(err)
	}
	h := &formatHarness{t: t, oram: o, backend: backend, exec: oramexec.New(o, backend, oramexec.Config{}), epoch: 1}
	h.log = newLog(t, backend, cfg)
	h.exec.BeginEpoch(h.epoch)
	return h
}

// run logs and executes a planned batch.
func (h *formatHarness) run(batch int, plan *oramexec.BatchPlan, err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.log.AppendBatch(h.epoch, batch, plan.Log()); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.exec.Execute(plan); err != nil {
		h.t.Fatal(err)
	}
}

func (h *formatHarness) reads(batch int, keys ...string) {
	h.t.Helper()
	plan, err := h.exec.PlanReadBatch(ops(keys))
	h.run(batch, plan, err)
}

func (h *formatHarness) writes(batch int, ops []oramexec.WriteOp) {
	h.t.Helper()
	plan, err := h.exec.PlanWriteBatch(ops)
	h.run(batch, plan, err)
}

// endEpoch flushes the epoch, commits it with its checkpoint and returns that
// record as stored.
func (h *formatHarness) endEpoch() []byte {
	h.t.Helper()
	if _, err := h.exec.Flush(); err != nil {
		h.t.Fatal(err)
	}
	if err := h.backend.CommitEpoch(h.epoch); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.log.AppendCheckpoint(h.epoch, h.oram); err != nil {
		h.t.Fatal(err)
	}
	recs, err := h.backend.Scan(0)
	if err != nil {
		h.t.Fatal(err)
	}
	h.epoch++
	h.exec.BeginEpoch(h.epoch)
	return recs[len(recs)-1]
}

func formatKey(i int) string { return fmt.Sprintf("key-%02d", i) }

// preload writes n keys with full-width values and runs enough padding
// write slots that evictions drain the stash back into the tree.
func (h *formatHarness) preload(n int) {
	h.t.Helper()
	ops := make([]oramexec.WriteOp, n)
	for i := range ops {
		ops[i] = oramexec.WriteOp{Key: formatKey(i), Value: bytes.Repeat([]byte{byte(i)}, formatParams.ValueSize)}
	}
	h.writes(0, ops)
	h.endEpoch()
	for e := 0; e < 8 && h.oram.StashSize() > 0; e++ {
		h.writes(0, make([]oramexec.WriteOp, formatEpochAccesses))
		h.endEpoch()
	}
	if n := h.oram.StashSize(); n != 0 {
		h.t.Fatalf("preload left %d blocks in the stash", n)
	}
}

// TestRecordSizeIndependentOfRealEntries: a record's length is a function of
// public counts only. An epoch of nothing but padding dummies and an epoch
// whose every position-map entry is real produce deltas of one length (each
// rewrites every bucket of the tree, so the public bucket counts agree), and
// a batch of dummies logs exactly as many bytes as a batch of real accesses.
func TestRecordSizeIndependentOfRealEntries(t *testing.T) {
	cfg := Config{
		FullCheckpointEvery: 1 << 20, PadPosEntries: formatEpochAccesses,
		PadStashEntries: 64, PadValueSize: formatParams.ValueSize,
	}
	h := newFormatHarness(t, 5, cfg)
	h.preload(formatEpochAccesses)

	// All dummies: no position-map entry is real.
	for b := 0; b < 4; b++ {
		h.reads(b, make([]string, formatEpochAccesses/4)...)
	}
	dummyDelta := h.endEpoch()
	// All real: every key of the store is read once, PadPosEntries of them.
	for b := 0; b < 4; b++ {
		keys := make([]string, formatEpochAccesses/4)
		for i := range keys {
			keys[i] = formatKey(b*len(keys) + i)
		}
		h.reads(b, keys...)
	}
	realDelta := h.endEpoch()
	if len(dummyDelta) != len(realDelta) {
		t.Fatalf("delta of an all-dummy epoch is %d bytes, of an all-real epoch %d", len(dummyDelta), len(realDelta))
	}
	for name, rec := range map[string][]byte{"dummy": dummyDelta, "real": realDelta} {
		plain, err := h.log.open(rec, checkpointHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		info, err := ringoram.InspectImage(plain[checkpointHeaderSize:])
		if err != nil || info.Full || info.PosEntries != formatEpochAccesses || info.Buckets != formatParams.Geometry().NumBuckets {
			t.Fatalf("%s epoch's checkpoint: %+v, %v; want a delta of %d position entries over every bucket", name, info, err, formatEpochAccesses)
		}
	}

	// Batch records: three accesses, no eviction or reshuffle falling due in
	// either batch, so both logs hold three access entries.
	batchRecord := func(keys ...string) []byte {
		h := newFormatHarness(t, 6, cfg)
		h.preload(8)
		h.reads(0, keys...)
		recs, err := h.backend.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		rec := recs[len(recs)-1]
		if rec[0] != kindBatch {
			t.Fatalf("last record is kind %d, want the batch record", rec[0])
		}
		plain, err := h.log.open(rec, batchHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		if entries, err := oramexec.DecodeBatchLog(plain[batchHeaderSize:]); err != nil || len(entries) != 3 {
			t.Fatalf("batch logged %d entries (%v), want 3 accesses", len(entries), err)
		}
		return rec
	}
	if d, r := batchRecord("", "", ""), batchRecord(formatKey(0), formatKey(3), formatKey(7)); len(d) != len(r) {
		t.Fatalf("batch record of three dummies is %d bytes, of three real accesses %d", len(d), len(r))
	}
}

// TestRecordBytesDeterministic: the same seed and operations produce the same
// record plaintexts — batch, delta and full — byte for byte. Nothing
// in a record follows map iteration order.
func TestRecordBytesDeterministic(t *testing.T) {
	run := func() [][]byte {
		h := newFormatHarness(t, 9, Config{FullCheckpointEvery: 3, PadPosEntries: 24, PadStashEntries: 64})
		for e := 0; e < 7; e++ {
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = formatKey((e*5 + i*3) % 40)
			}
			h.reads(0, keys...)
			h.reads(1, "", formatKey(e), "")
			ops := make([]oramexec.WriteOp, 12)
			for i := 0; i < 9; i++ {
				ops[i] = oramexec.WriteOp{Key: formatKey((e*7 + i) % 40), Value: []byte(fmt.Sprintf("v%d-%d", e, i)), Tombstone: i == 8}
			}
			h.writes(2, ops)
			h.endEpoch()
		}
		recs, err := h.backend.Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		plains := make([][]byte, len(recs))
		for i, rec := range recs {
			if plains[i], err = h.log.open(rec, 1); err != nil {
				t.Fatal(err)
			}
		}
		return plains
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("two identical runs logged %d and %d records", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("record %d differs between two identical seeded runs", i)
		}
	}
}

// sealPlain stores plain as the plaintext of a record of the given kind.
func sealPlain(t testing.TB, l *Log, kind byte, plain []byte) []byte {
	t.Helper()
	rec, p := newRecord(kind, len(plain))
	copy(p, plain)
	if err := l.seal(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestOlderFormatRejected: a record whose version byte is not this build's —
// version 0 is what the retired gob encoding wrote, version 1 committed epochs
// with a 9-byte record of kind 3 — fails recovery and the standby's commit
// tracking with ErrFormat, whatever follows the byte.
func TestOlderFormatRejected(t *testing.T) {
	for version := byte(0); version < formatVersion; version++ {
		for kind := byte(kindBatch); kind <= kindCheckpointCommitting; kind++ {
			o, backend := testORAM(t)
			l := newLog(t, backend, Config{})
			if _, err := l.AppendCheckpoint(1, o); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Recover(); err != nil {
				t.Fatalf("recovering the current-format log: %v", err)
			}
			old := sealPlain(t, l, kind, append([]byte{version}, "8 bytes."...))
			if _, err := backend.Append(old); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Recover(); !errors.Is(err, ErrFormat) {
				t.Fatalf("recovering over a version-%d record of kind %d: %v, want ErrFormat", version, kind, err)
			}
			if _, _, err := l.DecodeCommitEpoch(old); kind == kindCheckpointCommitting && !errors.Is(err, ErrFormat) {
				t.Fatalf("decoding a version-%d commit record: %v, want ErrFormat", version, err)
			}
		}
	}
}

// mallocsOf counts the heap allocations f performs.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBoundaryAllocBudget is the epoch boundary's allocation gate: preparing
// and appending a delta checkpoint costs at most 4 allocations and logging a
// batch at most 3, whatever the epoch dirtied — the record buffer, the
// pending-checkpoint handle, and the log store's (amortized) bookkeeping.
func TestBoundaryAllocBudget(t *testing.T) {
	const checkpointBudget, batchBudget = 4, 3
	// The counter is process-wide: keep the collector's own bookkeeping out
	// of the measured windows.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newFormatHarness(t, 13, Config{FullCheckpointEvery: 1 << 20, PadPosEntries: 2 * formatEpochAccesses, PadStashEntries: 64})
	h.preload(48)
	epoch := func(reads, writeSlots int) (batch, checkpoint uint64) {
		keys := make([]string, reads)
		for i := range keys {
			keys[i] = formatKey((int(h.epoch)*11 + i) % 48)
		}
		plan, err := h.exec.PlanReadBatch(ops(keys))
		if err != nil {
			t.Fatal(err)
		}
		log := plan.Log()
		batch = mallocsOf(func() { err = h.log.AppendBatchDeferred(h.epoch, 0, log) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.exec.Execute(plan); err != nil {
			t.Fatal(err)
		}
		h.writes(1, make([]oramexec.WriteOp, writeSlots))
		if _, err := h.exec.Flush(); err != nil {
			t.Fatal(err)
		}
		checkpoint = mallocsOf(func() {
			var cp *PendingCheckpoint
			if cp, err = h.log.PrepareCheckpoint(h.epoch, h.oram); err == nil {
				_, err = h.log.AppendPreparedDeferred(cp)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		h.epoch++
		h.exec.BeginEpoch(h.epoch)
		return batch, checkpoint
	}
	// A quiet epoch dirties a handful of buckets, a busy one all of them.
	for _, shape := range []struct{ reads, writeSlots int }{{1, 1}, {32, 64}, {2, 0}, {40, 128}} {
		for i := 0; i < 4; i++ {
			batch, checkpoint := epoch(shape.reads, shape.writeSlots)
			t.Logf("%d reads, %d write slots: batch record %d allocations, delta checkpoint %d", shape.reads, shape.writeSlots, batch, checkpoint)
			if batch > batchBudget {
				t.Errorf("logging a batch of %d reads took %d allocations, budget %d", shape.reads, batch, batchBudget)
			}
			if checkpoint > checkpointBudget {
				t.Errorf("delta checkpoint after %d reads and %d write slots took %d allocations, budget %d", shape.reads, shape.writeSlots, checkpoint, checkpointBudget)
			}
		}
	}
}

func ops(keys []string) []oramexec.ReadOp {
	out := make([]oramexec.ReadOp, len(keys))
	for i, k := range keys {
		out[i].Key = k
	}
	return out
}
