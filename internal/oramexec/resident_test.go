package oramexec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// residentParams is a tree of L = 6: levels 0..3, 15 buckets, stay resident.
func residentParams(seed uint64) ringoram.Params { return testParams(256, seed) }

// epochOps draws one epoch of the tests' fixed schedule: two read batches of
// four distinct keys (one slot padding) and a write batch of four.
func epochOps(rng *rand.Rand, e int) (reads [2][]ReadOp, writes []WriteOp) {
	for r := range reads {
		reads[r] = make([]ReadOp, 4)
		for i, k := range rng.Perm(48)[:3] {
			reads[r][i].Key = fmt.Sprintf("k%d", k)
		}
	}
	writes = make([]WriteOp, 4)
	for i, k := range rng.Perm(48)[:3] {
		writes[i] = WriteOp{Key: fmt.Sprintf("k%d", k), Value: []byte(fmt.Sprintf("v%d-%d", e, i))}
	}
	return reads, writes
}

// runEpoch executes one epoch's batches and returns the read results.
func runEpoch(t *testing.T, e *Executor, reads [2][]ReadOp, writes []WriteOp) (results []ReadResult) {
	t.Helper()
	for _, ops := range reads {
		plan, err := e.PlanReadBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res...)
	}
	plan, err := e.PlanWriteBatch(writes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(plan); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestResidentWarmEqualsCold is the differential behind "a restarted proxy
// starts cold and nothing else changes". Two identically seeded deployments
// run the same epochs; after every epoch both restore their ORAM from its full
// checkpoint (so both draw from the same restarted generator), but one keeps
// its executor — epoch after epoch warmer — while the other builds a new one,
// as a restart does. Results and checkpoint images must be identical, and the
// reads the warm one sends to storage a subset of the cold one's.
func TestResidentWarmEqualsCold(t *testing.T) {
	p := residentParams(31)
	key := cryptoutil.KeyFromSeed([]byte("exec"))
	warm, cold := newHarness(t, p, Config{}), newHarness(t, p, Config{})
	remote := func(h *harness) map[storage.SlotRef]bool {
		out := make(map[storage.SlotRef]bool)
		for _, ev := range h.rec.Events() {
			if ev.Op == storage.OpReadSlot {
				out[storage.SlotRef{Bucket: ev.Bucket, Slot: ev.Slot}] = true
			}
		}
		return out
	}
	rng := rand.New(rand.NewPCG(11, 13))
	skipped := 0
	for e := 0; e < 40; e++ {
		reads, writes := epochOps(rng, e)
		warm.rec.Reset()
		cold.rec.Reset()
		a, b := runEpoch(t, warm.exec, reads, writes), runEpoch(t, cold.exec, reads, writes)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("epoch %d: warm read %v, cold read %v", e, a, b)
		}
		coldReads := remote(cold)
		for ref := range remote(warm) {
			if !coldReads[ref] {
				t.Fatalf("epoch %d: warm read bucket %d slot %d from storage, cold did not", e, ref.Bucket, ref.Slot)
			}
			delete(coldReads, ref)
		}
		skipped += len(coldReads)
		warm.endEpoch(t)
		cold.endEpoch(t)

		imgW, err := warm.oram.EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		imgC, err := cold.oram.EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imgW, imgC) {
			t.Fatalf("epoch %d: warm and cold checkpoint images differ", e)
		}
		if warm.oram, err = ringoram.Restore(key, p, imgW); err != nil {
			t.Fatal(err)
		}
		if cold.oram, err = ringoram.Restore(key, p, imgC); err != nil {
			t.Fatal(err)
		}
		warm.exec.oram = warm.oram
		cold.exec = New(cold.oram, cold.rec, Config{})
		cold.exec.BeginEpoch(cold.epoch)
	}
	if skipped == 0 {
		t.Fatal("the warm executor read everything the cold one did: the resident set served nothing")
	}
	warm.checkInvariant(t)
	cold.checkInvariant(t)
}

// TestResidentCopiesNeverAliasArenas: a resident frame holds the bytes of the
// buffered version's slot in memory of its own. Arenas are recycled when a
// later eviction of the same epoch supersedes the version (the root's, every
// eviction) and pass to the store at the flush; a frame that pointed into one
// would change under the reads it serves.
func TestResidentCopiesNeverAliasArenas(t *testing.T) {
	h := newHarness(t, residentParams(32), Config{})
	rng := rand.New(rand.NewPCG(17, 19))
	checked := 0
	for e := 0; e < 12; e++ {
		reads, writes := epochOps(rng, e)
		runEpoch(t, h.exec, reads, writes)
		for b := range h.exec.resident {
			rb, buf := &h.exec.resident[b], h.exec.buffered[b]
			if buf == nil {
				continue
			}
			if rb.ver != buf.w.Ver {
				t.Fatalf("bucket %d: resident version %d, buffered version %d", b, rb.ver, buf.w.Ver)
			}
			for _, f := range rb.frames {
				slot := buf.w.Slots[binary.BigEndian.Uint16(f)]
				if !bytes.Equal(f[2:], slot) {
					t.Fatalf("bucket %d: resident frame differs from the buffered slot", b)
				}
				if &f[2] == &slot[0] {
					t.Fatalf("bucket %d: resident frame aliases the buffered arena", b)
				}
				checked++
			}
		}
		h.endEpoch(t)
	}
	if checked == 0 {
		t.Fatal("no resident frame was ever compared")
	}
	if ev := h.exec.Stats().Evictions; ev < 2*12 {
		t.Fatalf("%d evictions in 12 epochs: no version was superseded inside an epoch", ev)
	}
	h.checkInvariant(t)
}

// TestResidentBudget pins what the resident set may cost. Memory: the frames
// in existence never exceed Z per resident bucket. Allocation: a steady-state
// epoch with the set warm allocates no more than the same epoch with the set
// emptied first, which sends every read the set would have served to storage.
func TestResidentBudget(t *testing.T) {
	p := residentParams(33)
	steady := func(empty bool) (perEpoch float64, e *Executor) {
		backend := storage.NewMemBackend(p.Geometry().NumBuckets)
		oram, err := InitORAM(backend, cryptoutil.KeyFromSeed([]byte("exec")), p)
		if err != nil {
			t.Fatal(err)
		}
		e = New(oram, backend, Config{})
		rng := rand.New(rand.NewPCG(23, 29))
		limit := int64(p.Z * (2 + oram.SlotSize()) * residentBuckets(p.Geometry()))
		epoch := uint64(0)
		one := func() {
			epoch++
			e.BeginEpoch(epoch)
			if empty {
				e.dropResident()
			}
			reads, writes := epochOps(rng, int(epoch))
			runEpoch(t, e, reads, writes)
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := backend.CommitEpoch(epoch); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().ResidentBytes; got > limit {
				t.Fatalf("epoch %d: %d resident bytes, the bound is %d", epoch, got, limit)
			}
		}
		for i := 0; i < 200; i++ {
			one()
		}
		return testing.AllocsPerRun(100, one), e
	}
	warm, e := steady(false)
	emptied, _ := steady(true)
	if e.Stats().ResidentBytes == 0 {
		t.Fatal("nothing is resident after 300 epochs of evictions")
	}
	if warm > emptied && !raceEnabled {
		t.Fatalf("a warm epoch allocates %.0f objects, an emptied one %.0f: the resident set allocates in steady state", warm, emptied)
	}
	t.Logf("allocations per epoch: %.0f warm, %.0f emptied; %d resident bytes", warm, emptied, e.Stats().ResidentBytes)
}
