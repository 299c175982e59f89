package oramexec

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
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

// loadRefs is the read LoadResident must issue: slots 0..Z-1 of every resident
// bucket, in bucket order.
func loadRefs(nRes, z int) []storage.SlotRef {
	refs := make([]storage.SlotRef, 0, nRes*z)
	for b := 0; b < nRes; b++ {
		for r := 0; r < z; r++ {
			refs = append(refs, storage.SlotRef{Bucket: b, Slot: r})
		}
	}
	return refs
}

// slotReadRefs lists a trace's slot reads in order.
func slotReadRefs(evs []storage.Event) []storage.SlotRef {
	var refs []storage.SlotRef
	for _, ev := range evs {
		if ev.Op == storage.OpReadSlot {
			refs = append(refs, storage.SlotRef{Bucket: ev.Bucket, Slot: ev.Slot})
		}
	}
	return refs
}

// blockOf returns rb's block for physical slot s, nil when it has none.
func blockOf(rb *residentBucket, s int) []byte {
	if i := slices.Index(rb.slots, s); i >= 0 {
		return rb.blocks[i]
	}
	return nil
}

// TestResidentWarmEqualsRecovered is the differential behind "the resident set
// is recovered state". Two identically seeded deployments run the same epochs;
// after every epoch both restore their ORAM from its full checkpoint (so both
// draw from the same restarted generator), but one keeps its executor while
// the other builds a new one and loads the top, as a recovery does. Results
// and checkpoint images must be identical, neither may read a resident level
// outside the load, the load must be the same read every time, and what it
// brings back must be the blocks the replaced executor held at the end of the
// epoch (ciphertexts differ between the two deployments), restricted to the
// positions the metadata says still hold a block.
func TestResidentWarmEqualsRecovered(t *testing.T) {
	p := residentParams(31)
	key := cryptoutil.KeyFromSeed([]byte("exec"))
	warm, cold := newHarness(t, p, Config{}), newHarness(t, p, Config{})
	nRes := len(warm.exec.resident)
	wantLoad := loadRefs(nRes, p.Z)
	rng := rand.New(rand.NewPCG(11, 13))
	loaded := 0
	for e := 0; e < 40; e++ {
		reads, writes := epochOps(rng, e)
		warm.rec.Reset()
		cold.rec.Reset()
		a, b := runEpoch(t, warm.exec, reads, writes), runEpoch(t, cold.exec, reads, writes)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("epoch %d: warm read %v, recovered read %v", e, a, b)
		}
		for _, h := range []*harness{warm, cold} {
			for _, ref := range slotReadRefs(h.rec.Events()) {
				if ref.Bucket < nRes {
					t.Fatalf("epoch %d: bucket %d of a resident level read from storage outside the load", e, ref.Bucket)
				}
			}
		}
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
			t.Fatalf("epoch %d: warm and recovered checkpoint images differ", e)
		}
		restoredW, err := ringoram.Restore(key, p, imgW)
		if err != nil {
			t.Fatal(err)
		}
		warm.adopt(restoredW)
		if cold.oram, err = ringoram.Restore(key, p, imgC); err != nil {
			t.Fatal(err)
		}
		// A recovery: roll back to the committed epoch (nothing to discard
		// here), build the executor, load the top.
		if err := cold.rec.RollbackTo(cold.epoch - 1); err != nil {
			t.Fatal(err)
		}
		prev := cold.exec
		cold.exec = New(cold.oram, cold.rec, Config{})
		cold.rec.Reset()
		if err := cold.exec.LoadResident(); err != nil {
			t.Fatal(err)
		}
		if got := slotReadRefs(cold.rec.Events()); fmt.Sprint(got) != fmt.Sprint(wantLoad) || cold.rec.Calls().ReadSlots != 1 {
			t.Fatalf("epoch %d: the load read %v in %d calls, want slots 0..%d of buckets 0..%d in one", e, got, cold.rec.Calls().ReadSlots, p.Z-1, nRes-1)
		}
		cold.exec.BeginEpoch(cold.epoch)
		for b := 0; b < nRes; b++ {
			held := 0
			slots, _ := cold.oram.BlockSlots(b, nil)
			for _, s := range slots {
				if s < 0 {
					continue
				}
				held++
				w, c := blockOf(&prev.resident[b], s), blockOf(&cold.exec.resident[b], s)
				if w == nil || !bytes.Equal(w, c) {
					t.Fatalf("epoch %d: bucket %d slot %d: loaded block differs from the one the replaced executor held", e, b, s)
				}
			}
			if got := len(cold.exec.resident[b].blocks); got != held {
				t.Fatalf("epoch %d: bucket %d: %d blocks loaded, the metadata places %d blocks", e, b, got, held)
			}
			loaded += held
		}
	}
	if loaded == 0 {
		t.Fatal("no load ever brought a block back: the upper levels stayed empty")
	}
	warm.checkInvariant(t)
	cold.checkInvariant(t)
}

// TestResidentCopiesNeverAliasArenas: a resident block holds the plaintext of
// the buffered image's block in a pooled slot of its own. Images are recycled
// when a later eviction of the same epoch supersedes the version (the root's,
// every eviction) and after the flush; a block that pointed into one would
// change under the reads it serves.
func TestResidentCopiesNeverAliasArenas(t *testing.T) {
	p := residentParams(32)
	h := newHarness(t, p, Config{})
	rng := rand.New(rand.NewPCG(17, 19))
	checked := 0
	for e := 0; e < 12; e++ {
		reads, writes := epochOps(rng, e)
		runEpoch(t, h.exec, reads, writes)
		for b := range h.exec.resident {
			rb, buf := &h.exec.resident[b], h.exec.buffered[b]
			if !buf.filled() {
				continue
			}
			if len(rb.blocks) != len(buf.w.Blocks) || len(rb.slots) != len(rb.blocks) || rb.ver != buf.w.Ver {
				t.Fatalf("bucket %d: %d blocks at %d slots of version %d, the buffered image holds %d blocks of version %d", b, len(rb.blocks), len(rb.slots), rb.ver, len(buf.w.Blocks), buf.w.Ver)
			}
			for i, f := range rb.blocks {
				block := buf.w.Blocks[i]
				if rb.slots[i] != buf.w.Real()[i] || !bytes.Equal(f, block) {
					t.Fatalf("bucket %d: resident block differs from the buffered block", b)
				}
				if &f[0] == &block[0] {
					t.Fatalf("bucket %d: resident block aliases the buffered image", b)
				}
				checked++
			}
		}
		h.endEpoch(t)
	}
	if checked == 0 {
		t.Fatal("no resident block was ever compared")
	}
	if ev := h.exec.Stats().Evictions; ev < 2*12 {
		t.Fatalf("%d evictions in 12 epochs: no version was superseded inside an epoch", ev)
	}
	h.checkInvariant(t)
}

// TestResidentBudget pins what the resident set may cost. Memory: the blocks
// it holds never exceed Z per resident bucket, and ResidentBytes is their
// size. Allocation: a steady-state epoch with the set warm allocates no more
// than the same epoch with the set emptied and loaded back from storage
// first.
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
		epoch := uint64(0)
		one := func() {
			epoch++
			e.BeginEpoch(epoch)
			if empty {
				e.dropResident()
				if err := e.LoadResident(); err != nil {
					t.Fatal(err)
				}
			}
			reads, writes := epochOps(rng, int(epoch))
			runEpoch(t, e, reads, writes)
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := backend.CommitEpoch(epoch); err != nil {
				t.Fatal(err)
			}
			held := int64(0)
			for b, rb := range e.resident {
				if len(rb.blocks) > p.Z || len(rb.slots) != len(rb.blocks) {
					t.Fatalf("epoch %d: bucket %d holds %d blocks at %d slots, the bound is Z = %d", epoch, b, len(rb.blocks), len(rb.slots), p.Z)
				}
				for _, block := range rb.blocks {
					held += int64(len(block))
				}
			}
			if got := e.Stats().ResidentBytes; got != held {
				t.Fatalf("epoch %d: %d resident bytes reported, the blocks held are %d bytes", epoch, got, held)
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

// dropResident empties the resident set, as a restart over rolled-back
// storage finds it.
func (e *Executor) dropResident() {
	for i := range e.resident {
		e.releaseResident(&e.resident[i])
	}
}
