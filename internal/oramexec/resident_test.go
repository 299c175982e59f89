package oramexec

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
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

// TestResidentWarmEqualsRecovered is the differential behind "the resident
// levels are recovered state, not a cache". Two identically seeded
// deployments run the same epochs; after every epoch one keeps its executor
// and its ORAM's table as they are, the other builds a new executor over its
// ORAM and loads the resident levels back from storage, as a recovery does,
// replacing the versions its table held. Results and checkpoint images must
// be identical, but for the seed of each bucket's version, which each
// deployment draws itself; neither may read a resident level outside the
// load, the load must be the same one-call read every time, and it must
// bring blocks back.
// That the load keeps exactly the blocks the metadata still places, each
// byte-equal to the block the replaced version held at that slot, is checked
// where the table lives: ringoram's planeClient.load, at the in-place reloads
// of TestLocalTableOwnsEachSlotOnce and the Restore of
// TestBlockPlaneSlotsAreCanonical.
func TestResidentWarmEqualsRecovered(t *testing.T) {
	p := residentParams(31)
	warm, cold := newHarness(t, p, Config{}), newHarness(t, p, Config{})
	nRes := warm.exec.resident
	wantLoad := loadRefs(nRes, p.Z)
	rng := rand.New(rand.NewPCG(11, 13))
	loads := 0
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

		imgW, err := warm.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		imgC, err := cold.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Each deployment draws its versions' seeds fresh: the images may
		// differ in those alone, each bucket's at the same offset in both.
		for b := range p.Geometry().NumBuckets {
			sw, sc := warm.oram.Machine().Seed(b), cold.oram.Machine().Seed(b)
			at := bytes.Index(imgW, sw[:])
			if at < 0 || at != bytes.Index(imgC, sc[:]) {
				t.Fatalf("epoch %d: bucket %d's seed is at offset %d of the warm image, %d of the recovered one", e, b, at, bytes.Index(imgC, sc[:]))
			}
			copy(imgC[at:], sw[:])
		}
		if !bytes.Equal(imgW, imgC) {
			t.Fatalf("epoch %d: warm and recovered checkpoint images differ", e)
		}
		// A recovery's load: roll back to the committed epoch (nothing to
		// discard here), build the executor, read the resident levels back.
		if err := cold.rec.RollbackTo(cold.epoch - 1); err != nil {
			t.Fatal(err)
		}
		cold.exec = New(cold.oram, cold.rec, Config{})
		cold.exec.BeginEpoch(cold.epoch)
		cold.rec.Reset()
		if err := cold.exec.LoadResident(); err != nil {
			t.Fatal(err)
		}
		if got := slotReadRefs(cold.rec.Events()); fmt.Sprint(got) != fmt.Sprint(wantLoad) || cold.rec.Calls().ReadSlots != 1 {
			t.Fatalf("epoch %d: the load read %v in %d calls, want slots 0..%d of buckets 0..%d in one", e, got, cold.rec.Calls().ReadSlots, p.Z-1, nRes-1)
		}
		if cold.exec.Stats().ResidentBytes > 0 {
			loads++
		}
	}
	if loads == 0 {
		t.Fatal("no load ever brought a block back: the upper levels stayed empty")
	}
	warm.checkInvariant(t)
	cold.checkInvariant(t)
}

// TestResidentBlocksNeverRecycledUnderReads: a resident bucket keeps its
// newest version's image itself, the one its eviction filed, and the sealed
// set holds that same image when the epoch that wrote it last is sealed. The
// next epoch's evictions supersede it as the newest — the root's, on every
// eviction — while the committer has yet to seal it and while reads planned
// before the supersede are served from it, so it must not go back to the pool
// before the next seal retires it: a block of a recycled image is poisoned in
// race builds, and refilled by a later eviction in any build. The test runs
// the pipelined boundary — seal, the next epoch's batches, then the flush —
// and checks that every block of every sealed image is byte-equal, after the
// next epoch's batches, to what it held at the seal, and that the slots the
// flush wrote open, under the version's binding, to those blocks.
func TestResidentBlocksNeverRecycledUnderReads(t *testing.T) {
	p := residentParams(32)
	h := newHarness(t, p, Config{})
	key := cryptoutil.KeyFromSeed([]byte("exec"))
	rng := rand.New(rand.NewPCG(17, 19))
	reads, writes := epochOps(rng, 0)
	runEpoch(t, h.exec, reads, writes)
	checked, superseded := 0, 0
	for e := 1; e <= 12; e++ {
		sealed, err := h.exec.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		held := make([][][]byte, len(sealed.images))
		for i, im := range sealed.images {
			for _, b := range im.Blocks {
				held[i] = append(held[i], bytes.Clone(b))
			}
		}
		sealedEpoch := h.epoch
		h.begin()
		evictions := h.exec.Stats().Evictions
		reads, writes := epochOps(rng, e)
		runEpoch(t, h.exec, reads, writes)
		if sealed.images[0].Bucket == 0 && h.exec.Stats().Evictions > evictions {
			superseded++ // the root's sealed version is no longer its newest
		}
		for i, im := range sealed.images {
			for j, b := range im.Blocks {
				if !bytes.Equal(b, held[i][j]) {
					t.Fatalf("epoch %d: bucket %d version %d: a sealed block changed before its flush", e, im.Bucket, im.Ver)
				}
				checked++
			}
		}
		if _, err := h.exec.FlushSealed(sealed); err != nil {
			t.Fatal(err)
		}
		if err := h.backend.CommitEpoch(sealedEpoch); err != nil {
			t.Fatal(err)
		}
		for i, im := range sealed.images {
			for j := range im.Blocks {
				frame := j // a resident bucket is stored as its real positions
				if im.Bucket >= h.exec.resident {
					frame = int(im.Real()[j])
				}
				data, err := h.backend.ReadSlot(im.Bucket, frame)
				if err != nil {
					t.Fatal(err)
				}
				blk := held[i][j]
				body, err := key.OpenSlot(nil, data, cryptoutil.Seed(im.Seed), int(im.Real()[j]), cryptoutil.Binding(uint64(im.Bucket), im.Ver, 0), h.oram.BlockKey(blk), new(cryptoutil.SlotScratch))
				if err != nil || !bytes.HasPrefix(blk, body) {
					t.Fatalf("epoch %d: bucket %d version %d: the flushed slot %d does not open to the sealed block (%v)", e, im.Bucket, im.Ver, frame, err)
				}
			}
		}
	}
	if checked == 0 || superseded == 0 {
		t.Fatalf("%d sealed blocks compared, %d epochs superseded the root's sealed version: the test would prove nothing", checked, superseded)
	}
	h.checkInvariant(t)
}

// TestResidentBudget pins what the resident levels may cost. Memory: the
// blocks they hold never exceed Z per resident bucket, and ResidentBytes is
// their size — a whole number of in-memory blocks (ORAM.BlockSize), at most
// Z per resident bucket (ringoram's checkOwnership checks the
// bucket-by-bucket sum).
// Allocation: a steady-state epoch with the levels warm allocates no more
// than the same epoch with the levels loaded back from storage first.
func TestResidentBudget(t *testing.T) {
	p := residentParams(33)
	steady := func(reload bool) (perEpoch float64, e *Executor) {
		backend := storage.NewMemBackend(p.Geometry().NumBuckets)
		oram, err := InitORAM(backend, cryptoutil.KeyFromSeed([]byte("exec")), p)
		if err != nil {
			t.Fatal(err)
		}
		e = New(oram, backend, Config{})
		plain := int64(oram.BlockSize())
		rng := rand.New(rand.NewPCG(23, 29))
		epoch := uint64(0)
		one := func() {
			epoch++
			e.BeginEpoch(epoch)
			if reload {
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
			if got, bound := e.Stats().ResidentBytes, int64(e.resident*p.Z)*plain; got%plain != 0 || got > bound {
				t.Fatalf("epoch %d: %d resident bytes reported, want whole %d-byte blocks, at most %d", epoch, got, plain, bound)
			}
		}
		for i := 0; i < 200; i++ {
			one()
		}
		return testing.AllocsPerRun(100, one), e
	}
	warm, e := steady(false)
	reloaded, _ := steady(true)
	if e.Stats().ResidentBytes == 0 {
		t.Fatal("nothing is resident after 300 epochs of evictions")
	}
	if warm > reloaded && !raceEnabled {
		t.Fatalf("a warm epoch allocates %.0f objects, a reloaded one %.0f: the resident levels allocate in steady state", warm, reloaded)
	}
	t.Logf("allocations per epoch: %.0f warm, %.0f reloaded; %d resident bytes", warm, reloaded, e.Stats().ResidentBytes)
}
