package oramexec

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// slotCounter counts the slots and bytes a store is written, each slot one
// frame of size bytes, and, once sealed is set, sorts them by trying each
// under its bucket's binding, as the slot of the block the image holds
// there: a slot that opens is a sealed block, one that fails with ErrAuth a
// filler, anything else an error. The version of each bucket is the one the
// sealed set being flushed holds.
type slotCounter struct {
	storage.BucketStore
	key                    *cryptoutil.Key
	oram                   *ringoram.ORAM
	z                      int // a resident bucket is written as its Z real positions
	size                   int
	sealed                 *SealedEpoch
	slots, blocks, fillers int64
	bytes                  int64
	err                    error
}

func (s *slotCounter) WriteBuckets(writes []storage.BucketWrite) error {
	for i, w := range writes {
		s.slots += int64(len(w.Slots))
		for j, slot := range w.Slots {
			s.bytes += int64(len(slot))
			if len(slot) != s.size && s.err == nil {
				s.err = fmt.Errorf("bucket %d slot %d: a %d-byte frame, want %d", w.Bucket, j, len(slot), s.size)
			}
		}
		if s.sealed == nil {
			continue
		}
		im := s.sealed.images[i] // the flush writes the set in its order
		if im.Bucket != w.Bucket {
			s.err = fmt.Errorf("write %d is of bucket %d, the sealed set's of bucket %d", i, w.Bucket, im.Bucket)
			break
		}
		ver := im.Ver
		binding := cryptoutil.Binding(uint64(w.Bucket), ver, 0)
		for i, slot := range w.Slots {
			phys, blk := i, im.Block(i) // the slot a block at frame i was sealed as, and the block
			if len(w.Slots) == s.z {
				blk = nil
				if i < len(im.Blocks) {
					phys, blk = int(im.Real()[i]), im.Blocks[i]
				}
			}
			var key []byte // a filler fails for every key
			if blk != nil {
				key = s.oram.BlockKey(blk)
			}
			switch _, err := s.key.OpenSlot(nil, slot, cryptoutil.Seed(im.Seed), phys, binding, key, new(cryptoutil.SlotScratch)); {
			case err == nil:
				s.blocks++
			case errors.Is(err, cryptoutil.ErrAuth) && slot[0] == byte(cryptoutil.SchemeSlot):
				s.fillers++
			default:
				s.err = fmt.Errorf("bucket %d version %d slot %d: led by %d, %v", w.Bucket, ver, i, slot[0], err)
			}
		}
	}
	return s.BucketStore.WriteBuckets(writes)
}

// TestSealsEqualFlushedSlots counts seals and fillers: every block sealed in
// an epoch is a block the epoch's flush writes, and every other slot it
// writes is a filler, sealed under nothing. A bucket version a later eviction
// of the same epoch supersedes stays a plaintext image and is never sealed.
// Every slot written is one kvMemFrame-byte frame. The geometry and schedule
// are the kv-mem benchmark's — Z = 16, S = 24, A = 16, 16-byte keys,
// 256-byte values, 16 384 keys on one shard, four read batches of 32 and a
// write batch of 64 per epoch — preloaded the way its setup is, 64 keys an
// epoch under padding reads, then run through steady-state epochs of uniform
// reads and blind writes; the test logs the set-up's and the per-epoch
// split, and the bytes flushed per epoch.
func TestSealsEqualFlushedSlots(t *testing.T) {
	// kvMemFrame is kv-mem's slot frame: the scheme byte, the sealed kind,
	// two-byte value length and 256-byte value, and the 16-byte tag. The
	// block's key stays at the proxy.
	const kvMemFrame = 276
	const (
		keys, readBatches, readBatch, writeBatch = 16384, 4, 32, 64
		steady                                   = 32
	)
	if testing.Short() {
		t.Skip("preloads 16 384 keys")
	}
	p := ringoram.Params{NumBlocks: keys, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 256, Seed: 2}
	backend := storage.NewMemBackend(p.Geometry().NumBuckets)
	defer backend.Close()
	store := &slotCounter{BucketStore: backend, key: cryptoutil.KeyFromSeed([]byte("seals")), z: p.Z, size: kvMemFrame}
	oram, err := InitORAM(store, store.key, p)
	if err != nil {
		t.Fatal(err)
	}
	store.oram = oram
	e := New(oram, store, Config{})
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key%08d", i)
	}
	value := make([]byte, p.ValueSize)
	rng := rand.New(rand.NewPCG(1, 2))
	reads, writes := make([]ReadOp, readBatch), make([]WriteOp, writeBatch)
	var sealed, filled, versions, written, opened, copied, flushed int64
	epoch := uint64(0)
	run := func(preload int) {
		epoch++
		e.BeginEpoch(epoch)
		st0 := e.Stats()
		slots0, blocks0, fillers0, bytes0 := store.slots, store.blocks, store.fillers, store.bytes
		for b := 0; b < readBatches; b++ {
			clear(reads)
			if preload < 0 {
				for i, k := range rng.Perm(keys)[:readBatch] {
					reads[i].Key = names[k]
				}
			}
			plan, err := e.PlanReadBatch(reads)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(plan); err != nil {
				t.Fatal(err)
			}
		}
		clear(writes)
		for i := range writes {
			k := rng.IntN(keys)
			if preload >= 0 {
				if k = preload + i; k >= keys {
					break
				}
			}
			writes[i] = WriteOp{Key: names[k], Value: value}
		}
		plan, err := e.PlanWriteBatch(writes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(plan); err != nil {
			t.Fatal(err)
		}
		if seals, fills := e.Stats().SealedSlots-st0.SealedSlots, e.Stats().FilledSlots-st0.FilledSlots; seals != 0 || fills != 0 {
			t.Fatalf("epoch %d: %d slots sealed and %d filled before the flush", epoch, seals, fills)
		}
		s, err := e.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		store.sealed = s
		if _, err := e.FlushSealed(s); err != nil {
			t.Fatal(err)
		}
		if err := backend.CommitEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		if store.err != nil {
			t.Fatalf("epoch %d: %v", epoch, store.err)
		}
		st := e.Stats()
		seals, fills := st.SealedSlots-st0.SealedSlots, st.FilledSlots-st0.FilledSlots
		slots, blocks, fillers := store.slots-slots0, store.blocks-blocks0, store.fillers-fillers0
		if seals != blocks || fills != fillers || seals+fills != slots {
			t.Fatalf("epoch %d: %d slots sealed and %d filled; %d flushed, %d of them blocks and %d fillers", epoch, seals, fills, slots, blocks, fillers)
		}
		if preload < 0 {
			sealed += seals
			filled += fills
			versions += st.WritesBuffered - st0.WritesBuffered
			written += st.BucketWrites - st0.BucketWrites
			opened += st.OpenedSlots - st0.OpenedSlots
			copied += st.CopiedSlots - st0.CopiedSlots
			flushed += store.bytes - bytes0
		}
	}
	for next := 0; next < keys; next += writeBatch {
		run(next)
	}
	setup := e.Stats()
	setupSealed, setupFilled := setup.SealedSlots, setup.FilledSlots
	for i := 0; i < steady; i++ {
		run(-1)
	}
	if versions <= written {
		t.Fatalf("%d bucket versions made and %d flushed: no version was superseded within an epoch", versions, written)
	}
	t.Logf("set-up (tree and preload): %d slots sealed, %d filled (%.1f %% fillers)",
		setupSealed, setupFilled, 100*float64(setupFilled)/float64(setupSealed+setupFilled))
	t.Logf("steady state, per epoch: %.1f slots flushed, %.1f of them sealed blocks and %.1f fillers; %.1f bucket versions made, %.1f of them flushed",
		float64(sealed+filled)/steady, float64(sealed)/steady, float64(filled)/steady, float64(versions)/steady, float64(written)/steady)
	t.Logf("steady state, per epoch: %.1f slots opened under a binding, %.1f plaintext slots copied", float64(opened)/steady, float64(copied)/steady)
	t.Logf("steady state, per epoch: %.0f bytes flushed, %d-byte frames", float64(flushed)/steady, kvMemFrame)
}

// plainStore answers every remote read of a slot it has a plaintext copy of
// with that copy: a well-formed slot, holding the block the read wants, that
// decodes cleanly as plaintext and was never sealed.
type plainStore struct {
	storage.BucketStore
	plain    map[int]map[int][]byte // bucket -> physical slot -> plaintext
	answered int
}

func (s *plainStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	data, err := s.BucketStore.ReadSlots(refs)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(data))
	for i, r := range refs {
		out[i] = data[i]
		if p := s.plain[r.Bucket][r.Slot]; p != nil {
			out[i] = p
			s.answered++
		}
	}
	return out, nil
}

// keepPlain records, for every bucket of a sealed set below the resident
// levels, the plaintext of the blocks of the version that reaches storage.
func (s *plainStore) keepPlain(sealed *SealedEpoch, resident int) {
	for _, im := range sealed.images {
		if im.Bucket < resident {
			continue
		}
		kept := make(map[int][]byte, len(im.Blocks))
		for i, slot := range im.Real() {
			kept[int(slot)] = append([]byte(nil), im.Blocks[i]...)
		}
		s.plain[im.Bucket] = kept
	}
}

// TestRemotePlaintextSlotRefused: a read from storage is opened under its
// (bucket, version) binding, never decoded as plaintext, so a store that
// answers it with the block's plaintext slot — the bytes a local read of the
// same version is served — is refused with ErrCorrupt. A twin executor over
// an honest store runs the same operations and reads every value back.
func TestRemotePlaintextSlotRefused(t *testing.T) {
	p := testParams(64, 21)
	honest, lied := newHarness(t, p, Config{}), newHarness(t, p, Config{})
	liar := &plainStore{BucketStore: lied.rec, plain: map[int]map[int][]byte{}}
	lied.exec.store = liar
	// execute runs a batch over the lying store and reports whether it was
	// refused; a batch that fails must have been served a plaintext slot, and
	// must fail with ErrCorrupt.
	e := 0
	execute := func(plan *BatchPlan, err error) ([]ReadResult, bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		before := liar.answered
		res, err := lied.exec.Execute(plan)
		switch {
		case err == nil:
			return res, false
		case liar.answered == before:
			t.Fatalf("epoch %d: a batch failed with no plaintext slot served: %v", e, err)
		case !errors.Is(err, ringoram.ErrCorrupt):
			t.Fatalf("epoch %d: a remote read answered with a plaintext slot failed with %v, want ErrCorrupt", e, err)
		}
		t.Logf("epoch %d, %d plaintext slots served: %v", e, liar.answered, err)
		return nil, true
	}
	rng := rand.New(rand.NewPCG(7, 8))
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for ; e < 40; e++ {
		ops := make([]ReadOp, 4)
		keys := make([]string, len(ops))
		for i, k := range rng.Perm(32)[:len(ops)] {
			keys[i] = key(k)
			ops[i].Key = keys[i]
		}
		want := honest.runReads(t, keys...)
		got, refused := execute(lied.exec.PlanReadBatch(ops))
		if refused {
			return
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("epoch %d: read %v, the honest twin read %v", e, got, want)
		}
		w := map[string]string{}
		for i := 0; i < 3; i++ {
			w[key(rng.IntN(32))] = fmt.Sprintf("v%d-%d", e, i)
		}
		honest.runWrites(t, w, 1)
		var wops []WriteOp // as runWrites plans them: sorted, one padding slot
		for _, k := range slices.Sorted(maps.Keys(w)) {
			wops = append(wops, WriteOp{Key: k, Value: []byte(w[k])})
		}
		wops = append(wops, WriteOp{})
		if _, refused := execute(lied.exec.PlanWriteBatch(wops)); refused {
			return
		}
		honest.endEpoch(t)
		liar.keepPlain(lied.endEpoch(t), lied.exec.resident)
	}
	t.Fatalf("%d plaintext slots served from storage in 40 epochs and no batch refused: either no block was read from storage, or plaintext from storage was accepted", liar.answered)
}

// TestLocalReadVersionChecked: a read the ORAM serves from its own plaintext
// version must come from the version it was planned against, which is the
// check a read from storage gets from the slot's binding. A read of a
// resident bucket or of a bucket the sealed set holds, planned against
// another version than the one the table holds, is refused.
func TestLocalReadVersionChecked(t *testing.T) {
	setup := func(t *testing.T) *harness {
		h := newHarness(t, testParams(64, 22), Config{})
		h.runWrites(t, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}, 8)
		if s := h.endEpoch(t); h.exec.resident == 0 || s.Buckets() == 0 {
			t.Fatalf("%d resident buckets, %d sealed: nothing is served locally", h.exec.resident, s.Buckets())
		}
		return h
	}
	// refused plans a read batch of keys, moves the planned version of every
	// local read that pick selects, and expects the batch refused.
	refused := func(t *testing.T, h *harness, what string, pick func(b int) bool, keys ...string) {
		t.Helper()
		ops := make([]ReadOp, 4)
		for i, k := range keys {
			ops[i].Key = k
		}
		plan, err := h.exec.PlanReadBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, tk := range plan.tasks {
			for i, r := range tk.step.Reads {
				if r.Local() && pick(r.Bucket) {
					tk.step.Reads[i].Ver--
					moved++
				}
			}
		}
		if moved == 0 {
			t.Fatalf("no local read of a %s planned", what)
		}
		if _, err := h.exec.Execute(plan); err == nil || !strings.Contains(err.Error(), "planned against version") {
			t.Fatalf("a read served from a %s of another version: %v", what, err)
		}
	}
	t.Run("resident", func(t *testing.T) {
		h := setup(t)
		// The root is resident, and every path read goes through it.
		refused(t, h, "resident bucket", func(b int) bool { return b == 0 })
	})
	t.Run("sealed image", func(t *testing.T) {
		h := setup(t)
		// The epoch's evictions moved the keys from the stash into buckets
		// of their paths, below the resident levels, which the sealed set
		// serves.
		refused(t, h, "sealed image", func(b int) bool { return b >= h.exec.resident }, "a", "b", "c", "d")
	})
}

// sealPair is one slot seal: the seed of the version and the physical slot,
// which name the nonce the slot is sealed under.
type sealPair struct {
	seed meta.Seed
	slot int
}

// version names a bucket version.
type version struct {
	bucket int
	ver    uint64
}

// nonceLedger records every slot an epoch's seal sealed and fails the test
// the moment a (seed, slot) pair comes round again.
type nonceLedger struct {
	pairs  map[sealPair]version
	sealed map[version]int // how many seals sealed a block of the version
}

func (l *nonceLedger) record(t *testing.T, s *SealedEpoch) {
	t.Helper()
	for _, im := range s.images {
		v := version{im.Bucket, im.Ver}
		if len(im.Real()) > 0 {
			l.sealed[v]++
		}
		for _, slot := range im.Real() {
			pair := sealPair{im.Seed, int(slot)}
			if prev, ok := l.pairs[pair]; ok {
				t.Fatalf("bucket %d version %d sealed slot %d under the seed bucket %d version %d sealed it under", v.bucket, v.ver, slot, prev.bucket, prev.ver)
			}
			l.pairs[pair] = v
		}
	}
}

// TestSlotNoncesNeverRepeat: no two slot seals share a (seed, slot) pair, and
// so a GCM nonce, over a run with early reshuffles, a crash after an epoch
// sealed its versions, and two recoveries from the one checkpoint, each of
// which replays the epoch and seals its bucket versions again — the same
// (bucket, version) pairs, under a permutation the replay draws anew. A seed
// drawn from the plans' seeded generator would come round at the second
// recovery, which replays from the same generator state; a seed kept across
// a reshuffle would seal the version after it under the version's before.
func TestSlotNoncesNeverRepeat(t *testing.T) {
	p := testParams(256, 9)
	p.S = p.A // the root runs out of dummies between evict-paths: early reshuffles
	h := newHarness(t, p, Config{})
	ledger := &nonceLedger{pairs: map[sealPair]version{}, sealed: map[version]int{}}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	reshuffles := h.exec.Stats().Reshuffles
	for e := 0; e < 40; e++ {
		h.runReads(t, key(e), key(e+20), "", "")
		h.runWrites(t, map[string]string{key(e): "v", key(e + 40): "w"}, 2)
		ledger.record(t, h.endEpoch(t))
	}
	if h.exec.Stats().Reshuffles == reshuffles {
		t.Fatal("the run planned no early reshuffle: the test would prove nothing")
	}
	committed := h.epoch - 1
	snap, err := h.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The epoch that crashes: logged, executed, sealed and flushed, never
	// committed.
	var logged [][]meta.LogEntry
	plan, err := h.exec.PlanReadBatch([]ReadOp{{Key: key(1)}, {Key: key(22)}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged = append(logged, decodeLog(t, plan.Log()))
	if _, err := h.exec.Execute(plan); err != nil {
		t.Fatal(err)
	}
	wplan, err := h.exec.PlanWriteBatch([]WriteOp{{Key: key(3), Value: []byte("doomed")}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	logged = append(logged, decodeLog(t, wplan.Log()))
	if _, err := h.exec.Execute(wplan); err != nil {
		t.Fatal(err)
	}
	sealed, err := h.exec.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	ledger.record(t, sealed)
	if _, err := h.exec.FlushSealed(sealed); err != nil {
		t.Fatal(err)
	}

	// Two recoveries from the checkpoint, the second after a crash of the
	// first past its seal: each restores, replays the epoch and seals it.
	for range 2 {
		if err := h.rec.RollbackTo(committed); err != nil {
			t.Fatal(err)
		}
		restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, snap)
		if err != nil {
			t.Fatal(err)
		}
		exec := New(restored, h.rec, Config{})
		if err := exec.LoadResident(); err != nil {
			t.Fatal(err)
		}
		exec.BeginEpoch(h.epoch + 1)
		for _, batch := range logged {
			if err := exec.ReplayBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		sealed, err := exec.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		ledger.record(t, sealed)
		if _, err := exec.FlushSealed(sealed); err != nil {
			t.Fatal(err)
		}
	}
	resealed := 0
	for _, n := range ledger.sealed {
		if n == 3 {
			resealed++
		}
	}
	if resealed == 0 {
		t.Fatal("no bucket version was sealed again by the recoveries: the test would prove nothing")
	}
	t.Logf("%d slot seals, %d bucket versions sealed by the crashed epoch and both recoveries", len(ledger.pairs), resealed)
}
