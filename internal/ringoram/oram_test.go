package ringoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// newStore is the store the sequential client's tests drive: an in-memory
// tree that enforces the bucket invariant from the server's point of view
// (no slot read twice between writes of its bucket; see Violation).
func newStore(p Params) *storage.InvariantChecker {
	return storage.NewInvariantChecker(storage.NewMemBackend(p.Geometry().NumBuckets))
}

func testParams(n int) Params {
	return Params{
		NumBlocks: n,
		Z:         4,
		S:         6,
		A:         4,
		KeySize:   16,
		ValueSize: 32,
		Seed:      42,
	}
}

func newTestSeq(t *testing.T, p Params) (*Seq, *storage.InvariantChecker) {
	t.Helper()
	store := newStore(p)
	return newSeqOver(t, store, p), store
}

// fixedPlane is the ORAM as its machine's plane, but for Seed, which answers
// with a function of bucket and version, the bucket and the version
// big-endian, where the ORAM draws each seed fresh: two clients driven alike
// write byte-identical checkpoint images. Such a client reseals a version a
// crash rewrote under the seed it had.
type fixedPlane struct{ *ORAM }

func (fixedPlane) Seed(b int, ver uint64) meta.Seed {
	var s meta.Seed
	binary.BigEndian.PutUint32(s[:4], uint32(b))
	binary.BigEndian.PutUint64(s[4:], ver)
	return s
}

// newFixedORAM is New with a machine over fixedPlane.
func newFixedORAM(t *testing.T, key *cryptoutil.Key, p Params) *ORAM {
	t.Helper()
	o, err := newORAM(key, p)
	must(t, err)
	o.m, err = meta.New(o.p, fixedPlane{o})
	must(t, err)
	return o
}

// newFixedSeq is NewSeq over newFixedORAM: it writes the fresh tree to store
// as NewSeq does.
func newFixedSeq(t *testing.T, store storage.BucketStore, key *cryptoutil.Key, p Params) *Seq {
	t.Helper()
	o := newFixedORAM(t, key, p)
	s := &Seq{oram: o, store: store}
	for b := 0; b < o.geo.NumBuckets; b++ {
		slots, err := o.SealFresh(b, &s.arena)
		must(t, err)
		must(t, s.storeBucket(b, slots))
	}
	return s
}

// newSeqOver creates a sequential client over store.
func newSeqOver(t *testing.T, store storage.BucketStore, p Params) *Seq {
	t.Helper()
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("test")), p)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestSeqReadUnknownKey(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	v, found, err := seq.Read("nope")
	if err != nil {
		t.Fatal(err)
	}
	if found || v != nil {
		t.Fatalf("unknown key: %q %v", v, found)
	}
}

func TestSeqWriteRead(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	if err := seq.Write("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := seq.Read("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "v1" {
		t.Fatalf("read %q %v", v, found)
	}
}

func TestSeqOverwrite(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	must(t, seq.Write("k", []byte("old")))
	must(t, seq.Write("k", []byte("new")))
	v, found, err := seq.Read("k")
	if err != nil || !found || string(v) != "new" {
		t.Fatalf("read %q %v %v", v, found, err)
	}
}

func TestSeqDelete(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	must(t, seq.Write("k", []byte("v")))
	must(t, seq.Delete("k"))
	_, found, err := seq.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key still found")
	}
	// Rewriting after delete works.
	must(t, seq.Write("k", []byte("back")))
	v, found, _ := seq.Read("k")
	if !found || string(v) != "back" {
		t.Fatalf("resurrected key: %q %v", v, found)
	}
}

func TestSeqManyKeysChurn(t *testing.T) {
	const n = 48
	p := testParams(64)
	seq, store := newTestSeq(t, p)
	oracle := make(map[string]string)
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%02d", i)
			v := fmt.Sprintf("val-%02d-%d", i, round)
			must(t, seq.Write(k, []byte(v)))
			oracle[k] = v
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%02d", i)
			v, found, err := seq.Read(k)
			if err != nil {
				t.Fatalf("round %d read %s: %v", round, k, err)
			}
			if !found || string(v) != oracle[k] {
				t.Fatalf("round %d: %s = %q (found=%v), want %q", round, k, v, found, oracle[k])
			}
		}
	}
	if store.Violation() != nil {
		t.Fatalf("bucket invariant: %v", store.Violation())
	}
	if limit := seq.ORAM().p.StashLimit; seq.ORAM().m.StashPeak() > limit {
		t.Fatalf("stash peak %d exceeded limit %d", seq.ORAM().m.StashPeak(), limit)
	}
}

func TestSeqEmptyAndLargeValues(t *testing.T) {
	p := testParams(16)
	seq, _ := newTestSeq(t, p)
	must(t, seq.Write("empty", nil))
	v, found, err := seq.Read("empty")
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, found, err)
	}
	maxVal := bytes.Repeat([]byte{0xCC}, p.ValueSize)
	must(t, seq.Write("max", maxVal))
	v, found, _ = seq.Read("max")
	if !found || !bytes.Equal(v, maxVal) {
		t.Fatal("max-size value corrupted")
	}
	if err := seq.Write("big", make([]byte, p.ValueSize+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestSeqCapacity(t *testing.T) {
	p := testParams(8)
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 8; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
	}
	err := seq.Write("overflow", []byte("v"))
	if err == nil {
		t.Fatal("write beyond NumBlocks accepted")
	}
	// Existing keys still writable.
	must(t, seq.Write("k0", []byte("v2")))
}

func TestSeqEvictionScheduleDeterministic(t *testing.T) {
	p := testParams(64)
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 3*p.A; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i%8), []byte("v")))
	}
	acc, ev := seq.ORAM().m.Counters()
	if acc != uint64(3*p.A) {
		t.Fatalf("access count %d", acc)
	}
	if ev != 3 {
		t.Fatalf("evictions %d, want 3 (A=%d)", ev, p.A)
	}
}

func TestSeqDummyRead(t *testing.T) {
	p := testParams(64)
	rec := storage.NewRecorder(newStore(p))
	seq := newSeqOver(t, rec, p)
	must(t, seq.Write("k", []byte("v")))
	before := rec.Calls().ReadSlots
	must(t, seq.DummyRead())
	if rec.Calls().ReadSlots == before {
		t.Fatal("dummy read issued no storage reads")
	}
	v, found, _ := seq.Read("k")
	if !found || string(v) != "v" {
		t.Fatalf("data disturbed by dummy read: %q %v", v, found)
	}
}

func TestSeqKeyTooLong(t *testing.T) {
	p := testParams(16)
	seq, _ := newTestSeq(t, p)
	longKey := string(bytes.Repeat([]byte("x"), p.KeySize+1))
	err := seq.Write(longKey, []byte("v"))
	if err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestSeqPlaintextMode(t *testing.T) {
	p := testParams(32)
	p.DisableEncryption = true
	store := newStore(p)
	seq, err := NewSeq(store, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("k", []byte("plain")))
	v, found, err := seq.Read("k")
	if err != nil || !found || string(v) != "plain" {
		t.Fatalf("plaintext mode: %q %v %v", v, found, err)
	}
}

func TestSeqNilKeyRejected(t *testing.T) {
	p := testParams(32)
	if _, err := NewSeq(newStore(p), nil, p); err == nil {
		t.Fatal("encryption enabled with nil key accepted")
	}
}

func TestSeqDummilessWritesSkipReads(t *testing.T) {
	// A dummiless write between evictions performs zero physical reads.
	p := testParams(64)
	p.A = 6
	rec := storage.NewRecorder(newStore(p))
	seq := newSeqOver(t, rec, p)
	before := rec.Calls().ReadSlots
	must(t, seq.Write("w1", []byte("v")))
	if rec.Calls().ReadSlots != before {
		t.Fatalf("dummiless write issued %d reads", rec.Calls().ReadSlots-before)
	}
}

func TestSeqWriteVersionsAdvance(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	o := seq.ORAM()
	root0, _, _ := o.m.Holds(0, nil)
	for i := 0; i < 2*o.p.A; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
	}
	if root, _, _ := o.m.Holds(0, nil); root <= root0 {
		t.Fatal("root bucket version did not advance across evictions")
	}
}

func TestSeqTamperDetected(t *testing.T) {
	p := testParams(32)
	p.Seed = 7
	store := newStore(p)
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("t")), p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("k", []byte("v")))
	// Force the block into the tree.
	geo := seq.ORAM().geo
	for i := 0; i < 4*geo.Leaves && seq.ORAM().m.StashSize() > 0; i++ {
		if _, _, err := seq.run(evictNow(t, seq.ORAM())); err != nil {
			t.Fatal(err)
		}
	}
	if seq.ORAM().m.StashSize() != 0 {
		t.Fatal("could not flush stash")
	}
	// Corrupt every slot the server holds, rewriting each bucket (which
	// restarts its read-set).
	for b := range geo.NumBuckets {
		refs := make([]storage.SlotRef, geo.SlotsPer)
		for i := range refs {
			refs[i] = storage.SlotRef{Bucket: b, Slot: i}
		}
		slots, err := store.ReadSlots(refs)
		must(t, err)
		bad := make([][]byte, len(slots))
		for i, s := range slots {
			if bad[i] = bytes.Clone(s); len(s) > 0 {
				bad[i][0] ^= 0xFF
			}
		}
		must(t, store.WriteBuckets([]storage.BucketWrite{{Bucket: b, Slots: bad}}))
	}
	if _, _, err := seq.Read("k"); err == nil {
		t.Fatal("tampered block accepted")
	}
}

// TestDeliverRefusesReplayedFrame: storage that answers the read of a block
// with a frame the block had before — sealed into another bucket, or into an
// older version of the block's bucket — is refused with ErrCorrupt instead of
// serving the block's old value. Each run writes key k, lets an evict-path
// move it into the tree, reads it, and does the same again with a new value;
// the second read is answered with the frame the first one fetched. Runs go
// on until both cases have been seen, and a frame replayed at the slot index
// it was sealed for, whose nonce differs only by its version's seed. The
// frame fails under the version's seed as well as under its (bucket,
// version) binding (cryptoutil's TestSlotFrameBindsSeedAndSlot checks each
// alone at the cipher level).
func TestDeliverRefusesReplayedFrame(t *testing.T) {
	seen := make(map[string]bool)
	for seed := uint64(1); len(seen) < 3; seed++ {
		if seed > 200 {
			t.Fatalf("200 runs replayed only %v", seen)
		}
		p := testParams(32)
		p.Seed = seed
		o, err := New(cryptoutil.KeyFromSeed([]byte("replay")), p)
		must(t, err)
		c := newPlaneClient(t, o, 0)
		// run completes steps over the store and returns the read of the
		// access that carries a block, with the frame it fetched; replay,
		// unless nil, answers that read instead.
		run := func(steps []*meta.Plan, replay []byte) (carrier meta.SlotRead, frame []byte, err error) {
			for _, st := range steps {
				data := make([][]byte, len(st.Reads))
				for i, r := range st.Reads {
					data[i] = c.stored[r.Bucket][r.Slot]
					if st.Kind == meta.AccessStep && r.Block() != 0 {
						carrier, frame = r, data[i]
						if replay != nil {
							data[i] = replay
						}
					}
				}
				var images []BucketImage
				if _, _, images, err = o.Complete(st, data, nil); err != nil {
					return carrier, frame, err
				}
				must(t, c.write(images))
			}
			return carrier, frame, nil
		}
		// writeAndRead writes k, evicts it into the tree and plans its read.
		writeAndRead := func(v string) []*meta.Plan {
			steps, err := o.m.PlanWrite("k", []byte(v), false, nil)
			must(t, err)
			_, _, err = run(steps, nil)
			for err == nil && o.m.StashSize() > 0 {
				_, _, err = run(evictNow(t, o), nil)
			}
			must(t, err)
			steps, err = o.m.PlanRead("k", nil)
			must(t, err)
			return steps
		}
		old, frame, err := run(writeAndRead("v1"), nil)
		must(t, err)
		now, _, err := run(writeAndRead("v2"), frame)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("seed %d: bucket %d version %d slot %d answered with the frame of bucket %d version %d slot %d: %v, want ErrCorrupt", seed, now.Bucket, now.Ver, now.Slot, old.Bucket, old.Ver, old.Slot, err)
		}
		if now.Bucket != old.Bucket {
			seen["another bucket's frame"] = true
		} else {
			seen["an older version's frame"] = true
		}
		if now.Slot == old.Slot {
			seen["a frame at its own slot index"] = true
		}
	}
}

// TestDeliverRefusesAnotherKeysFrame: a frame sealed as exactly the slot a
// read of key k fetches — its bucket, version, seed and slot — but for the
// block of another key fails the delivery with ErrCorrupt, wrapping
// cryptoutil.ErrAuth and naming the bucket and slot: the frame carries no
// key, and the key the metadata names is authenticated beside the binding.
// The same frame sealed for k is delivered, and the read returns its value.
func TestDeliverRefusesAnotherKeysFrame(t *testing.T) {
	// deliver writes k, moves it into the tree and completes the access of a
	// read of k, its block's read answered by a frame of key's block holding
	// value, sealed as exactly that slot. It returns the read and the
	// access's result.
	deliver := func(key, value string) (meta.SlotRead, []byte, bool, error) {
		o, err := New(cryptoutil.KeyFromSeed([]byte("keys")), testParams(32))
		must(t, err)
		c := newPlaneClient(t, o, 0)
		run := func(steps []*meta.Plan) {
			for _, st := range steps {
				_, _, images, err := o.Complete(st, c.fetch(st.Reads), nil)
				must(t, err)
				must(t, c.write(images))
			}
		}
		steps, err := o.m.PlanWrite("k", []byte("v1"), false, nil)
		must(t, err)
		run(steps)
		for o.m.StashSize() > 0 {
			run(evictNow(t, o))
		}
		steps, err = o.m.PlanRead("k", nil)
		must(t, err)
		data := c.fetch(steps[0].Reads)
		var r meta.SlotRead
		for i, read := range steps[0].Reads {
			if read.Block() == 0 {
				continue
			}
			r = read
			plain := make([]byte, o.cdc.plainSize())
			must(t, o.cdc.encodePlain(plain, slotReal, block{key: key, value: []byte(value)}))
			data[i] = make([]byte, o.cdc.slotSize())
			must(t, o.cdc.seal(data[i], plain, r.Seed, r.Slot, cryptoutil.Binding(uint64(r.Bucket), r.Ver, 0), new(cryptoutil.SlotScratch)))
		}
		if r.Block() == 0 {
			t.Fatal("the read of k fetches no block")
		}
		v, found, _, err := o.Complete(steps[0], data, nil)
		return r, v, found, err
	}
	r, _, _, err := deliver("j", "v1")
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, cryptoutil.ErrAuth) {
		t.Fatalf("k's slot answered with a frame of key j's block: %v, want ErrCorrupt wrapping ErrAuth", err)
	}
	if want := fmt.Sprintf("bucket %d slot %d", r.Bucket, r.Slot); !strings.Contains(err.Error(), want) {
		t.Fatalf("the refusal %q does not name %s", err, want)
	}
	if _, v, found, err := deliver("k", "v2"); err != nil || !found || string(v) != "v2" {
		t.Fatalf("k's slot answered with a frame of k's block: %q, %v, %v", v, found, err)
	}
}

// evictNow plans padding bumps until one makes an evict-path due and
// returns their steps, the evict-path last: a test's way to move blocks into
// the tree without driving accesses.
func evictNow(t testing.TB, o *ORAM) []*meta.Plan {
	t.Helper()
	var steps []*meta.Plan
	for len(steps) == 0 || steps[len(steps)-1].Kind != meta.EvictStep {
		var err error
		if steps, err = o.m.PlanWrite("", nil, false, steps); err != nil {
			t.Fatal(err)
		}
	}
	return steps
}

// completeAll completes steps whose reads are all fillers of a fresh tree or
// served locally, handing nil for every slot, and returns the images the
// evictions among them leave.
func completeAll(t testing.TB, o *ORAM, steps []*meta.Plan) []BucketImage {
	t.Helper()
	var images []BucketImage
	for _, p := range steps {
		_, _, ims, err := o.Complete(p, make([][]byte, len(p.Reads)), nil)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, ims...)
	}
	return images
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
