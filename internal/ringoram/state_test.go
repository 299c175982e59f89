package ringoram

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// buildWorkload creates a Seq, applies a deterministic workload, and returns
// it with the expected contents.
func buildWorkload(t *testing.T, seed uint64) (*Seq, *storage.InvariantChecker, map[string]string) {
	t.Helper()
	p := testParams(64)
	p.Seed = seed
	store := newStore(p)
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("state")), p)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[string]string)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i%20)
		v := fmt.Sprintf("v%d", i)
		must(t, seq.Write(k, []byte(v)))
		oracle[k] = v
		if i%3 == 0 {
			if _, _, err := seq.Read(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seq, store, oracle
}

var stateKey = cryptoutil.KeyFromSeed([]byte("state"))

// image takes a checkpoint image of o with no padding and no framing room.
func image(t *testing.T, o *ORAM, full bool) []byte {
	t.Helper()
	img, err := o.m.EncodeCheckpoint(nil, full, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// restoreFrom rebuilds a client shaped like o from images.
func restoreFrom(t *testing.T, o *ORAM, full []byte, deltas ...[]byte) *ORAM {
	t.Helper()
	restored, err := Restore(stateKey, o.p, full, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// pathSlots lists the physical slot an access plan reads in each path bucket
// — what the durability log records for it.
func pathSlots(p *meta.Plan) []int {
	out := make([]int, len(p.Reads))
	for i, r := range p.Reads {
		out[i] = r.Slot
	}
	return out
}

// evictSlots lists, per bucket of an eviction plan, the slots its read phase
// reads — what the durability log records for it.
func evictSlots(p *meta.Plan) [][]int {
	out := make([][]int, len(p.Buckets))
	i := 0
	for bi, b := range p.Buckets {
		for ; i < len(p.Reads) && p.Reads[i].Bucket == b; i++ {
			out[bi] = append(out[bi], p.Reads[i].Slot)
		}
	}
	return out
}

// requireSameClient fails unless got holds exactly want's metadata and
// stash: both machines encode the same full image — every bucket's
// permutation, valid map, version and seed, the position map and location
// index in table order, the stash in order, and the counters — and both byte
// planes hold the same slot for every stash entry. The images are compared
// whole, never decoded: what an image carries is the machine's to check
// (meta.TestRestoredStateDigest).
func requireSameClient(t *testing.T, want, got *ORAM) {
	t.Helper()
	w, g := image(t, want, true), image(t, got, true)
	if !bytes.Equal(w, g) {
		at := 0
		for at < min(len(w), len(g)) && w[at] == g[at] {
			at++
		}
		t.Fatalf("metadata diverges: full images of %d and %d bytes differ from byte %d", len(w), len(g), at)
	}
	for b, s := range want.slots {
		if s == nil {
			continue
		}
		key := want.m.Key(meta.Block(b))
		if gs := slotOf(t, got, key); !bytes.Equal(s, gs) {
			t.Fatalf("stash entry %q: want slot %x, got %x", key, s, gs)
		}
	}
}

// slotOf returns the plaintext slot o's stash holds for key.
func slotOf(t *testing.T, o *ORAM, key string) []byte {
	t.Helper()
	if s := stashSlot(o, key); s != nil {
		return s
	}
	t.Fatalf("the stash holds no slot for %q", key)
	return nil
}

// stashSlot returns the plaintext slot o's stash holds for key, nil when the
// stash holds none.
func stashSlot(o *ORAM, key string) []byte {
	for b, s := range o.slots {
		if s != nil && o.m.Key(meta.Block(b)) == key {
			return s
		}
	}
	return nil
}

// TestSnapshotRestoreFull: a client restored from a full image is the live
// one — counters, key table, buckets and stash — and reads every key back.
func TestSnapshotRestoreFull(t *testing.T) {
	seq, store, oracle := buildWorkload(t, 21)
	st := image(t, seq.ORAM(), true)
	restored := restoreFrom(t, seq.ORAM(), st)
	requireSameClient(t, seq.ORAM(), restored)
	// Reset the server-side read-tracking (a rollback to epoch 0, which
	// every write carries, discards nothing): the restored client replays
	// nothing here, it simply resumes; reads against untouched buckets are
	// legitimate after the (conceptual) crash boundary.
	must(t, store.RollbackTo(0))
	seq2 := &Seq{oram: restored, store: store}
	for k, want := range oracle {
		v, found, err := seq2.Read(k)
		if err != nil {
			t.Fatalf("read %s after restore: %v", k, err)
		}
		if !found || string(v) != want {
			t.Fatalf("after restore %s = %q (found=%v), want %q", k, v, found, want)
		}
	}
	checkClient(t, restored)
}

func TestSnapshotDelta(t *testing.T) {
	seq, store, _ := buildWorkload(t, 23)
	full := image(t, seq.ORAM(), true)
	seq.ORAM().m.ClearDirty()
	// More activity -> delta.
	extra := map[string]string{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("d%d", i%6)
		v := fmt.Sprintf("dv%d", i)
		must(t, seq.Write(k, []byte(v)))
		extra[k] = v
	}
	delta := image(t, seq.ORAM(), false)
	fi, err := meta.InspectImage(full)
	if err != nil {
		t.Fatal(err)
	}
	di, err := meta.InspectImage(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.Full || di.Full {
		t.Fatalf("image kinds: full says %v, delta says %v", fi.Full, di.Full)
	}
	if di.Buckets == 0 || di.PosEntries == 0 {
		t.Fatal("delta captured nothing")
	}
	if di.Buckets >= fi.Buckets {
		t.Fatalf("delta (%d buckets) not smaller than full (%d)", di.Buckets, fi.Buckets)
	}
	restored := restoreFrom(t, seq.ORAM(), full, delta)
	requireSameClient(t, seq.ORAM(), restored)
	must(t, store.RollbackTo(0))
	seq2 := &Seq{oram: restored, store: store}
	for k, want := range extra {
		v, found, err := seq2.Read(k)
		if err != nil || !found || string(v) != want {
			t.Fatalf("delta-restored %s = %q %v %v, want %q", k, v, found, err, want)
		}
	}
	checkClient(t, restored)
}

func TestSnapshotRequiresFull(t *testing.T) {
	seq, _, _ := buildWorkload(t, 24)
	delta := image(t, seq.ORAM(), false)
	if _, err := Restore(stateKey, seq.ORAM().p, delta); err == nil {
		t.Fatal("restore from delta-only accepted")
	}
	full := image(t, seq.ORAM(), true)
	if _, err := Restore(stateKey, seq.ORAM().p, full, full); err == nil {
		t.Fatal("full image in delta position accepted")
	}
}

func TestSnapshotRejectsWrongShape(t *testing.T) {
	seq, _, _ := buildWorkload(t, 25)
	st := image(t, seq.ORAM(), true)
	p2 := seq.ORAM().p
	p2.NumBlocks = 4 * p2.NumBlocks // different geometry
	if _, err := Restore(stateKey, p2, st); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestDirtyTracking reads delta tracking off unpadded delta images: empty
// right after ClearDirty, and one position-map entry for two writes of one
// key. That each dirty bucket is listed once is the machine's to check
// (meta.TestDeltaListsEachDirtyBucketOnce).
func TestDirtyTracking(t *testing.T) {
	seq, _, _ := buildWorkload(t, 26)
	o := seq.ORAM()
	o.m.ClearDirty()
	if info, err := meta.InspectImage(image(t, o, false)); err != nil || info.PosEntries != 0 || info.Buckets != 0 {
		t.Fatalf("dirty after clear: %+v, %v", info, err)
	}
	must(t, seq.Write("fresh", []byte("v")))
	must(t, seq.Write("fresh", []byte("w")))
	info, err := meta.InspectImage(image(t, o, false))
	must(t, err)
	if info.PosEntries != 1 {
		t.Fatalf("two writes of one key left %d dirty position-map entries, want 1", info.PosEntries)
	}
}

// TestReplayReadProducesSameSlots exercises the recovery replay path: a
// logged access replayed on a restored client consumes the identical
// physical slots.
func TestReplayReadProducesSameSlots(t *testing.T) {
	seq, store, _ := buildWorkload(t, 27)
	st := image(t, seq.ORAM(), true)
	// Original access on the live client ("the epoch that will crash").
	steps, err := seq.ORAM().m.PlanRead("k3", nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := steps[0]
	if len(plan.Reads) == 0 {
		t.Skip("key landed in stash; no physical read to replay")
	}
	loggedLeaf := plan.Leaf
	loggedSlots := pathSlots(plan)
	logged := logOf(t, seq.ORAM(), steps)

	// Crash: restore from the snapshot and replay the logged operation.
	restored := restoreFrom(t, seq.ORAM(), st)
	replayed, err := restored.m.Replay(logged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(steps) {
		t.Fatalf("replay planned %d steps, the operation %d", len(replayed), len(steps))
	}
	replayPlan := replayed[0]
	if replayPlan.Leaf != loggedLeaf {
		t.Fatalf("replay leaf %d, logged %d", replayPlan.Leaf, loggedLeaf)
	}
	got := pathSlots(replayPlan)
	for i := range loggedSlots {
		if got[i] != loggedSlots[i] {
			t.Fatalf("replay slot %d = %d, logged %d", i, got[i], loggedSlots[i])
		}
		if replayPlan.Reads[i].Bucket != plan.Reads[i].Bucket {
			t.Fatalf("replay bucket %d = %d, logged %d", i, replayPlan.Reads[i].Bucket, plan.Reads[i].Bucket)
		}
	}
	// Completing the replayed access yields the key's value.
	must(t, store.RollbackTo(0))
	data := make([][]byte, len(replayPlan.Reads))
	for i, r := range replayPlan.Reads {
		d, err := store.ReadSlot(r.Bucket, r.Slot)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = d
	}
	v, found, _, err := restored.Complete(replayPlan, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !found || len(v) == 0 {
		t.Fatalf("replayed read lost the value: %q %v", v, found)
	}
}

func TestReplayRejectsDivergence(t *testing.T) {
	seq, _, _ := buildWorkload(t, 28)
	st := image(t, seq.ORAM(), true)
	restored := restoreFrom(t, seq.ORAM(), st)
	geo := restored.geo
	// Wrong number of slots.
	if _, err := restored.m.Replay([]meta.LogEntry{{Kind: meta.AccessStep, Slots: make([]int, geo.Levels+5)}}, nil); err == nil {
		t.Fatal("wrong slot count accepted")
	}
	// Out-of-range slot index.
	bad := make([]int, geo.Levels+1)
	for i := range bad {
		bad[i] = geo.SlotsPer + 10
	}
	if _, err := restored.m.Replay([]meta.LogEntry{{Kind: meta.AccessStep, Slots: bad}}, nil); err == nil {
		t.Fatal("out-of-range slots accepted")
	}
}

// TestReplayReadRejectsLeafOutOfRange: a logged leaf outside [0, Leaves) is
// a divergence, whatever the key, and never indexes past the tree. The logged
// slots (slot 0 of every bucket) are fillers of the fresh tree, so only the
// leaf is wrong.
func TestReplayReadRejectsLeafOutOfRange(t *testing.T) {
	p := testParams(64)
	p.DisableEncryption = true
	g := p.Geometry()
	slots := make([]int, g.Levels+1)
	for _, leaf := range []int{-1, g.Leaves, g.Leaves + 5} {
		for _, key := range []string{"", "never-written"} {
			o, err := New(nil, p)
			must(t, err)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("replaying an access of %q at leaf %d panicked: %v", key, leaf, r)
					}
				}()
				if _, err := o.m.Replay([]meta.LogEntry{{Kind: meta.AccessStep, Key: key, Leaf: leaf, Slots: slots}}, nil); !errors.Is(err, meta.ErrReplay) {
					t.Fatalf("replaying an access of %q at leaf %d: %v, want ErrReplay", key, leaf, err)
				}
			}()
		}
	}
}

func TestReplayEvictMatchesLogged(t *testing.T) {
	seq, _, _ := buildWorkload(t, 29)
	st := image(t, seq.ORAM(), true)
	// Live eviction to log: padding bumps until one falls due, which the
	// bump that makes it due plans right after itself.
	var steps []*meta.Plan
	bumps := 0
	for len(steps) < 2 {
		var err error
		if steps, err = seq.oram.m.PlanWrite("", nil, false, steps[:0]); err != nil {
			t.Fatal(err)
		}
		bumps++
	}
	plan := steps[1]
	if len(steps) != 2 || plan.Kind != meta.EvictStep {
		t.Fatalf("a padding bump planned %d steps, the second of kind %d, want one evict-path", len(steps), plan.Kind)
	}
	logged := evictSlots(plan)
	entries := logOf(t, seq.ORAM(), steps)
	if fmt.Sprint(entries[1].BucketSlots) != fmt.Sprint(logged) {
		t.Fatalf("the log names slots %v, the eviction read %v", entries[1].BucketSlots, logged)
	}

	restored := restoreFrom(t, seq.ORAM(), st)
	for i := 0; i < bumps; i++ {
		// The schedule owes the eviction only once every bump is replayed.
		if _, err := restored.m.Replay(entries[1:], nil); !errors.Is(err, meta.ErrReplay) {
			t.Fatalf("an eviction replayed %d bumps early: %v, want ErrReplay", bumps-i, err)
		}
		if i < bumps-1 {
			if _, err := restored.m.Replay(entries[:1], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The last bump and the eviction it makes due are one operation.
	replayed, err := restored.m.Replay(entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := evictSlots(replayed[1])
	if len(got) != len(logged) {
		t.Fatalf("replay read %d buckets, logged %d", len(got), len(logged))
	}
	for i := range logged {
		if len(got[i]) != len(logged[i]) {
			t.Fatalf("bucket %d: replay %d slots, logged %d", i, len(got[i]), len(logged[i]))
		}
		want := make(map[int]bool)
		for _, s := range logged[i] {
			want[s] = true
		}
		for _, s := range got[i] {
			if !want[s] {
				t.Fatalf("bucket %d: replay read slot %d not in log %v", i, s, logged[i])
			}
		}
	}
	_, e0 := seq.ORAM().m.Counters()
	_, e1 := restored.m.Counters()
	if e0 != e1 {
		t.Fatalf("eviction counters diverged: %d vs %d", e0, e1)
	}
}

func TestSnapshotWithPendingFails(t *testing.T) {
	seq, _, _ := buildWorkload(t, 30)
	steps, err := seq.ORAM().m.PlanRead("k1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps[0].Reads) > 0 {
		// Mid-flight: a pending stash entry exists.
		if _, err := seq.oram.m.EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0); err == nil {
			t.Fatal("snapshot with pending entries accepted")
		}
		// Finish the access to restore a clean state.
		if _, _, err := seq.run(steps); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreMatchesLiveClient is the format's differential test at the
// client level: a seeded run checkpointed every "epoch" — a full image every
// fifth, touched/rewritten deltas between — must restore, at every epoch, to
// exactly the live client's metadata, each key at its live key-table index.
func TestRestoreMatchesLiveClient(t *testing.T) {
	p := testParams(96)
	p.Seed = 41
	store := newStore(p)
	seq, err := NewSeq(store, stateKey, p)
	if err != nil {
		t.Fatal(err)
	}
	o := seq.ORAM()
	pad := meta.CheckpointPad{PosEntries: 24, StashEntries: o.p.StashLimit, ValueSize: 8}
	rng := rand.New(rand.NewPCG(41, 42))
	var full []byte
	var deltas [][]byte
	for epoch := 0; epoch < 40; epoch++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key-%d", rng.IntN(96))
			switch rng.IntN(6) {
			case 0, 1:
				must(t, seq.Write(k, []byte(fmt.Sprintf("v%d-%d", epoch, i))))
			case 2:
				must(t, seq.Delete(k))
			case 3:
				must(t, seq.DummyRead())
			default:
				if _, _, err := seq.Read(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		isFull := epoch%5 == 0
		img, err := o.m.EncodeCheckpoint(nil, isFull, pad, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		img = img[3 : len(img)-5]
		o.m.ClearDirty()
		if isFull {
			full, deltas = img, nil
		} else {
			deltas = append(deltas, img)
		}
		// A delta names resident and stashed keys by key-table index, so
		// every key must sit at its live index in the restored table: a full
		// image lists the table in order.
		restored := restoreFrom(t, o, full, deltas...)
		requireSameClient(t, o, restored)
		checkClient(t, restored)
	}
}

// TestShuffleMatchesRandPerm pins the in-place permutation to rand.Perm's
// draw sequence: seeded traces recorded before the planner stopped
// allocating stay valid. A fresh tree's permutations are the seeded
// generator's first draws, one bucket after another in heap order.
func TestShuffleMatchesRandPerm(t *testing.T) {
	p := Params{NumBlocks: 64, Z: 16, S: 24, A: 16, Seed: 7, DisableEncryption: true}
	o, err := New(nil, p)
	must(t, err)
	ref := rand.New(rand.NewPCG(p.Seed, p.Seed^0x9e3779b97f4a7c15))
	for b := range o.geo.NumBuckets {
		_, perm, _ := o.m.Holds(b, nil)
		got := make([]int, len(perm))
		for i, s := range perm {
			got[i] = int(s)
		}
		if want := ref.Perm(len(perm)); !o.m.Fresh(b) || !reflect.DeepEqual(got, want) {
			t.Fatalf("bucket %d: shuffle drew %v, rand.Perm %v", b, perm, want)
		}
	}
}

// checkpointRun drives a seeded client through a fixed workload and returns
// a full image and the delta image of a second round of writes after it.
func checkpointRun(t *testing.T, p Params) (full, delta []byte) {
	t.Helper()
	seq := newFixedSeq(t, newStore(p), stateKey, p)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i%20)
		must(t, seq.Write(k, []byte(fmt.Sprintf("v%d", i))))
		if i%3 == 0 {
			if _, _, err := seq.Read(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	full = image(t, seq.ORAM(), true)
	seq.ORAM().m.ClearDirty()
	for i := 0; i < 40; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i%25), []byte("again")))
	}
	return full, image(t, seq.ORAM(), false)
}

// TestCheckpointImageDeterministic: the same seed and operations produce the
// same image bytes — nothing in an image follows map iteration order — and
// those bytes are pinned. A live client draws its versions' seeds fresh, so
// the runs take theirs from fixedPlane. The sha256 digests below were taken
// when images went to format 4 (each rewritten bucket carries its version's
// seed, and no bucket entry its slot count); meta.TestRestoredStateDigest
// checks that images restore to the same state. The wide case (Z=25, S=40:
// 65 slots, two words a bucket) covers a bitmap that spans words.
func TestCheckpointImageDeterministic(t *testing.T) {
	narrow := testParams(64)
	narrow.Seed = 33
	wide := Params{NumBlocks: 200, Z: 25, S: 40, A: 25, KeySize: 16, ValueSize: 32, Seed: 33}
	for _, c := range []struct {
		name              string
		p                 Params
		wantFull, wantDel string
	}{
		{"Z=4,S=6", narrow,
			"0a43dcd1bc486c5a03d5ef8cc1b735348eba2bd44ace9150f9d721c5b7926df2",
			"bf25bfc4aaa3e749bcfbfdfaeae88650e41a387b8f30dee3815338bd0ba42858"},
		{"Z=25,S=40", wide,
			"6f8d5b96c5e14351534ae5675f31c1d54e41239e648ae9065bace86e65c20942",
			"a6d5234e44ceb843871440e477977258729da1c5f693ccabfd00a7d32c514876"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f1, d1 := checkpointRun(t, c.p)
			f2, d2 := checkpointRun(t, c.p)
			if !bytes.Equal(f1, f2) {
				t.Fatal("two identical seeded runs produced different full images")
			}
			if !bytes.Equal(d1, d2) {
				t.Fatal("two identical seeded runs produced different delta images")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(f1)); got != c.wantFull {
				t.Errorf("full image sha256 %s, pinned %s", got, c.wantFull)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(d1)); got != c.wantDel {
				t.Errorf("delta image sha256 %s, pinned %s", got, c.wantDel)
			}
		})
	}
}
