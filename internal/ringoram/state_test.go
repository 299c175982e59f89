package ringoram

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"obladi/internal/cryptoutil"
)

// buildWorkload creates a Seq, applies a deterministic workload, and returns
// it with the expected contents.
func buildWorkload(t *testing.T, seed uint64) (*Seq, *mapStore, map[string]string) {
	t.Helper()
	p := testParams(64)
	p.Seed = seed
	store := newMapStore()
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
	img, err := o.EncodeCheckpoint(full, CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// restoreFrom rebuilds a client shaped like o from images.
func restoreFrom(t *testing.T, o *ORAM, full []byte, deltas ...[]byte) *ORAM {
	t.Helper()
	restored, err := Restore(stateKey, o.Params(), full, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// pathSlots lists the physical slot an access plan reads in each path bucket
// — what the durability log records for it.
func pathSlots(p *AccessPlan) []int {
	out := make([]int, len(p.Reads))
	for i, r := range p.Reads {
		out[i] = r.Slot
	}
	return out
}

// evictSlots lists, per bucket of an eviction plan, the slots its read phase
// reads — what the durability log records for it.
func evictSlots(p *EvictPlan) [][]int {
	out := make([][]int, len(p.Buckets))
	i := 0
	for bi, b := range p.Buckets {
		for ; i < len(p.Reads) && p.Reads[i].Bucket == b; i++ {
			out[bi] = append(out[bi], p.Reads[i].Slot)
		}
	}
	return out
}

// requireSameClient fails unless got holds exactly want's metadata: every
// bucket's permutation, resident keys, valid map, count and version, the
// position map and location index in table order, the stash in order, and the
// counters.
func requireSameClient(t *testing.T, want, got *ORAM) {
	t.Helper()
	if want.accessCount != got.accessCount || want.evictCount != got.evictCount {
		t.Fatalf("counters: want %d/%d, got %d/%d", want.accessCount, want.evictCount, got.accessCount, got.evictCount)
	}
	if len(want.keys) != len(got.keys) {
		t.Fatalf("position map: want %d keys, got %d", len(want.keys), len(got.keys))
	}
	for i := range want.keys {
		if w, g := want.keys[i], got.keys[i]; w.name != g.name || w.leaf != g.leaf || w.bucket != g.bucket || (w.bucket >= 0 && w.rpos != g.rpos) {
			t.Fatalf("position map entry %d: want %+v, got %+v", i, w, g)
		}
	}
	for b := range want.meta {
		w, g := &want.meta[b], &got.meta[b]
		if !reflect.DeepEqual(w.perm, g.perm) || !reflect.DeepEqual(w.addrs, g.addrs) || !reflect.DeepEqual(w.valid, g.valid) ||
			w.count != g.count || w.writeVer != g.writeVer {
			t.Fatalf("bucket %d diverges:\nwant %+v\ngot  %+v", b, *w, *g)
		}
	}
	if len(want.stashList) != len(got.stashList) {
		t.Fatalf("stash: want %d entries, got %d", len(want.stashList), len(got.stashList))
	}
	for i, w := range want.stashList {
		g := got.stashList[i]
		if w.key != g.key || !bytes.Equal(w.value, g.value) || w.tombstone != g.tombstone || w.leaf != g.leaf || w.cacheable != g.cacheable {
			t.Fatalf("stash entry %d: want %+v, got %+v", i, *w, *g)
		}
	}
}

func TestSnapshotRestoreFull(t *testing.T) {
	seq, store, oracle := buildWorkload(t, 21)
	st := image(t, seq.ORAM(), true)
	restored := restoreFrom(t, seq.ORAM(), st)
	// Reset the server-side read-tracking: the restored client replays
	// nothing here, it simply resumes; reads against untouched buckets are
	// legitimate after the (conceptual) crash boundary.
	store.mu.Lock()
	store.readSince = make(map[int]map[int]bool)
	store.mu.Unlock()
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
	checkPathInvariant(t, restored)
	checkMetaConsistency(t, restored)
}

func TestSnapshotCountersPreserved(t *testing.T) {
	seq, _, _ := buildWorkload(t, 22)
	a0, e0 := seq.ORAM().Counters()
	st := image(t, seq.ORAM(), true)
	restored := restoreFrom(t, seq.ORAM(), st)
	a1, e1 := restored.Counters()
	if a0 != a1 || e0 != e1 {
		t.Fatalf("counters drifted: %d/%d -> %d/%d", a0, e0, a1, e1)
	}
}

func TestSnapshotDelta(t *testing.T) {
	seq, store, _ := buildWorkload(t, 23)
	full := image(t, seq.ORAM(), true)
	seq.ORAM().ClearDirty()
	// More activity -> delta.
	extra := map[string]string{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("d%d", i%6)
		v := fmt.Sprintf("dv%d", i)
		must(t, seq.Write(k, []byte(v)))
		extra[k] = v
	}
	delta := image(t, seq.ORAM(), false)
	fi, err := InspectImage(full)
	if err != nil {
		t.Fatal(err)
	}
	di, err := InspectImage(delta)
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
	store.mu.Lock()
	store.readSince = make(map[int]map[int]bool)
	store.mu.Unlock()
	seq2 := &Seq{oram: restored, store: store}
	for k, want := range extra {
		v, found, err := seq2.Read(k)
		if err != nil || !found || string(v) != want {
			t.Fatalf("delta-restored %s = %q %v %v, want %q", k, v, found, err, want)
		}
	}
	checkMetaConsistency(t, restored)
}

func TestSnapshotRequiresFull(t *testing.T) {
	seq, _, _ := buildWorkload(t, 24)
	delta := image(t, seq.ORAM(), false)
	if _, err := Restore(stateKey, seq.ORAM().Params(), delta); err == nil {
		t.Fatal("restore from delta-only accepted")
	}
	full := image(t, seq.ORAM(), true)
	if _, err := Restore(stateKey, seq.ORAM().Params(), full, full); err == nil {
		t.Fatal("full image in delta position accepted")
	}
}

func TestSnapshotRejectsWrongShape(t *testing.T) {
	seq, _, _ := buildWorkload(t, 25)
	st := image(t, seq.ORAM(), true)
	p2 := seq.ORAM().Params()
	p2.NumBlocks = 4 * p2.NumBlocks // different geometry
	if _, err := Restore(stateKey, p2, st); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestDirtyTracking(t *testing.T) {
	seq, _, _ := buildWorkload(t, 26)
	o := seq.ORAM()
	o.ClearDirty()
	if len(o.dirtyKeys) != 0 || len(o.dirtyBuckets) != 0 {
		t.Fatalf("dirty after clear: %d keys, %d buckets", len(o.dirtyKeys), len(o.dirtyBuckets))
	}
	for b, level := range o.bucketDirty {
		if level != bucketClean {
			t.Fatalf("bucket %d still at dirty level %d after clear", b, level)
		}
	}
	must(t, seq.Write("fresh", []byte("v")))
	must(t, seq.Write("fresh", []byte("w")))
	if len(o.dirtyKeys) != 1 {
		t.Fatalf("two writes of one key left %d dirty position-map entries, want 1", len(o.dirtyKeys))
	}
	// Every dirty bucket is listed exactly once, at the level its flag says.
	seen := make(map[int32]bool)
	for _, b := range o.dirtyBuckets {
		if seen[b] || o.bucketDirty[b] == bucketClean {
			t.Fatalf("dirty list entry for bucket %d: repeated=%v level=%d", b, seen[b], o.bucketDirty[b])
		}
		seen[b] = true
	}
}

// TestReplayReadProducesSameSlots exercises the recovery replay path: a
// logged access replayed on a restored client consumes the identical
// physical slots.
func TestReplayReadProducesSameSlots(t *testing.T) {
	seq, store, _ := buildWorkload(t, 27)
	st := image(t, seq.ORAM(), true)
	// Original access on the live client ("the epoch that will crash").
	plan, _, err := seq.ORAM().PlanRead("k3")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cached() {
		t.Skip("key landed in stash; no physical read to replay")
	}
	loggedLeaf := plan.Leaf
	loggedSlots := pathSlots(plan)

	// Crash: restore from the snapshot and replay the logged access.
	restored := restoreFrom(t, seq.ORAM(), st)
	replayPlan, _, err := restored.ReplayRead("k3", loggedLeaf, loggedSlots)
	if err != nil {
		t.Fatal(err)
	}
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
	store.mu.Lock()
	store.readSince = make(map[int]map[int]bool)
	store.mu.Unlock()
	data := make([][]byte, len(replayPlan.Reads))
	for i, r := range replayPlan.Reads {
		d, err := store.ReadSlot(r.Bucket, r.Slot)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = d
	}
	v, found, err := restored.CompleteAccess(replayPlan, data)
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
	geo := restored.Geometry()
	// Wrong number of slots.
	if _, _, err := restored.ReplayRead("", 0, make([]int, geo.Levels+5)); err == nil {
		t.Fatal("wrong slot count accepted")
	}
	// Out-of-range slot index.
	bad := make([]int, geo.Levels+1)
	for i := range bad {
		bad[i] = geo.SlotsPer + 10
	}
	if _, _, err := restored.ReplayRead("", 0, bad); err == nil {
		t.Fatal("out-of-range slots accepted")
	}
}

func TestReplayEvictMatchesLogged(t *testing.T) {
	seq, _, _ := buildWorkload(t, 29)
	st := image(t, seq.ORAM(), true)
	// Live eviction to log.
	plan, err := seq.ORAM().PlanEvict()
	if err != nil {
		t.Fatal(err)
	}
	logged := evictSlots(plan)

	restored := restoreFrom(t, seq.ORAM(), st)
	replay, err := restored.ReplayEvict(logged)
	if err != nil {
		t.Fatal(err)
	}
	got := evictSlots(replay)
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
	_, e0 := seq.ORAM().Counters()
	_, e1 := restored.Counters()
	if e0 != e1 {
		t.Fatalf("eviction counters diverged: %d vs %d", e0, e1)
	}
}

func TestSnapshotWithPendingFails(t *testing.T) {
	seq, _, _ := buildWorkload(t, 30)
	plan, _, err := seq.ORAM().PlanRead("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Cached() {
		// Mid-flight: a pending stash entry exists.
		if _, err := seq.ORAM().EncodeCheckpoint(true, CheckpointPad{}, 0, 0); err == nil {
			t.Fatal("snapshot with pending entries accepted")
		}
		// Finish the access to restore a clean state.
		if _, _, err := seq.runAccess(plan); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreMatchesLiveClient is the format's differential test at the
// client level: a seeded run checkpointed every "epoch" — a full image every
// fifth, touched/rewritten deltas between — must restore, at every epoch, to
// exactly the live client's metadata.
func TestRestoreMatchesLiveClient(t *testing.T) {
	p := testParams(96)
	p.Seed = 41
	store := newMapStore()
	seq, err := NewSeq(store, stateKey, p)
	if err != nil {
		t.Fatal(err)
	}
	o := seq.ORAM()
	pad := CheckpointPad{PosEntries: 24, StashEntries: o.Params().StashLimit, ValueSize: 8}
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
		img, err := o.EncodeCheckpoint(isFull, pad, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		img = img[3 : len(img)-5]
		o.ClearDirty()
		if isFull {
			full, deltas = img, nil
		} else {
			deltas = append(deltas, img)
		}
		restored := restoreFrom(t, o, full, deltas...)
		requireSameClient(t, o, restored)
		checkMetaConsistency(t, restored)
		if again := image(t, restored, true); !bytes.Equal(again, image(t, o, true)) {
			t.Fatalf("epoch %d: the restored client's full image differs from the live client's", epoch)
		}
	}
}

// TestShuffleMatchesRandPerm pins the in-place permutation to rand.Perm's
// draw sequence: seeded traces recorded before the planner stopped
// allocating stay valid.
func TestShuffleMatchesRandPerm(t *testing.T) {
	a := &ORAM{rng: rand.New(rand.NewPCG(7, 8))}
	ref := rand.New(rand.NewPCG(7, 8))
	perm := make([]int, 40)
	for round := 0; round < 10; round++ {
		a.shuffle(perm)
		if want := ref.Perm(len(perm)); !reflect.DeepEqual(perm, want) {
			t.Fatalf("round %d: shuffle drew %v, rand.Perm %v", round, perm, want)
		}
	}
}

// TestCheckpointImageDeterministic: the same seed and operations produce the
// same image bytes — nothing in an image follows map iteration order.
func TestCheckpointImageDeterministic(t *testing.T) {
	run := func() (full, delta []byte) {
		seq, _, _ := buildWorkload(t, 33)
		full = image(t, seq.ORAM(), true)
		seq.ORAM().ClearDirty()
		for i := 0; i < 40; i++ {
			must(t, seq.Write(fmt.Sprintf("k%d", i%25), []byte("again")))
		}
		return full, image(t, seq.ORAM(), false)
	}
	f1, d1 := run()
	f2, d2 := run()
	if !bytes.Equal(f1, f2) {
		t.Fatal("two identical seeded runs produced different full images")
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("two identical seeded runs produced different delta images")
	}
}
