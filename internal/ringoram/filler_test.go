package ringoram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"obladi/internal/cryptoutil"
)

// sparseClient drives an ORAM against a store that keeps, for each bucket,
// only the slots its last image listed in Real: every other read gets a nil
// entry. It is the executor's resident set taken to the limit (every
// bucket, every level). The first realOnly buckets are sealed without dummies,
// as the executor has its resident levels sealed.
type sparseClient struct {
	t        *testing.T
	oram     *ORAM
	kept     map[int]map[int][]byte  // bucket -> physical slot -> bytes
	fillers  map[int]map[string]bool // bucket -> the fillers of its last image
	refills  int                     // images whose fillers were checked against the version before
	realOnly int
	arena    SealArena
}

func (c *sparseClient) fetch(reads []SlotRead) [][]byte {
	data := make([][]byte, len(reads))
	for i, r := range reads {
		data[i] = c.kept[r.Bucket][r.Slot]
		if carries := r.entry != nil; carries && data[i] == nil {
			c.t.Fatalf("bucket %d slot %d carries a block, but the bucket's image did not list it in Real", r.Bucket, r.Slot)
		}
	}
	return data
}

// run completes an operation's steps in plan order, checking every image an
// eviction seals, and returns the access's result.
func (c *sparseClient) run(steps []*Plan, err error) (val []byte, found bool) {
	must(c.t, err)
	for _, p := range steps {
		access := p.Kind == AccessStep
		v, f, images, err := c.oram.Complete(p, c.fetch(p.Reads))
		must(c.t, err)
		if access {
			val, found = v, f
		}
		c.seal(images)
	}
	return val, found
}

func (c *sparseClient) seal(images []BucketImage) {
	for _, im := range images {
		slots, err := c.oram.SealImage(im, &c.arena)
		must(c.t, err)
		trimmed := im.Bucket < c.realOnly
		if want := c.oram.geo.SlotsPer; !trimmed && len(slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want all %d", im.Bucket, len(slots), want)
		}
		if want := c.oram.p.Z; trimmed && len(slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want its Z = %d real positions", im.Bucket, len(slots), want)
		}
		kept := make(map[int][]byte, len(im.Blocks))
		holds := make([]bool, len(slots))
		bind := cryptoutil.Binding(uint64(im.Bucket), im.Ver, 0)
		for i, s := range im.Real() {
			frame := i // Real()[i] is the physical slot of the block at slots[i]
			if !trimmed {
				frame = s
			}
			holds[frame] = true
			kept[s] = bytes.Clone(slots[frame])
			plain := make([]byte, c.oram.cdc.plainSize())
			must(c.t, c.oram.cdc.open(plain, slots[frame], bind))
			kind, _, err := c.oram.cdc.parse(plain)
			must(c.t, err)
			if (kind != slotReal && kind != slotTombstone) || !bytes.Equal(plain, im.Blocks[i]) {
				c.t.Fatalf("bucket %d version %d slot %d is listed in Real but does not open to its block (kind %d)", im.Bucket, im.Ver, s, kind)
			}
		}
		c.kept[im.Bucket] = kept
		prev := c.fillers[im.Bucket]
		if prev != nil {
			c.refills++
		}
		fillers := make(map[string]bool, len(slots))
		for i, d := range slots {
			if holds[i] {
				continue
			}
			if len(d) != c.oram.cdc.slotSize() || d[0] != byte(cryptoutil.SchemeGCM) {
				c.t.Fatalf("bucket %d version %d: filler %d is %d bytes led by %d, want %d bytes led by the scheme byte", im.Bucket, im.Ver, i, len(d), d[0], c.oram.cdc.slotSize())
			}
			if _, err := c.oram.cdc.key.OpenTo(nil, d, bind); !errors.Is(err, cryptoutil.ErrAuth) {
				c.t.Fatalf("bucket %d version %d: filler %d opened under the bucket's binding: %v, want ErrAuth", im.Bucket, im.Ver, i, err)
			}
			if prev[string(d)] {
				c.t.Fatalf("bucket %d version %d: filler %d repeats a filler of the version before", im.Bucket, im.Ver, i)
			}
			fillers[string(d)] = true
		}
		c.fillers[im.Bucket] = fillers
		im.Recycle()
		c.arena.Reset()
	}
}

// slotModel is a bucket's metadata as per-slot flags, the oracle's own copy
// of it: which key each real position holds and which physical slots are
// valid.
type slotModel struct {
	perm  []int
	addrs []string
	valid []bool
}

// modelOf copies bucket m of o into a slotModel.
func modelOf(o *ORAM, m *bucketMeta) slotModel {
	sm := slotModel{perm: slices.Clone(m.perm), addrs: make([]string, len(m.addrs)), valid: make([]bool, len(m.perm))}
	for r, ki := range m.addrs {
		if ki >= 0 {
			sm.addrs[r] = o.keys[ki].name
		}
	}
	for s := range sm.valid {
		sm.valid[s] = m.valid().has(s)
	}
	return sm
}

// fillers lists, in ascending order, the positions a dummy read may
// consume: a position is a filler when it holds no block (a dummy, or an
// empty real position) and its slot is still valid.
func (sm *slotModel) fillers() []int {
	var out []int
	for pos, s := range sm.perm {
		if pos < len(sm.addrs) && sm.addrs[pos] != "" {
			continue
		}
		if sm.valid[s] {
			out = append(out, pos)
		}
	}
	return out
}

// rescanFillers is the eviction read phase's filler loop as it ran before
// the planner scanned each bucket once: a fresh scan for every pick, a draw
// from rng indexing the ascending list. It pads sm (a bucket after its
// occupied reals were read) to need fillers and returns the physical slots
// picked.
func rescanFillers(sm *slotModel, rng *rand.Rand, need int) []int {
	var picked []int
	for len(picked) < need {
		fillers := sm.fillers()
		if len(fillers) == 0 {
			break
		}
		phys := sm.perm[fillers[rng.IntN(len(fillers))]]
		sm.valid[phys] = false
		picked = append(picked, phys)
	}
	return picked
}

// predictReads returns the read phase an eviction or reshuffle of buckets
// plans from models, the buckets' state before it, drawn the rescanning way
// from a copy of o's generator src, and advances that copy past the write
// phase's shuffles: on return it is the state src must be in after the plan.
func predictReads(o *ORAM, models map[int]slotModel, buckets []int, src *rand.PCG) []SlotRead {
	rng := rand.New(src)
	var want []SlotRead
	for _, b := range buckets {
		m := models[b]
		start := len(want)
		for r := 0; r < o.p.Z; r++ {
			if m.addrs[r] != "" {
				phys := m.perm[r]
				m.valid[phys] = false
				m.addrs[r] = ""
				want = append(want, SlotRead{Bucket: b, Slot: phys})
			}
		}
		for _, phys := range rescanFillers(&m, rng, o.p.Z-(len(want)-start)) {
			want = append(want, SlotRead{Bucket: b, Slot: phys})
		}
	}
	for range buckets {
		for i := o.geo.SlotsPer - 1; i > 0; i-- {
			rng.IntN(i + 1)
		}
	}
	return want
}

// TestEvictionFillersMatchRescan drives a seeded ORAM through more than ten
// thousand evictions, early reshuffles among them, and checks every plan's
// read phase against the rescanning loop it replaced: the same slots in the
// same order, and the generator left in the same state.
func TestEvictionFillersMatchRescan(t *testing.T) {
	const evictions = 10000
	seq, _ := newTestSeq(t, testParams(64))
	o := seq.ORAM()
	src := rand.NewPCG(7, 8)
	o.rng = rand.New(src)
	// run plans one operation the way PlanRead and PlanWrite do — the access,
	// then each step nextDue plans — checking each step against the rescan
	// from the state just before it, and runs it. A step is an early
	// reshuffle of a bucket on the access's path or the next evict-path, so
	// the models of those buckets are all a prediction can need.
	reshuffles := 0
	run := func(access *Plan, err error) {
		t.Helper()
		must(t, err)
		steps, path := []*Plan{access}, access.Reads
		for {
			models := make(map[int]slotModel)
			for _, b := range o.geo.path(o.geo.evictLeaf(o.evictCount)) {
				models[b] = modelOf(o, &o.meta[b])
			}
			for _, r := range path {
				models[r.Bucket] = modelOf(o, &o.meta[r.Bucket])
			}
			oracle := *src
			plan, rest, err := o.nextDue(path)
			must(t, err)
			if plan == nil {
				break
			}
			want := predictReads(o, models, plan.Buckets, &oracle)
			if len(plan.Reads) != len(want) {
				t.Fatalf("eviction %d of buckets %v: %d reads, the rescan plans %d", o.evictCount, plan.Buckets, len(plan.Reads), len(want))
			}
			for i, r := range plan.Reads {
				if r.Bucket != want[i].Bucket || r.Slot != want[i].Slot {
					t.Fatalf("eviction %d read %d: bucket %d slot %d, the rescan picks bucket %d slot %d", o.evictCount, i, r.Bucket, r.Slot, want[i].Bucket, want[i].Slot)
				}
			}
			if *src != oracle {
				t.Fatalf("eviction %d of buckets %v: generator state diverged from the rescan's", o.evictCount, plan.Buckets)
			}
			if plan.Kind == ReshuffleStep {
				reshuffles++
			}
			steps, path = append(steps, plan), rest
		}
		o.mu.Unlock()
		_, _, err = seq.run(steps)
		must(t, err)
	}
	ops := rand.New(rand.NewPCG(9, 10))
	for i := 0; o.evictCount < evictions; i++ {
		key := fmt.Sprintf("k%d", ops.IntN(48))
		o.mu.Lock() // the steps are planned one at a time, as the planner does under the lock
		switch op := ops.IntN(10); {
		case op < 3:
			run(o.planWriteLocked(key, []byte(fmt.Sprintf("v%d", i)), false))
		case op < 9:
			run(o.planReadLocked(key, -1, nil))
		default:
			run(o.planReadLocked("", -1, nil))
		}
	}
	if reshuffles < 100 {
		t.Fatalf("only %d early reshuffles over %d evictions", reshuffles, o.evictCount)
	}
	t.Logf("%d evictions and %d early reshuffles planned as the rescan would", o.evictCount, reshuffles)
}

// TestCompletionNeverInspectsFillers pins the contract the executor's
// resident set stands on: Complete looks only at reads
// that carry a block, and BucketImage.Real names exactly the slots that can.
// One ORAM is driven by the sequential client over a full store, its twin
// (same seed, same operations) by a client that is handed nil for everything
// outside Real. They must agree on every result and end in the same state —
// though the twin seals its upper buckets as their Z real positions alone,
// where Real[i] is the physical slot of Slots[i]: leaving the dummies out
// changes nothing a checkpoint records and draws nothing from the generator.
// Every sealed image is checked slot by slot: each slot in Real opens to its
// block under the bucket's binding, every other slot is a full-length frame
// led by the scheme byte that fails to open with ErrAuth, and no filler
// repeats one of the bucket's version before.
func TestCompletionNeverInspectsFillers(t *testing.T) {
	t.Run("dummiless=true", func(t *testing.T) {
		p := testParams(64)
		full, store := newTestSeq(t, p)
		o, err := New(cryptoutil.KeyFromSeed([]byte("test")), p)
		must(t, err)
		sparse := &sparseClient{t: t, oram: o, kept: make(map[int]map[int][]byte), fillers: make(map[int]map[string]bool), realOnly: o.geo.NumBuckets / 4}
		// The twin's seals trim its first realOnly buckets as the table trims
		// the resident ones; its table stays off, so every read is fetched.
		o.local.resident = sparse.realOnly

		rng := rand.New(rand.NewPCG(5, 6))
		for i := 0; i < 1500; i++ {
			key := fmt.Sprintf("k%d", rng.IntN(48))
			switch op := rng.IntN(10); {
			case op < 4:
				val := []byte(fmt.Sprintf("v%d", i))
				must(t, full.Write(key, val))
				sparse.run(o.PlanWrite(key, val, false, nil))
			case op < 5:
				must(t, full.Delete(key))
				sparse.run(o.PlanWrite(key, nil, true, nil))
			case op < 9:
				want, wantFound, err := full.Read(key)
				must(t, err)
				got, found := sparse.run(o.PlanRead(key, nil))
				if found != wantFound || !bytes.Equal(got, want) {
					t.Fatalf("op %d: read %s = %q (found=%v) from kept blocks, %q (found=%v) from the full store", i, key, got, found, want, wantFound)
				}
			default:
				must(t, full.DummyRead())
				sparse.run(o.PlanRead("", nil))
			}
		}
		if store.violation != nil {
			t.Fatal(store.violation)
		}
		if sparse.refills < 100 {
			t.Fatalf("only %d bucket versions had a version before them to compare fillers with", sparse.refills)
		}
		a, err := full.ORAM().EncodeCheckpoint(true, CheckpointPad{}, 0, 0)
		must(t, err)
		b, err := o.EncodeCheckpoint(true, CheckpointPad{}, 0, 0)
		must(t, err)
		if !bytes.Equal(a, b) {
			t.Fatal("the two clients' metadata diverged")
		}
	})
}
