package ringoram

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// twin drives the full ORAM — its machine over the ORAM as the byte plane —
// and a public machine alone — meta.Machine, fed no byte — through the same
// operations from the same seed, and fails at the first difference in what
// the adversary sees, the recovery log records or the local-version table
// keeps.
type twin struct {
	t     *testing.T
	o     *ORAM
	c     *planeClient // the ORAM's store
	m     *meta.Machine
	local bool
	plane twinPlane
	// What the workload covered.
	kinds                        map[meta.PlanKind]int
	hits, blind, pads, localRead int
}

// twinPlane is the machine's byte plane, which moves no byte: it keeps every
// key's written content (Put), for the machine's checkpoints, and the bucket
// of every version the machine has it keep, by handle.
type twinPlane struct {
	values map[string]twinValue
	images map[meta.Image]int
	o      *ORAM
}

type twinValue struct {
	v         []byte
	tombstone bool
}

func (tp *twinPlane) Deliver(meta.SlotRead, []byte, string) error { return nil }

func (tp *twinPlane) Place(w *meta.BucketWrite) {
	if w.Image != 0 {
		tp.images[w.Image] = w.Bucket
	}
}

func (tp *twinPlane) Release(h meta.Image) { delete(tp.images, h) }

// Seed is the seed the ORAM's machine drew for the version: the ORAM plans
// every step before the twin does, so its bucket b is at version ver
// already, and the twin's images carry the ORAM's seeds.
func (tp *twinPlane) Seed(b int, _ uint64) meta.Seed { return tp.o.m.Seed(b) }

func (tp *twinPlane) Value(_ meta.Block, key string) ([]byte, bool, error) {
	v, ok := tp.values[key]
	if !ok {
		return nil, false, fmt.Errorf("no value for %q", key)
	}
	return v.v, v.tombstone, nil
}

func (tp *twinPlane) Put(_ meta.Block, key string, v []byte, tombstone bool) error {
	tp.values[key] = twinValue{v: v, tombstone: tombstone}
	return nil
}

func newTwin(t *testing.T, p Params, local bool) *twin {
	o, err := New(cryptoutil.KeyFromSeed([]byte("twin")), p)
	must(t, err)
	tw := &twin{t: t, o: o, local: local, kinds: make(map[meta.PlanKind]int),
		plane: twinPlane{values: make(map[string]twinValue), images: make(map[meta.Image]int), o: o}}
	tw.m, err = meta.New(p, &tw.plane)
	must(t, err)
	if local {
		if a, b := o.m.KeepLocal(), tw.m.KeepLocal(); a != b {
			t.Fatalf("the ORAM keeps %d buckets resident, the machine %d", a, b)
		}
	}
	tw.c = newPlaneClient(t, o, 0)
	tw.checkImages("the start")
	return tw
}

// checkImages fails unless both sides keep the same versions under the same
// handles: the ORAM's images, filed by handle, are exactly those its machine
// holds as a bucket's current or sealed version (see heldImages), and they
// are the handles, with their buckets, that the machine alone holds and has
// its plane keep.
func (tw *twin) checkImages(when string) {
	t := tw.t
	t.Helper()
	if !tw.local {
		if len(tw.o.images) != 0 || len(tw.plane.images) != 0 {
			t.Fatalf("%s: %d images filed by the ORAM and %d by the machine's plane with the table off", when, len(tw.o.images), len(tw.plane.images))
		}
		return
	}
	held := make(map[meta.Image]int)
	for h, im := range heldImages(t, tw.o, when) {
		held[h] = im.Bucket
	}
	for b := range tw.o.geo.NumBuckets {
		for _, h := range localHandles(tw.m, b) {
			if held[h] != b {
				t.Fatalf("%s: the machine alone keeps bucket %d under handle %d, the ORAM %v", when, b, h, held)
			}
		}
	}
	if !maps.Equal(held, tw.plane.images) {
		t.Fatalf("%s: the ORAM keeps images %v, the machine alone has its plane keep %v", when, held, tw.plane.images)
	}
}

// run compares one operation's plans from both sides, then completes them on
// each: the ORAM with the slots its store holds, the machine with none.
func (tw *twin) run(steps []*meta.Plan, err error, msteps []*meta.Plan, merr error) {
	t := tw.t
	t.Helper()
	if (err == nil) != (merr == nil) || len(steps) != len(msteps) {
		t.Fatalf("the ORAM planned %d steps (%v), the machine %d (%v)", len(steps), err, len(msteps), merr)
	}
	must(t, err)
	for i, p := range steps {
		q := msteps[i]
		if p.Kind != q.Kind || p.Key != q.Key || p.Leaf != q.Leaf || !slices.Equal(p.Buckets, q.Buckets) || len(p.Reads) != len(q.Reads) {
			t.Fatalf("step %d: the ORAM planned %+v, the machine %+v", i, *p, *q)
		}
		for j, r := range p.Reads {
			if s := q.Reads[j]; r.Bucket != s.Bucket || r.Slot != s.Slot || r.Ver != s.Ver || r.Local() != s.Local() {
				t.Fatalf("step %d read %d: the ORAM reads %+v (local %v), the machine %+v (local %v)", i, j, r, r.Local(), s, s.Local())
			}
		}
	}
	if a, b := record(t, tw.o.m.BatchLog(steps)), record(t, tw.m.BatchLog(msteps)); !bytes.Equal(a, b) {
		t.Fatalf("batch records differ:\nORAM    %x\nmachine %x", a, b)
	}
	for i, p := range steps {
		tw.kinds[p.Kind]++
		if p.Kind == meta.AccessStep && p.Key != "" && len(p.Reads) == 0 {
			tw.hits++
		}
		data := make([][]byte, len(p.Reads))
		for j, r := range p.Reads {
			if r.Local() {
				tw.localRead++
				continue
			}
			data[j] = tw.c.stored[r.Bucket][r.Slot]
		}
		_, _, images, err := tw.o.Complete(p, data, nil)
		must(t, err)
		if tw.local && len(images) != 0 {
			t.Fatalf("the ORAM returned %d images with its table on", len(images))
		}
		must(t, tw.c.write(images))
		for _, im := range images {
			im.Recycle()
		}
		_, err = tw.m.Complete(msteps[i], make([][]byte, len(msteps[i].Reads)))
		must(t, err)
		tw.checkImages(fmt.Sprintf("step %d's completion", i))
	}
	a0, e0 := tw.o.m.Counters()
	a1, e1 := tw.m.Counters()
	if a0 != a1 || e0 != e1 || tw.o.m.StashSize() != tw.m.StashSize() {
		t.Fatalf("counters %d/%d and stash %d on the ORAM, %d/%d and %d on the machine", a0, e0, tw.o.m.StashSize(), a1, e1, tw.m.StashSize())
	}
}

// record encodes a batch log view.
func record(t *testing.T, l meta.BatchLog) []byte {
	t.Helper()
	b := make([]byte, l.EncodedSize())
	must(t, l.Encode(b))
	return b
}

// endEpoch writes the epoch's versions back on both sides, alternately by
// sealing the epoch and by flushing it (see planeClient.endEpoch), and
// checks they name the same buckets.
func (tw *twin) endEpoch() {
	images, what := tw.c.endEpoch(), "sealed"
	handles, err := tw.m.LocalEpoch()
	if tw.c.epochs%2 == 1 {
		handles, err = tw.m.SealLocal()
	} else {
		what = "flushed"
	}
	must(tw.t, err)
	tw.sameBuckets(what, images, handles)
	if what == "flushed" {
		tw.m.Flushed()
	}
	tw.checkImages(what)
	checkSettled(tw.t, tw.o, what)
}

// sameBuckets fails unless the ORAM's images are of the buckets whose
// versions the machine alone names by handles, in the same order.
func (tw *twin) sameBuckets(what string, images []BucketImage, handles []meta.Image) {
	tw.t.Helper()
	if len(images) != len(handles) {
		tw.t.Fatalf("the ORAM %s %d buckets, the machine %d", what, len(images), len(handles))
	}
	for i, im := range images {
		if b := tw.plane.images[handles[i]]; im.Bucket != b {
			tw.t.Fatalf("%s bucket %d: the ORAM's is %d, the machine's %d", what, i, im.Bucket, b)
		}
	}
}

// checkpoint compares both sides' full or delta images, padded as the
// recovery log pads them, and resets delta tracking on both.
func (tw *twin) checkpoint(full bool) {
	t := tw.t
	pad := meta.CheckpointPad{PosEntries: 40, StashEntries: tw.o.p.StashLimit}
	a, err := tw.o.m.EncodeCheckpoint(nil, full, pad, 3, 5)
	must(t, err)
	b, err := tw.m.EncodeCheckpoint(nil, full, pad, 3, 5)
	must(t, err)
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoint images (full %v) differ:\nORAM    %x\nmachine %x", full, a, b)
	}
	tw.o.m.ClearDirty()
	tw.m.ClearDirty()
}

// TestMachineMatchesORAM is the split's differential test: the public
// machine run alone and the full ORAM, from one seed, with the local-version
// table off and on, over a mixed workload — reads, writes, deletes, padding
// reads and bumps, stash hits, blind overwrites of keys already in the tree,
// evict-paths and early reshuffles — plan the same steps (kind, key, leaf,
// buckets, and every read's bucket, slot, version and local flag), keep the
// same counters and stash size, log the same batch records, given the stash
// values write the same checkpoint images, full and delta, and keep the same
// bucket versions under the same handles, each with an image in the ORAM
// exactly while the machine holds it.
func TestMachineMatchesORAM(t *testing.T) {
	for _, local := range []bool{false, true} {
		t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
			p := testParams(256)
			p.S, p.A, p.Seed = 4, 4, 19 // early reshuffles between evict-paths
			tw := newTwin(t, p, local)
			o, m := tw.o, tw.m
			rng := rand.New(rand.NewPCG(19, 20))
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("k%d", rng.IntN(48))
				switch op := rng.IntN(20); {
				case op < 6:
					v := bytes.Repeat([]byte{byte(i)}, rng.IntN(p.ValueSize+1))
					if _, written := tw.plane.values[k]; written && stashSlot(o, k) == nil {
						tw.blind++ // a key written before and not in the stash is in the tree
					}
					steps, err := o.m.PlanWrite(k, v, false, nil)
					msteps, merr := m.PlanWrite(k, v, false, nil)
					tw.run(steps, err, msteps, merr)
				case op < 8:
					steps, err := o.m.PlanWrite(k, nil, true, nil)
					msteps, merr := m.PlanWrite(k, nil, true, nil)
					tw.run(steps, err, msteps, merr)
				case op < 17:
					steps, err := o.m.PlanRead(k, nil)
					msteps, merr := m.PlanRead(k, nil)
					tw.run(steps, err, msteps, merr)
				case op < 19:
					steps, err := o.m.PlanRead("", nil)
					msteps, merr := m.PlanRead("", nil)
					tw.run(steps, err, msteps, merr)
					tw.pads++
				default:
					steps, err := o.m.PlanWrite("", nil, false, nil)
					msteps, merr := m.PlanWrite("", nil, false, nil)
					tw.run(steps, err, msteps, merr)
					tw.pads++
				}
				if local && i%12 == 11 {
					tw.endEpoch()
				}
				if i%50 == 49 {
					tw.checkpoint(i%500 == 49)
				}
			}
			if tw.hits == 0 || tw.blind == 0 || tw.pads == 0 || tw.kinds[meta.EvictStep] == 0 || tw.kinds[meta.ReshuffleStep] == 0 || local != (tw.localRead > 0) {
				t.Fatalf("the workload missed a path: %d stash hits, %d blind overwrites, %d padding operations, %d local reads, steps %v", tw.hits, tw.blind, tw.pads, tw.localRead, tw.kinds)
			}
			t.Logf("%d stash hits, %d blind overwrites, %d padding operations, %d local reads, steps %v", tw.hits, tw.blind, tw.pads, tw.localRead, tw.kinds)
		})
	}
}
