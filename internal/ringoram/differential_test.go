package ringoram

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// twin drives the full ORAM and its public machine alone — meta.Machine, fed
// no byte — through the same operations from the same seed, and fails at the
// first difference in what the adversary sees or the recovery log records.
type twin struct {
	t      *testing.T
	o      *ORAM
	m      *meta.Machine
	local  bool
	stored map[int][][]byte // the ORAM's store: each bucket's last sealed version
	arena  SealArena
	values twinValues // every key's content, for the machine's checkpoints
	// What the workload covered.
	kinds                        map[meta.PlanKind]int
	hits, blind, pads, localRead int
}

// twinValues hands the machine the stash values its ORAM twin holds in its
// slots: each key's last written content.
type twinValues map[string]twinValue

type twinValue struct {
	v         []byte
	tombstone bool
}

func (tv twinValues) Value(_ meta.Block, key string) ([]byte, bool, error) {
	v, ok := tv[key]
	if !ok {
		return nil, false, fmt.Errorf("no value for %q", key)
	}
	return v.v, v.tombstone, nil
}

func (tv twinValues) Restore(meta.Block, string, []byte, bool) error { return nil }

func newTwin(t *testing.T, p Params, local bool) *twin {
	o, err := New(cryptoutil.KeyFromSeed([]byte("twin")), p)
	must(t, err)
	m, err := meta.New(p)
	must(t, err)
	tw := &twin{t: t, o: o, m: m, local: local, stored: make(map[int][][]byte), values: twinValues{}, kinds: make(map[meta.PlanKind]int)}
	if local {
		if a, b := o.KeepLocal(), m.KeepLocal(); a != b {
			t.Fatalf("the ORAM keeps %d buckets resident, the machine %d", a, b)
		}
	}
	for b := range o.Geometry().NumBuckets {
		slots, err := o.SealFresh(b, &tw.arena)
		must(t, err)
		tw.store(b, slots)
	}
	return tw
}

// store keeps a copy of the slots a bucket version was sealed into.
func (tw *twin) store(b int, slots [][]byte) {
	kept := make([][]byte, len(slots))
	for i, s := range slots {
		kept[i] = bytes.Clone(s)
	}
	tw.stored[b] = kept
	tw.arena.Reset()
}

// write seals and stores bucket images, as an epoch's flush does.
func (tw *twin) write(images []BucketImage) error {
	for _, im := range images {
		slots, err := tw.o.SealImage(im, &tw.arena)
		if err != nil {
			return err
		}
		tw.store(im.Bucket, slots)
	}
	return nil
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
	if a, b := record(t, tw.o.BatchLog(steps)), record(t, tw.m.BatchLog(msteps)); !bytes.Equal(a, b) {
		t.Fatalf("batch records differ:\nORAM    %x\nmachine %x", a, b)
	}
	for _, p := range steps {
		tw.kinds[p.Kind]++
		if p.Kind == meta.AccessStep && p.Key != "" && len(p.Reads) == 0 {
			tw.hits++
		}
		data := make([][]byte, len(p.Reads))
		for i, r := range p.Reads {
			if r.Local() {
				tw.localRead++
				continue
			}
			data[i] = tw.stored[r.Bucket][r.Slot]
		}
		_, _, images, err := tw.o.Complete(p, data)
		must(t, err)
		if tw.local && len(images) != 0 {
			t.Fatalf("the ORAM returned %d images with its table on", len(images))
		}
		must(t, tw.write(images))
		for _, im := range images {
			im.Recycle()
		}
	}
	complete(t, tw.m, msteps)
	a0, e0 := tw.o.Counters()
	a1, e1 := tw.m.Counters()
	if a0 != a1 || e0 != e1 || tw.o.StashSize() != tw.m.StashSize() {
		t.Fatalf("counters %d/%d and stash %d on the ORAM, %d/%d and %d on the machine", a0, e0, tw.o.StashSize(), a1, e1, tw.m.StashSize())
	}
}

// record encodes a batch log view.
func record(t *testing.T, l meta.BatchLog) []byte {
	t.Helper()
	b := make([]byte, l.EncodedSize())
	must(t, l.Encode(b))
	return b
}

// complete completes a machine's steps in plan order as the byte plane does,
// with no bytes to move: every pending block a read carries is delivered, and
// an access's block and an eviction's placed blocks must be by then.
func complete(t *testing.T, m *meta.Machine, steps []*meta.Plan) {
	t.Helper()
	for _, p := range steps {
		must(t, m.Begin(p, len(p.Reads)))
		for _, r := range p.Reads {
			if b := r.Block(); b != 0 && m.Pending(b) {
				m.Delivered(b)
			}
		}
		if b := p.Block(); b != 0 && m.Pending(b) {
			t.Fatalf("access of %q: block still pending", m.Key(b))
		}
		for _, w := range p.Writes() {
			for _, b := range w.Placed {
				if m.Pending(b) {
					t.Fatalf("bucket %d: block %q still pending at its eviction", w.Bucket, m.Key(b))
				}
			}
		}
		m.Finish(p)
	}
}

// endEpoch writes the epoch's versions back on both sides, alternately by
// sealing the epoch and by flushing it, and checks they name the same
// buckets.
func (tw *twin) endEpoch(seal bool) {
	t := tw.t
	if seal {
		images, err := tw.o.SealLocal()
		must(t, err)
		buckets, err := tw.m.SealLocal()
		must(t, err)
		if len(images) != len(buckets) {
			t.Fatalf("the ORAM sealed %d buckets, the machine %d", len(images), len(buckets))
		}
		for i, im := range images {
			if im.Bucket != buckets[i] {
				t.Fatalf("sealed bucket %d: the ORAM's is %d, the machine's %d", i, im.Bucket, buckets[i])
			}
		}
		must(t, tw.write(images))
		return
	}
	buckets, err := tw.m.LocalEpoch()
	must(t, err)
	buckets = slices.Clone(buckets)
	must(t, tw.o.FlushLocal(func(images []BucketImage) error {
		for i, im := range images {
			if im.Bucket != buckets[i] {
				t.Errorf("flushed bucket %d: the ORAM's is %d, the machine's %d", i, im.Bucket, buckets[i])
			}
		}
		return tw.write(images)
	}))
	if done := tw.m.Flushed(); !slices.Equal(done, buckets) {
		t.Fatalf("the machine flushed %v, then listed %v", buckets, done)
	}
}

// checkpoint compares both sides' full or delta images, padded as the
// recovery log pads them, and resets delta tracking on both.
func (tw *twin) checkpoint(full bool) {
	t := tw.t
	pad := meta.CheckpointPad{PosEntries: 40, StashEntries: tw.o.Params().StashLimit}
	a, err := tw.o.EncodeCheckpoint(full, pad, 3, 5)
	must(t, err)
	b, err := tw.m.EncodeCheckpoint(full, pad, 3, 5, tw.values)
	must(t, err)
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoint images (full %v) differ:\nORAM    %x\nmachine %x", full, a, b)
	}
	tw.o.ClearDirty()
	tw.m.ClearDirty()
}

// TestMachineMatchesORAM is the split's differential test: the public
// machine run alone and the full ORAM, from one seed, with the local-version
// table off and on, over a mixed workload — reads, writes, deletes, padding
// reads and bumps, stash hits, blind overwrites of keys already in the tree,
// evict-paths and early reshuffles — plan the same steps (kind, key, leaf,
// buckets, and every read's bucket, slot, version and local flag), keep the
// same counters and stash size, log the same batch records and, given the
// stash values, write the same checkpoint images, full and delta.
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
					if slices.ContainsFunc(snap(t, o).keys, func(sk snapKey) bool { return sk.name == k && sk.bucket >= 0 }) {
						tw.blind++
					}
					steps, err := o.PlanWrite(k, v, false, nil)
					msteps, _, merr := m.PlanWrite(k, nil)
					tw.values[k] = twinValue{v: v}
					tw.run(steps, err, msteps, merr)
				case op < 8:
					steps, err := o.PlanWrite(k, nil, true, nil)
					msteps, _, merr := m.PlanWrite(k, nil)
					tw.values[k] = twinValue{tombstone: true}
					tw.run(steps, err, msteps, merr)
				case op < 17:
					steps, err := o.PlanRead(k, nil)
					msteps, merr := m.PlanRead(k, nil)
					tw.run(steps, err, msteps, merr)
				case op < 19:
					steps, err := o.PlanRead("", nil)
					msteps, merr := m.PlanRead("", nil)
					tw.run(steps, err, msteps, merr)
					tw.pads++
				default:
					steps, err := o.PlanWrite("", nil, false, nil)
					msteps, _, merr := m.PlanWrite("", nil)
					tw.run(steps, err, msteps, merr)
					tw.pads++
				}
				if local && i%12 == 11 {
					tw.endEpoch(i%24 == 11)
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
