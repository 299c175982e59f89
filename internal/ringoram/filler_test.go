package ringoram

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
)

// sparseClient drives an ORAM against a store that keeps, for each bucket,
// only the slots its last BucketWrite listed in Real: every other read gets a
// nil entry. It is the executor's resident set taken to the limit (every
// bucket, every level). The first realOnly buckets are sealed without dummies,
// as the executor has its resident levels sealed.
type sparseClient struct {
	t        *testing.T
	oram     *ORAM
	kept     map[int]map[int][]byte // bucket -> physical slot -> bytes
	realOnly int
}

func (c *sparseClient) fetch(reads []SlotRead) [][]byte {
	data := make([][]byte, len(reads))
	for i, r := range reads {
		data[i] = c.kept[r.Bucket][r.Slot]
		if carries := r.target || r.entry != nil; carries && data[i] == nil {
			c.t.Fatalf("bucket %d slot %d carries a block, but the bucket's write did not list it in Real", r.Bucket, r.Slot)
		}
	}
	return data
}

func (c *sparseClient) evict(plan *EvictPlan) {
	writes, err := c.oram.CompleteEvict(plan, c.fetch(plan.Reads))
	must(c.t, err)
	for _, w := range writes {
		trimmed := w.Bucket < c.realOnly
		if want := c.oram.geo.SlotsPer; !trimmed && len(w.Slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want all %d", w.Bucket, len(w.Slots), want)
		}
		if want := c.oram.p.Z; trimmed && len(w.Slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want its Z = %d real positions", w.Bucket, len(w.Slots), want)
		}
		slots := make(map[int][]byte, len(w.Real))
		for i, s := range w.Real {
			if trimmed {
				// Real[i] is the physical slot of the block at Slots[i].
				slots[s] = bytes.Clone(w.Slots[i])
			} else {
				slots[s] = bytes.Clone(w.Slots[s])
			}
		}
		c.kept[w.Bucket] = slots
		for s, d := range w.Slots {
			kind, _, err := c.oram.cdc.decodeSlot(d, c.oram.binding(uint64(w.Bucket), w.Ver))
			must(c.t, err)
			listed := slots[s] != nil
			if trimmed {
				listed = s < len(w.Real)
				if kind == slotDummy {
					c.t.Fatalf("bucket %d version %d: a dummy sealed at position %d of a bucket sealed without dummies", w.Bucket, w.Ver, s)
				}
			}
			if holds := kind == slotReal || kind == slotTombstone; holds != listed {
				c.t.Fatalf("bucket %d version %d slot %d: holds a block = %v, listed in Real = %v", w.Bucket, w.Ver, s, holds, !holds)
			}
		}
	}
}

func (c *sparseClient) maintain(reshuffle []int) {
	for _, b := range reshuffle {
		plan, err := c.oram.PlanReshuffle(b)
		must(c.t, err)
		c.evict(plan)
	}
	for c.oram.EvictDue() {
		plan, err := c.oram.PlanEvict()
		must(c.t, err)
		c.evict(plan)
	}
}

func (c *sparseClient) access(plan *AccessPlan, due []int) ([]byte, bool) {
	var data [][]byte
	if !plan.Cached() {
		data = c.fetch(plan.Reads)
	}
	val, found, err := c.oram.CompleteAccess(plan, data)
	must(c.t, err)
	c.maintain(due)
	return val, found
}

// TestCompletionNeverInspectsFillers pins the contract the executor's
// resident set stands on: CompleteAccess and CompleteEvict look only at reads
// that carry a block, and BucketWrite.Real names exactly the slots that can.
// One ORAM is driven by the sequential client over a full store, its twin
// (same seed, same operations) by a client that is handed nil for everything
// outside Real. They must agree on every result and end in the same state —
// though the twin seals its upper buckets as their Z real positions alone,
// where Real[i] is the physical slot of Slots[i]: leaving the dummies out
// changes nothing a checkpoint records and draws nothing from the generator.
func TestCompletionNeverInspectsFillers(t *testing.T) {
	for _, dummiless := range []bool{true, false} {
		t.Run(fmt.Sprintf("dummiless=%v", dummiless), func(t *testing.T) {
			p := testParams(64)
			p.DisableDummilessWrites = !dummiless
			full, store := newTestSeq(t, p)
			o, err := New(newMapStore(), cryptoutil.KeyFromSeed([]byte("test")), p, 0)
			must(t, err)
			sparse := &sparseClient{t: t, oram: o, kept: make(map[int]map[int][]byte), realOnly: o.geo.NumBuckets / 4}
			o.SealRealOnly(sparse.realOnly)

			rng := rand.New(rand.NewPCG(5, 6))
			for i := 0; i < 1500; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(48))
				switch op := rng.IntN(10); {
				case op < 4:
					val := []byte(fmt.Sprintf("v%d", i))
					must(t, full.Write(key, val))
					plan, due, err := o.PlanWrite(key, val, false)
					must(t, err)
					if plan != nil {
						sparse.access(plan, due)
					} else {
						sparse.maintain(due)
					}
				case op < 5:
					must(t, full.Delete(key))
					plan, due, err := o.PlanWrite(key, nil, true)
					must(t, err)
					if plan != nil {
						sparse.access(plan, due)
					} else {
						sparse.maintain(due)
					}
				case op < 9:
					want, wantFound, err := full.Read(key)
					must(t, err)
					plan, due, err := o.PlanRead(key)
					must(t, err)
					got, found := sparse.access(plan, due)
					if found != wantFound || !bytes.Equal(got, want) {
						t.Fatalf("op %d: read %s = %q (found=%v) from kept blocks, %q (found=%v) from the full store", i, key, got, found, want, wantFound)
					}
				default:
					must(t, full.DummyRead())
					plan, due, err := o.PlanDummyRead()
					must(t, err)
					sparse.access(plan, due)
				}
			}
			if store.violation != nil {
				t.Fatal(store.violation)
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
}
