package ringoram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// sparseClient drives an ORAM against a store that keeps, for each bucket,
// only the slots its last image listed in Real: every other read gets a nil
// entry. It is the executor's resident set taken to the limit (every
// bucket, every level). The first realOnly buckets are sealed without dummies,
// as the executor has its resident levels sealed, though the table stays off,
// so every read is fetched.
type sparseClient struct {
	t        *testing.T
	oram     *ORAM
	kept     map[int]map[int][]byte  // bucket -> physical slot -> bytes
	fillers  map[int]map[string]bool // bucket -> the fillers of its last image
	refills  int                     // images whose fillers were checked against the version before
	realOnly int
	arena    SealArena
}

func (c *sparseClient) fetch(reads []meta.SlotRead) [][]byte {
	data := make([][]byte, len(reads))
	for i, r := range reads {
		data[i] = c.kept[r.Bucket][r.Slot]
		if carries := r.Block() != 0; carries && data[i] == nil {
			c.t.Fatalf("bucket %d slot %d carries a block, but the bucket's image did not list it in Real", r.Bucket, r.Slot)
		}
	}
	return data
}

// run completes an operation's steps in plan order, checking every image an
// eviction seals, and returns the access's result.
func (c *sparseClient) run(steps []*meta.Plan, err error) (val []byte, found bool) {
	must(c.t, err)
	for _, p := range steps {
		access := p.Kind == meta.AccessStep
		v, f, images, err := c.oram.Complete(p, c.fetch(p.Reads), nil)
		must(c.t, err)
		if access {
			val, found = bytes.Clone(v), f // a later step may move the block
		}
		c.seal(images)
	}
	return val, found
}

func (c *sparseClient) seal(images []BucketImage) {
	for _, im := range images {
		trimmed := im.Bucket < c.realOnly
		im.resident = trimmed
		slots, err := c.oram.SealImage(im, &c.arena)
		must(c.t, err)
		if want := c.oram.geo.SlotsPer; !trimmed && len(slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want all %d", im.Bucket, len(slots), want)
		}
		if want := c.oram.p.Z; trimmed && len(slots) != want {
			c.t.Fatalf("bucket %d sealed with %d slots, want its Z = %d real positions", im.Bucket, len(slots), want)
		}
		kept := make(map[int][]byte, len(im.Blocks))
		holds := make([]bool, len(slots))
		bind := cryptoutil.Binding(uint64(im.Bucket), im.Ver, 0)
		for i, phys := range im.Real() {
			s := int(phys)
			frame := i // Real()[i] is the physical slot of the block at slots[i]
			if !trimmed {
				frame = s
			}
			holds[frame] = true
			kept[s] = bytes.Clone(slots[frame])
			plain := make([]byte, c.oram.cdc.plainSize())
			must(c.t, c.oram.cdc.open(plain, slots[frame], im.Seed, s, bind, string(c.oram.BlockKey(im.Blocks[i])), new(cryptoutil.SlotScratch)))
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
			if len(d) != c.oram.cdc.slotSize() || d[0] != byte(cryptoutil.SchemeSlot) {
				c.t.Fatalf("bucket %d version %d: filler %d is %d bytes led by %d, want %d bytes led by the scheme byte", im.Bucket, im.Ver, i, len(d), d[0], c.oram.cdc.slotSize())
			}
			if _, err := c.oram.cdc.key.OpenSlot(nil, d, cryptoutil.Seed(im.Seed), i, bind, nil, new(cryptoutil.SlotScratch)); !errors.Is(err, cryptoutil.ErrAuth) {
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

// TestCompletionNeverInspectsFillers pins the contract the executor's
// resident set stands on: Complete looks only at reads
// that carry a block, and BucketImage.Real names exactly the slots that can.
// One ORAM is driven by the sequential client over a full store, its twin
// (same seed, same operations, and both drawing their versions' seeds from
// fixedPlane) by a client that is handed nil for everything outside Real.
// They must agree on every result and end in the same state —
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
		store := newStore(p)
		full := newFixedSeq(t, store, cryptoutil.KeyFromSeed([]byte("test")), p)
		o := newFixedORAM(t, cryptoutil.KeyFromSeed([]byte("test")), p)
		sparse := &sparseClient{t: t, oram: o, kept: make(map[int]map[int][]byte), fillers: make(map[int]map[string]bool), realOnly: o.geo.NumBuckets / 4}

		rng := rand.New(rand.NewPCG(5, 6))
		for i := 0; i < 1500; i++ {
			key := fmt.Sprintf("k%d", rng.IntN(48))
			switch op := rng.IntN(10); {
			case op < 4:
				val := []byte(fmt.Sprintf("v%d", i))
				must(t, full.Write(key, val))
				sparse.run(o.m.PlanWrite(key, val, false, nil))
			case op < 5:
				must(t, full.Delete(key))
				sparse.run(o.m.PlanWrite(key, nil, true, nil))
			case op < 9:
				want, wantFound, err := full.Read(key)
				must(t, err)
				got, found := sparse.run(o.m.PlanRead(key, nil))
				if found != wantFound || !bytes.Equal(got, want) {
					t.Fatalf("op %d: read %s = %q (found=%v) from kept blocks, %q (found=%v) from the full store", i, key, got, found, want, wantFound)
				}
			default:
				must(t, full.DummyRead())
				sparse.run(o.m.PlanRead("", nil))
			}
		}
		if store.Violation() != nil {
			t.Fatal(store.Violation())
		}
		if sparse.refills < 100 {
			t.Fatalf("only %d bucket versions had a version before them to compare fillers with", sparse.refills)
		}
		if !bytes.Equal(image(t, full.ORAM(), true), image(t, o, true)) {
			t.Fatal("the two clients' metadata diverged")
		}
	})
}
