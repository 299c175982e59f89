package ringoram

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
)

// planeClient drives an ORAM one operation at a time and checks the block
// plane against an oracle of every key's logical content. It keeps, for every
// bucket an eviction wrote, the version's image (a read of it may be served
// locally, as the executor serves a buffered bucket) and a copy of its sealed
// slots (or be fetched from those, as from storage), and picks between the
// two per read.
type planeClient struct {
	t      *testing.T
	oram   *ORAM
	rng    *rand.Rand
	images map[int]BucketImage
	sealed map[int][][]byte
	arena  SealArena
	oracle map[string][]byte // nil value: deleted
	// Blocks delivered to the stash by a local and by a remote read, and
	// images checked block by block.
	local, remote, checked int
}

// want is the canonical plaintext slot of key's logical content.
func (c *planeClient) want(key string) []byte {
	v, ok := c.oracle[key]
	if !ok {
		c.t.Fatalf("the plane holds %q, which was never written", key)
	}
	kind := byte(slotReal)
	if v == nil {
		kind = slotTombstone
	}
	plain := make([]byte, c.oram.cdc.plainSize())
	must(c.t, c.oram.cdc.encodePlain(plain, kind, block{key: key, value: v}))
	return plain
}

func (c *planeClient) fetch(reads []SlotRead) [][]byte {
	data := make([][]byte, len(reads))
	for i := range reads {
		r := &reads[i]
		carries := r.target || r.entry != nil
		if im, ok := c.images[r.Bucket]; ok && im.Ver == r.Ver && c.rng.IntN(2) == 0 {
			r.Local, data[i] = true, im.Block(r.Slot)
			if carries {
				c.local++
			}
			continue
		}
		if slots := c.sealed[r.Bucket]; slots != nil {
			data[i] = slots[r.Slot]
		}
		if carries {
			c.remote++
		}
	}
	return data
}

func (c *planeClient) evict(plan *EvictPlan) {
	images, err := c.oram.CompleteEvict(plan, c.fetch(plan.Reads))
	must(c.t, err)
	for _, im := range images {
		m := &c.oram.meta[im.Bucket]
		for i, b := range im.Blocks {
			key := c.oram.keys[m.addrs[i]].name
			if !bytes.Equal(b, c.want(key)) {
				c.t.Fatalf("bucket %d version %d position %d: the image's block is not the canonical slot of %q", im.Bucket, im.Ver, i, key)
			}
			c.checked++
		}
		slots, err := c.oram.SealImage(im, &c.arena)
		must(c.t, err)
		kept := make([][]byte, len(slots))
		for i, s := range slots {
			kept[i] = bytes.Clone(s)
		}
		c.arena.Reset()
		if old, ok := c.images[im.Bucket]; ok {
			old.Recycle()
		}
		c.images[im.Bucket], c.sealed[im.Bucket] = im, kept
	}
}

func (c *planeClient) maintain(reshuffle []int) {
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

// checkStash fails unless every stash entry's slot is the canonical slot of
// its key's content.
func (c *planeClient) checkStash(op int) {
	for _, e := range c.oram.stashList {
		if !bytes.Equal(e.slot, c.want(e.key)) {
			c.t.Fatalf("op %d: the stash slot of %q is not the canonical slot of its content", op, e.key)
		}
	}
}

// TestBlockPlaneSlotsAreCanonical runs a seeded mixed workload — blind writes
// of every value length, deletes, stash hits, reads served locally from an
// image and remotely from sealed slots, dummy reads, and a Restore from a full
// and a delta image midway — and checks after every operation that each stash
// slot, and every block of every image an eviction returns, is byte-equal to
// encodePlain of its key's logical content: whichever path brought the block
// into the stash (a write, a delivered local or remote read, a Restore), its
// slot is that one encoding, moved into the image untouched.
func TestBlockPlaneSlotsAreCanonical(t *testing.T) {
	for _, encrypted := range []bool{true, false} {
		t.Run(fmt.Sprintf("encrypted=%v", encrypted), func(t *testing.T) {
			p := testParams(64)
			var key *cryptoutil.Key
			if encrypted {
				key = cryptoutil.KeyFromSeed([]byte("plane"))
			} else {
				p.DisableEncryption = true
			}
			o, err := New(key, p)
			must(t, err)
			c := &planeClient{t: t, oram: o, rng: rand.New(rand.NewPCG(7, 8)),
				images: make(map[int]BucketImage), sealed: make(map[int][][]byte), oracle: make(map[string][]byte)}
			var full []byte
			hits, restored := 0, false
			for i := 0; i < 1500; i++ {
				k := fmt.Sprintf("k%d", c.rng.IntN(40))
				switch op := c.rng.IntN(20); {
				case op < 6:
					v := bytes.Repeat([]byte{byte(i)}, c.rng.IntN(p.ValueSize+1))
					c.oracle[k] = v
					must(t, c.oram.PlanWrite(k, v, false))
					c.maintain(nil)
				case op < 8:
					c.oracle[k] = nil
					must(t, c.oram.PlanWrite(k, nil, true))
					c.maintain(nil)
				case op < 19:
					plan, due, err := c.oram.PlanRead(k)
					must(t, err)
					if plan.Cached() {
						hits++
					}
					var data [][]byte
					if !plan.Cached() {
						data = c.fetch(plan.Reads)
					}
					got, found, err := c.oram.CompleteAccess(plan, data)
					must(t, err)
					if want := c.oracle[k]; found != (want != nil) || !bytes.Equal(got, want) {
						t.Fatalf("op %d: read %s = %q (found=%v), want %q", i, k, got, found, want)
					}
					c.maintain(due)
				default:
					plan, due, err := c.oram.PlanDummyRead()
					must(t, err)
					_, _, err = c.oram.CompleteAccess(plan, c.fetch(plan.Reads))
					must(t, err)
					c.maintain(due)
				}
				switch i {
				case 600:
					full = image(t, c.oram, true)
					c.oram.ClearDirty()
				case 900:
					c.oram, err = Restore(key, p, full, image(t, c.oram, false))
					must(t, err)
					restored = true
				}
				c.checkStash(i)
			}
			if !restored || hits == 0 || c.local == 0 || c.remote == 0 || c.checked == 0 {
				t.Fatalf("the workload missed a path: restored %v, %d stash hits, %d local and %d remote deliveries, %d image blocks checked", restored, hits, c.local, c.remote, c.checked)
			}
			t.Logf("%d stash hits, %d local and %d remote deliveries, %d image blocks checked", hits, c.local, c.remote, c.checked)
		})
	}
}

// TestRestoreDropsStashSlotsPoisoned: a delta image replaces the stash
// wholesale, and in race builds every slot of the stash it drops is poisoned
// back in the pool, unless the new stash took it again for an entry of its
// own — so a read through a stale entry fails to decode.
func TestRestoreDropsStashSlotsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("the block pool poisons returned slots in race builds only")
	}
	key := cryptoutil.KeyFromSeed([]byte("poison"))
	src, err := New(key, testParams(64))
	must(t, err)
	for i := 0; i < 12; i++ { // dummiless writes: twelve entries, no eviction yet
		must(t, src.PlanWrite(fmt.Sprintf("k%d", i), []byte("v"), false))
	}
	full := image(t, src, true)
	src.ClearDirty()
	// One eviction over the empty tree: its reads are all fillers.
	ep, err := src.PlanEvict()
	must(t, err)
	images, err := src.CompleteEvict(ep, make([][]byte, len(ep.Reads)))
	must(t, err)
	for _, im := range images {
		im.Recycle()
	}
	delta := image(t, src, false)

	o, err := newClient(key, src.Params())
	must(t, err)
	l := o.imageLayout()
	must(t, o.applyImage(l, full, true))
	var dropped [][]byte
	for _, e := range o.stashList {
		dropped = append(dropped, e.slot)
	}
	must(t, o.applyImage(l, delta, false))
	held := make(map[*byte]bool)
	for _, e := range o.stashList {
		held[&e.slot[0]] = true
	}
	poisoned := 0
	for _, s := range dropped {
		if held[&s[0]] {
			continue
		}
		if !bytes.Equal(s, bytes.Repeat([]byte{0xdb}, len(s))) {
			t.Fatal("a stash slot the delta dropped went back to the pool unpoisoned")
		}
		poisoned++
	}
	if poisoned == 0 {
		t.Fatalf("the delta's stash of %d entries kept every slot of the full image's %d: nothing was dropped", len(o.stashList), len(dropped))
	}
}
