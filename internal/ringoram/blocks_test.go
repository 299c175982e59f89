package ringoram

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// planeClient drives an ORAM with its local-version table on, one operation
// at a time, the way the executor does, and checks the block plane against
// an oracle of every key's logical content. Its store keeps, per bucket, the
// sealed slots of the last version an epoch boundary wrote back; a read the
// ORAM marks Local is served from the table, every other one from the store.
// Epochs end every few operations, alternately by sealing the epoch (the
// pipelined boundary) and by flushing it.
type planeClient struct {
	t      *testing.T
	oram   *ORAM
	rng    *rand.Rand
	stored map[int][][]byte
	arena  SealArena
	oracle map[string][]byte // nil value: deleted
	// Blocks delivered to the stash by a local and by a remote read, images
	// checked block by block, and epochs ended.
	local, remote, checked, epochs int
	evictions, reshuffles          int
}

// newPlaneClient writes o's fresh tree to the store, as the table o's machine
// keeps, on or off, writes it.
func newPlaneClient(t *testing.T, o *ORAM, seed uint64) *planeClient {
	c := &planeClient{t: t, oram: o, rng: rand.New(rand.NewPCG(seed, seed+1)), stored: make(map[int][][]byte), oracle: make(map[string][]byte)}
	for b := 0; b < o.geo.NumBuckets; b++ {
		slots, err := o.SealFresh(b, &c.arena)
		must(t, err)
		c.keep(b, slots)
	}
	return c
}

// keep stores a copy of the slots a bucket version was sealed into.
func (c *planeClient) keep(b int, slots [][]byte) {
	kept := make([][]byte, len(slots))
	for i, s := range slots {
		kept[i] = bytes.Clone(s)
	}
	c.stored[b] = kept
	c.arena.Reset()
}

// write seals images and stores them, as a flush does.
func (c *planeClient) write(images []BucketImage) error {
	for _, im := range images {
		slots, err := c.oram.SealImage(im, &c.arena)
		if err != nil {
			return err
		}
		c.keep(im.Bucket, slots)
	}
	return nil
}

// endEpoch writes the epoch's versions back, alternately as the executor's
// SealEpoch and FlushSealed do (odd epochs) and as its Flush does, and
// returns the images it wrote.
func (c *planeClient) endEpoch() []BucketImage {
	c.epochs++
	m := c.oram.m
	handles, err := m.LocalEpoch()
	if c.epochs%2 == 1 {
		handles, err = m.SealLocal()
	}
	must(c.t, err)
	images := c.oram.imagesOf(handles)
	must(c.t, c.write(images))
	if c.epochs%2 == 0 {
		m.Flushed()
	}
	return images
}

// load reads the resident buckets' stored slots into the table, and checks
// that it kept exactly the blocks the metadata places. When prev's table
// holds the versions the load replaces — an in-place reload, or a Restore to
// the state prev is in — each loaded block must also be byte-equal to the
// block prev's version holds at that physical slot.
func (c *planeClient) load(prev *ORAM) {
	o, z := c.oram, c.oram.p.Z
	held := make([]map[int][]byte, o.m.Resident())
	for b := range held {
		if im := prev.localCur(b); im.buf != nil {
			held[b] = make(map[int][]byte)
			for i, s := range im.Real() {
				held[b][int(s)] = bytes.Clone(im.Blocks[i])
			}
		}
	}
	var data [][]byte
	for b := range held {
		data = append(data, c.stored[b][:z]...)
	}
	must(c.t, o.LoadLocal(data))
	for b := range held {
		ver, _, placed := o.m.Holds(b, nil)
		im := o.localCur(b)
		if len(im.Blocks) != len(placed) || im.Ver != ver {
			c.t.Fatalf("bucket %d: loaded %d blocks of version %d, the metadata places %d at version %d", b, len(im.Blocks), im.Ver, len(placed), ver)
		}
		for i, s := range im.Real() {
			if want, ok := held[b][int(s)]; prev != nil && (!ok || !bytes.Equal(im.Blocks[i], want)) {
				c.t.Fatalf("bucket %d slot %d: the loaded block is not the one the replaced version held", b, s)
			}
		}
	}
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

func (c *planeClient) fetch(reads []meta.SlotRead) [][]byte {
	data := make([][]byte, len(reads))
	for i, r := range reads {
		carries := r.Block() != 0
		switch {
		case r.Local():
			if carries {
				c.local++
			}
		case r.Bucket < c.oram.m.Resident():
			c.t.Fatalf("bucket %d of a resident level read from storage", r.Bucket)
		default:
			data[i] = c.stored[r.Bucket][r.Slot]
			if carries {
				c.remote++
			}
		}
	}
	return data
}

// evict completes an eviction and checks that the table holds, for every
// bucket it rewrote, the version it planned, each block the canonical slot of
// the key it placed there. A later step of the same operation may rewrite a
// bucket again: run checks the newest versions once all have completed.
func (c *planeClient) evict(plan *meta.Plan) {
	type planned struct {
		bucket int
		ver    uint64
		keys   []string
	}
	var want []planned
	for _, pb := range plan.Writes() {
		w := planned{bucket: pb.Bucket, ver: pb.Ver}
		for _, b := range pb.Placed {
			w.keys = append(w.keys, c.oram.m.Key(b))
		}
		want = append(want, w)
	}
	_, _, images, err := c.oram.Complete(plan, c.fetch(plan.Reads), nil)
	must(c.t, err)
	if len(images) != 0 {
		c.t.Fatalf("Complete returned %d images with the table on", len(images))
	}
	for _, w := range want {
		im := c.oram.localCur(w.bucket)
		if im.Ver != w.ver || len(im.Blocks) != len(w.keys) {
			c.t.Fatalf("bucket %d: the table holds version %d with %d blocks, the eviction wrote version %d with %d", w.bucket, im.Ver, len(im.Blocks), w.ver, len(w.keys))
		}
		for i, blk := range im.Blocks {
			if !bytes.Equal(blk, c.want(w.keys[i])) {
				c.t.Fatalf("bucket %d version %d position %d: the image's block is not the canonical slot of %q", im.Bucket, im.Ver, i, w.keys[i])
			}
			c.checked++
		}
	}
}

// run completes an operation's steps in plan order, checking every
// eviction's images, and returns the access's result and whether the stash
// served it.
func (c *planeClient) run(steps []*meta.Plan, err error) (val []byte, found, hit bool) {
	must(c.t, err)
	var rewritten []int
	for _, p := range steps {
		rewritten = append(rewritten, p.Buckets...)
		switch p.Kind {
		case meta.AccessStep:
			hit = len(p.Reads) == 0
			val, found, _, err = c.oram.Complete(p, c.fetch(p.Reads), nil)
			must(c.t, err)
			val = bytes.Clone(val) // a later step may move the block
		case meta.WriteStep:
			_, _, _, err = c.oram.Complete(p, nil, nil)
			must(c.t, err)
		case meta.ReshuffleStep:
			c.evict(p)
			c.reshuffles++
		case meta.EvictStep:
			c.evict(p)
			c.evictions++
		}
	}
	for _, b := range rewritten {
		if v, _, _ := c.oram.m.Holds(b, nil); c.oram.localCur(b).buf == nil || c.oram.localCur(b).Ver != v {
			c.t.Fatalf("bucket %d: the table does not hold the version the metadata is at, %d", b, v)
		}
	}
	return val, found, hit
}

// step runs one seeded operation over forty keys — a blind write of a random
// length, a delete, a read checked against the oracle, or a dummy read — and
// reports whether the stash served a read.
func (c *planeClient) step(i int) (hit bool) {
	k := fmt.Sprintf("k%d", c.rng.IntN(40))
	switch op := c.rng.IntN(20); {
	case op < 6:
		v := bytes.Repeat([]byte{byte(i)}, c.rng.IntN(c.oram.p.ValueSize+1))
		c.oracle[k] = v
		c.run(c.oram.m.PlanWrite(k, v, false, nil))
	case op < 8:
		c.oracle[k] = nil
		c.run(c.oram.m.PlanWrite(k, nil, true, nil))
	case op < 19:
		got, found, hit := c.read(k)
		if want := c.oracle[k]; found != (want != nil) || !bytes.Equal(got, want) {
			c.t.Fatalf("op %d: read %s = %q (found=%v), want %q", i, k, got, found, want)
		}
		return hit
	default:
		c.read("")
	}
	return false
}

// read runs one read of key (a dummy read for "") to completion and returns
// its result and whether the stash served it.
func (c *planeClient) read(key string) (val []byte, found, hit bool) {
	return c.run(c.oram.m.PlanRead(key, nil))
}

// checkStash fails unless every stash entry has a slot and each is the
// canonical slot of its key's content.
func (c *planeClient) checkStash(op int) {
	n := 0
	for b, s := range c.oram.slots {
		if s == nil {
			continue
		}
		n++
		if key := c.oram.m.Key(meta.Block(b)); !bytes.Equal(s, c.want(key)) {
			c.t.Fatalf("op %d: the stash slot of %q is not the canonical slot of its content", op, key)
		}
	}
	if n != c.oram.m.StashSize() {
		c.t.Fatalf("op %d: %d stash slots for %d stash entries", op, n, c.oram.m.StashSize())
	}
}

// localCur is the image o files under the handle of bucket b's current
// version, the zero image when b has none or o is nil.
func (o *ORAM) localCur(b int) BucketImage {
	if o == nil {
		return BucketImage{}
	}
	cur, _ := o.m.Local(b)
	return *o.image(cur)
}

// imagesOf returns the images o files under handles.
func (o *ORAM) imagesOf(handles []meta.Image) []BucketImage {
	var images []BucketImage
	for _, h := range handles {
		images = append(images, o.Image(h))
	}
	return images
}

// TestBlockPlaneSlotsAreCanonical runs a seeded mixed workload — blind writes
// of every value length, deletes, stash hits, reads served locally from the
// table and remotely from sealed slots, dummy reads, epochs ended both ways,
// and a Restore from a full and a delta image midway with the resident levels
// loaded back — and checks after every operation that each stash slot, and
// every block of every image an eviction files, is byte-equal to encodePlain
// of its key's logical content: whichever path brought the block into the
// stash (a write, a delivered local or remote read, a Restore), its slot is
// that one encoding, moved into the image untouched.
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
			o.m.KeepLocal()
			c := newPlaneClient(t, o, 7)
			var full []byte
			hits, restored := 0, false
			for i := 0; i < 1500; i++ {
				if c.step(i) {
					hits++
				}
				if i%10 == 9 {
					c.endEpoch()
				}
				switch i {
				case 600:
					full = image(t, c.oram, true)
					c.oram.m.ClearDirty()
				case 899:
					prev := c.oram
					c.oram, err = Restore(key, p, full, image(t, c.oram, false))
					must(t, err)
					c.oram.m.KeepLocal()
					c.load(prev)
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

// TestRestoreTakesSlotsForItsStashOnly: a delta image replaces the stash
// wholesale, so a Restore from a full image and a delta takes a slot of the
// block pool for each entry of the stash the delta leaves, and for no entry of
// the stash the full image listed: nothing it took is dropped again.
func TestRestoreTakesSlotsForItsStashOnly(t *testing.T) {
	key := cryptoutil.KeyFromSeed([]byte("poison"))
	p := testParams(64)
	p.S, p.A = 16, 16 // no evict-path falls due during the writes
	src, err := New(key, p)
	must(t, err)
	for i := 0; i < 12; i++ { // dummiless writes: twelve entries, no eviction yet
		steps, err := src.m.PlanWrite(fmt.Sprintf("k%d", i), []byte("v"), false, nil)
		must(t, err)
		if len(steps) != 1 {
			t.Fatalf("write %d planned %d steps, want the write alone", i, len(steps))
		}
	}
	full := image(t, src, true)
	src.m.ClearDirty()
	// Bumps up to one eviction over the empty tree: its reads are all fillers.
	for _, im := range completeAll(t, src, evictNow(t, src)) {
		im.Recycle()
	}
	delta := image(t, src, false)

	o, err := Restore(key, src.p, full, delta)
	must(t, err)
	if n := o.m.StashSize(); n >= 12 || o.blocks.carved != n {
		t.Fatalf("the delta's stash of %d entries (the full image's: 12) took %d slots of the pool", n, o.blocks.carved)
	}
	requireSameClient(t, src, o)
}

// TestImageBuffersSurviveGC pins that the pool keeps its image buffers across
// garbage collections: an epoch's evictions take a buffer per bucket of their
// paths and the boundary recycles them, and with the GC run twice between
// epochs (enough to empty a sync.Pool, primary and victim cache) every buffer
// a warm epoch takes is one an earlier epoch recycled. A smaller heap
// collects more often, so a pool that drops its buffers at a collection
// costs allocations per epoch.
func TestImageBuffersSurviveGC(t *testing.T) {
	o, err := New(cryptoutil.KeyFromSeed([]byte("images")), testParams(64))
	must(t, err)
	images := make([]BucketImage, 0, 4*(o.geo.Levels+1))
	warm := map[*imageBuf]bool{}
	for e := 0; e <= 5; e++ {
		if e > 0 {
			runtime.GC()
			runtime.GC()
		}
		for b := 0; b < cap(images); b++ {
			images = append(images, o.newImage(b%o.geo.NumBuckets, 2, o.m.Seed(b%o.geo.NumBuckets)))
		}
		fresh := 0
		for i := range images {
			if e == 0 {
				warm[images[i].buf] = true
			} else if !warm[images[i].buf] {
				fresh++
			}
			images[i].Recycle()
		}
		images = images[:0]
		if fresh > 0 {
			t.Fatalf("warm epoch %d after two collections: %d of its %d image buffers newly allocated, want 0", e, fresh, cap(images))
		}
	}
}
