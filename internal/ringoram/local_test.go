package ringoram

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// checkOwnership fails unless every block slot o's pool has handed out is
// held exactly once: by a stash entry, by a version the local-version table
// holds (a bucket's current or newest version, or its sealed one), or by the
// pool's free list. A slot held twice is a double Recycle or a slot still
// read after it went back; a slot held nowhere is a leak. An image may be
// both the current and the sealed version of the one bucket it belongs to,
// and nothing else. A resident bucket holds at most Z blocks. Call it at an
// epoch boundary (see checkSettled).
func checkOwnership(t *testing.T, o *ORAM, when string) {
	t.Helper()
	checkSettled(t, o, when)
	held := make(map[*byte]string)
	hold := func(s []byte, by string) {
		if prev, dup := held[&s[0]]; dup {
			t.Fatalf("%s: a block slot is held by %s and by %s", when, prev, by)
		}
		held[&s[0]] = by
	}
	for b, s := range o.slots {
		if s != nil {
			hold(s, "stash entry "+o.m.Key(meta.Block(b)))
		}
	}
	for _, im := range heldImages(t, o, when) {
		for _, s := range im.Blocks {
			hold(s, fmt.Sprintf("bucket %d version %d", im.Bucket, im.Ver))
		}
	}
	for b := range o.m.Resident() {
		if n := len(o.localCur(b).Blocks); n > o.p.Z {
			t.Fatalf("%s: resident bucket %d holds %d blocks, the bound is Z = %d", when, b, n, o.p.Z)
		}
	}
	o.blocks.mu.Lock()
	for _, s := range o.blocks.free {
		hold(s, "the free list")
	}
	carved := o.blocks.carved
	o.blocks.mu.Unlock()
	if len(held) != carved {
		t.Fatalf("%s: the pool handed out %d slots, %d are held: %d leaked", when, carved, len(held), carved-len(held))
	}
}

// heldImages returns the image o files under each handle its machine holds,
// a bucket's current or sealed version, and fails unless the two agree: every
// held handle has an image of its bucket, one no other handle names (none
// missing), and no other handle has one (none leaked).
func heldImages(t *testing.T, o *ORAM, when string) map[meta.Image]BucketImage {
	t.Helper()
	images := make(map[meta.Image]BucketImage)
	owner := make(map[*imageBuf]meta.Image)
	for b := range o.geo.NumBuckets {
		for _, h := range localHandles(o.m, b) {
			im := *o.image(h)
			switch prev, shared := owner[im.buf]; {
			case im.buf == nil || im.Bucket != b:
				t.Fatalf("%s: the machine keeps bucket %d under handle %d, which files no image of it", when, b, h)
			case shared && prev != h:
				t.Fatalf("%s: one image is filed under handles %d and %d", when, prev, h)
			}
			images[h], owner[im.buf] = im, h
		}
	}
	for h, im := range o.images {
		if _, ok := images[meta.Image(h)]; im.buf != nil && !ok {
			t.Fatalf("%s: an image of bucket %d version %d is filed under handle %d, which the machine does not hold", when, im.Bucket, im.Ver, h)
		}
	}
	return images
}

// checkSettled fails unless, at an epoch boundary, no bucket below the
// resident levels has a current version: the table keeps such a version only
// from the eviction that claims the bucket to its epoch's write-back, and
// then, sealed, until the next seal.
func checkSettled(t *testing.T, o *ORAM, when string) {
	t.Helper()
	for b := o.m.Resident(); b < o.geo.NumBuckets; b++ {
		if cur, _ := o.m.Local(b); cur != 0 {
			t.Fatalf("%s: bucket %d, below the resident levels, keeps a current version past the epoch's boundary", when, b)
		}
	}
}

// localHandles returns the handles of bucket b's current and sealed versions
// that m holds: the one handle twice when it is both.
func localHandles(m *meta.Machine, b int) []meta.Image {
	cur, sealed := m.Local(b)
	return slices.DeleteFunc([]meta.Image{cur, sealed}, func(h meta.Image) bool { return h == 0 })
}

// TestLocalTableOwnsEachSlotOnce runs 48 seeded epochs of a mixed workload
// with the local-version table on — early reshuffles and evict paths that
// rewrite the top several times an epoch, so a resident bucket's newest
// version is superseded while the sealed set still holds it — ending epochs
// alternately by SealLocal and FlushLocal, reloading the resident levels in
// place twice, and once rolling back: the metadata restored from an earlier
// checkpoint, the store back at that epoch, and the resident levels loaded.
// After every boundary and every load each block slot the pool handed out
// must be held exactly once (see checkOwnership).
func TestLocalTableOwnsEachSlotOnce(t *testing.T) {
	// Four resident levels: the deepest is rewritten once in eight evictions,
	// so its newest version is often also the sealed one when a seal retires
	// the set.
	p := testParams(256)
	key := cryptoutil.KeyFromSeed([]byte("owner"))
	o, err := New(key, p)
	must(t, err)
	o.m.KeepLocal()
	c := newPlaneClient(t, o, 11)
	var full []byte
	var stored map[int][][]byte
	var oracle map[string][]byte
	reloads, rolledBack := 0, false
	for epoch := 1; epoch <= 48; epoch++ {
		for i := 0; i < 12; i++ {
			c.step(epoch*100 + i)
		}
		c.endEpoch()
		checkOwnership(t, c.oram, fmt.Sprintf("epoch %d", epoch))
		switch epoch {
		case 12, 27:
			c.load(c.oram)
			reloads++
			checkOwnership(t, c.oram, fmt.Sprintf("epoch %d, reloaded", epoch))
		case 20:
			full = image(t, c.oram, true)
			stored, oracle = maps.Clone(c.stored), maps.Clone(c.oracle)
		case 33:
			c.oram, err = Restore(key, p, full)
			must(t, err)
			c.stored, c.oracle = stored, oracle
			c.oram.m.KeepLocal()
			c.load(nil) // the replaced versions are newer than the rolled-back state
			rolledBack = true
			checkOwnership(t, c.oram, fmt.Sprintf("epoch %d, rolled back to epoch 20", epoch))
		}
	}
	if !rolledBack || reloads != 2 || c.reshuffles == 0 || c.evictions <= 2*c.epochs {
		t.Fatalf("the workload missed a path: rolled back %v, %d reloads, %d reshuffles, %d evictions in %d epochs", rolledBack, reloads, c.reshuffles, c.evictions, c.epochs)
	}
	if !slices.ContainsFunc(c.oram.images[1:], func(im BucketImage) bool { return im.resident && len(im.Blocks) > 0 }) {
		t.Fatal("no block is resident after 48 epochs")
	}
	t.Logf("%d epochs: %d evictions, %d early reshuffles, %d local and %d remote deliveries", c.epochs, c.evictions, c.reshuffles, c.local, c.remote)
}

// olderSlotFrames are slot frames as older builds sealed them, each for slot
// s of version ver of bucket b. The build before seeded slots sealed a
// SchemeGCM frame with its own random nonce, over a plaintext whose length
// fields were two and four bytes wide, under the slot's own binding. The
// build before this frame layout sealed a scheme-3 frame under the version's
// seed, over a plaintext that held the block's key: 17 bytes longer at
// 16-byte keys.
var olderSlotFrames = []struct {
	name  string
	frame func(t *testing.T, o *ORAM, b int, ver uint64, s int) []byte
}{
	{"nonce-carrying", func(t *testing.T, o *ORAM, b int, ver uint64, _ int) []byte {
		frame, err := o.cdc.key.Seal(make([]byte, 1+2+o.p.KeySize+4+o.p.ValueSize), cryptoutil.Binding(uint64(b), ver, 0))
		must(t, err)
		return frame
	}},
	{"key-carrying", func(t *testing.T, o *ORAM, b int, ver uint64, s int) []byte {
		frame := make([]byte, o.cdc.plainSize()+cryptoutil.SlotOverhead)
		must(t, o.cdc.key.SealSlot(frame, cryptoutil.Seed(o.m.Seed(b)), s, cryptoutil.Binding(uint64(b), ver, 0), nil, new(cryptoutil.SlotScratch)))
		frame[0] = byte(cryptoutil.SchemeKeyedSlot)
		return frame
	}},
}

// refusedAsOlder fails unless err is cryptoutil.ErrScheme, and neither
// ErrCorrupt nor cryptoutil.ErrAuth: storage an older build wrote is refused
// as such, not as tampering.
func refusedAsOlder(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, cryptoutil.ErrScheme) || errors.Is(err, ErrCorrupt) || errors.Is(err, cryptoutil.ErrAuth) {
		t.Fatalf("%s of an older build's slot frame: %v, want ErrScheme alone", what, err)
	}
}

// TestOlderSlotSchemeRefused: a slot frame of an older build — the
// SchemeGCM-led one of the build before seeded slots, and the scheme-3 one of
// the build whose frames carried their key, each of a length this build
// never writes — fails a remote read's delivery and a load of the resident
// levels with cryptoutil.ErrScheme, not as a corrupt slot: the scheme byte
// is checked before the length.
func TestOlderSlotSchemeRefused(t *testing.T) {
	p := testParams(256)
	key := cryptoutil.KeyFromSeed([]byte("test")) // newTestSeq's
	t.Run("Deliver", func(t *testing.T) {
		for _, older := range olderSlotFrames {
			t.Run(older.name, func(t *testing.T) {
				seq, store := newTestSeq(t, p)
				o := seq.ORAM()
				for i := 0; i < 64; i++ {
					must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
				}
				for i := 0; i < 64; i++ {
					steps, err := o.m.PlanRead(fmt.Sprintf("k%d", i), nil)
					must(t, err)
					target := slices.IndexFunc(steps[0].Reads, func(r meta.SlotRead) bool { return r.Block() != 0 })
					if target < 0 {
						_, _, err = seq.run(steps)
						must(t, err)
						continue
					}
					data := make([][]byte, len(steps[0].Reads))
					for j, r := range steps[0].Reads {
						d, err := store.ReadSlots([]storage.SlotRef{{Bucket: r.Bucket, Slot: r.Slot}})
						must(t, err)
						data[j] = d[0]
					}
					r := steps[0].Reads[target]
					data[target] = older.frame(t, o, r.Bucket, r.Ver, r.Slot)
					_, _, _, err = o.Complete(steps[0], data, nil)
					refusedAsOlder(t, "a remote read", err)
					return
				}
				t.Fatal("no key was read from the tree")
			})
		}
	})
	t.Run("LoadLocal", func(t *testing.T) {
		for _, older := range olderSlotFrames {
			t.Run(older.name, func(t *testing.T) {
				o, err := New(key, p)
				must(t, err)
				o.m.KeepLocal()
				c := newPlaneClient(t, o, 5)
				for epoch := 1; epoch <= 8; epoch++ {
					for i := 0; i < 12; i++ {
						c.step(epoch*100 + i)
					}
					c.endEpoch()
				}
				var data [][]byte
				old := -1
				for b := range o.m.Resident() {
					ver, perm, placed := o.m.Holds(b, nil)
					at := len(data)
					data = append(data, slices.Clone(c.stored[b][:p.Z])...)
					if old < 0 && len(placed) > 0 {
						old = at + placed[0]
						data[old] = older.frame(t, o, b, ver, int(perm[placed[0]]))
					}
				}
				if old < 0 {
					t.Fatal("no block is resident after 8 epochs")
				}
				refusedAsOlder(t, "a load", o.LoadLocal(data))
			})
		}
	})
}
