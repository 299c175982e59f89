package ringoram

import (
	"errors"
	"slices"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// TestRecycledBufferFailsAuthentication: in race builds both kinds of buffer
// a bucket version passes through are poisoned when they go back for reuse,
// so a read through a stale reference fails loudly instead of passing with
// the bytes the buffer held. A recycled image's block, served from the
// local-version table, fails to decode (0xdb is no slot kind); a slot of a
// reset seal arena fails authentication.
func TestRecycledBufferFailsAuthentication(t *testing.T) {
	if !raceEnabled {
		t.Skip("Recycle and Reset poison buffers in race builds only")
	}
	// evicted writes k into a fresh ORAM and evicts it into the tree,
	// returning the images of the eviction's bucket versions.
	evicted := func(t *testing.T) (*ORAM, []BucketImage) {
		o, err := New(cryptoutil.KeyFromSeed([]byte("poison")), testParams(16))
		must(t, err)
		_, err = o.m.PlanWrite("k", []byte("v"), false, nil)
		must(t, err)
		return o, completeAll(t, o, evictNow(t, o))
	}

	t.Run("seal arena", func(t *testing.T) {
		o, images := evicted(t)
		var a SealArena
		for _, im := range images {
			if len(im.Blocks) == 0 {
				continue
			}
			slots, err := o.SealImage(im, &a)
			must(t, err)
			open := func() error {
				_, _, err := o.cdc.decodeSlot(slots[im.Real()[0]], im.Seed, int(im.Real()[0]), o.binding(uint64(im.Bucket), im.Ver), "k")
				return err
			}
			if err := open(); err != nil {
				t.Fatalf("a sealed slot does not open: %v", err)
			}
			a.Reset()
			if err := open(); err == nil {
				t.Fatal("a slot of a reset arena still opens: the arena was not poisoned")
			}
			return
		}
		t.Fatal("no image holds the evicted block")
	})

	t.Run("image", func(t *testing.T) {
		o, err := New(cryptoutil.KeyFromSeed([]byte("poison")), testParams(16))
		must(t, err)
		o.m.KeepLocal()
		_, err = o.m.PlanWrite("k", []byte("v"), false, nil)
		must(t, err)
		steps := evictNow(t, o)
		buckets := slices.Clone(steps[len(steps)-1].Buckets)
		completeAll(t, o, steps)
		steps, err = o.m.PlanRead("k", nil)
		must(t, err)
		plan := steps[0]
		target := slices.IndexFunc(plan.Reads, func(r meta.SlotRead) bool { return r.Block() != 0 })
		if target < 0 || !plan.Reads[target].Local() {
			t.Fatal("the evicted block is not read from the table")
		}
		if kind, _, err := o.cdc.parse(mustServe(t, o, plan.Reads[target])); err != nil || kind != slotReal {
			t.Fatalf("the table's block does not decode: kind %d, %v", kind, err)
		}
		// Recycle the eviction's images behind the table's back: the table
		// still names them, and a read served from one must fail.
		for _, b := range buckets {
			im := o.localCur(b)
			im.Recycle()
		}
		if _, _, _, err := o.Complete(plan, make([][]byte, len(plan.Reads)), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a block of a recycled image read locally: %v, want ErrCorrupt (the image was not poisoned)", err)
		}
	})
}

// mustServe is the table's plaintext for a local read that carries a block.
func mustServe(t *testing.T, o *ORAM, r meta.SlotRead) []byte {
	t.Helper()
	plain := o.image(r.Image()).Block(r.Slot)
	if plain == nil {
		t.Fatalf("bucket %d slot %d holds no block in the table", r.Bucket, r.Slot)
	}
	return plain
}
