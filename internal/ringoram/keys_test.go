package ringoram

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// TestStashKeysAreTableOwned drives writes, deletes and reads through keys that
// alias one scratch buffer, the way a wire server's carved keys alias the
// chunk they were carved from, then checks that everything long-lived holds
// the key table's own copy instead: the index and stash maps, stash entries
// and eviction placements share their bytes with o.keys[i].name (bucket
// addrs hold table indices, no string), no table name aliases the buffer, and
// a pooled stash entry holds nothing. A client restored from a full and a delta image holds the
// same.
func TestStashKeysAreTableOwned(t *testing.T) {
	p := testParams(64)
	p.Seed = 7
	seq, _ := newTestSeq(t, p)
	o := seq.ORAM()
	scratch := make([]byte, 0, 1<<14)
	carve := func(key string) string {
		if len(scratch)+len(key) > cap(scratch) {
			t.Fatal("scratch buffer full")
		}
		start := len(scratch)
		scratch = append(scratch, key...)
		return unsafe.String(&scratch[start], len(key))
	}
	rng := rand.New(rand.NewPCG(7, 8))
	var full []byte
	for i := 0; i < 600; i++ {
		k := carve(fmt.Sprintf("k%d", rng.IntN(40)))
		switch rng.IntN(4) {
		case 0, 1:
			must(t, seq.Write(k, []byte(fmt.Sprintf("v%d", i))))
		case 2:
			must(t, seq.Delete(k))
		default:
			if _, _, err := seq.Read(k); err != nil {
				t.Fatal(err)
			}
		}
		if i == 300 {
			full = image(t, o, true)
			o.ClearDirty()
		}
	}
	if len(o.entryPool) == 0 {
		t.Fatal("no eviction pooled a stash entry: the workload checks nothing")
	}
	requireTableOwned(t, o, scratch)
	requireTableOwned(t, restoreFrom(t, o, full, image(t, o, false)), scratch)
}

// requireTableOwned fails unless every key string o keeps beyond a call is its
// key table's copy and no table name aliases scratch.
func requireTableOwned(t *testing.T, o *ORAM, scratch []byte) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(scratch)))
	hi := lo + uintptr(cap(scratch))
	for i := range o.keys {
		if d := uintptr(unsafe.Pointer(unsafe.StringData(o.keys[i].name))); d >= lo && d < hi {
			t.Fatalf("key table entry %q aliases the caller's buffer", o.keys[i].name)
		}
	}
	owned := func(what, key string) {
		t.Helper()
		ki, ok := o.pos[key]
		if !ok {
			t.Fatalf("%s %q is not in the key table", what, key)
		}
		if unsafe.StringData(key) != unsafe.StringData(o.keys[ki].name) {
			t.Fatalf("%s %q is not the key table's string", what, key)
		}
	}
	for k := range o.pos {
		owned("index map key", k)
	}
	for k, e := range o.stash {
		owned("stash map key", k)
		owned("stash entry", e.key)
	}
	for _, ep := range slices.Concat(o.planPool[:]...) {
		if ep.Key != "" {
			t.Fatalf("pooled plan still holds key %q", ep.Key)
		}
		for _, pb := range ep.writes {
			for _, e := range pb.placed {
				if e.key != "" { // "" once the completion retired the entry
					owned("placement", e.key)
				}
			}
		}
	}
	for _, e := range o.entryPool {
		if e.key != "" || e.slot != nil {
			t.Fatalf("pooled stash entry still holds key %q and a slot of %d bytes", e.key, len(e.slot))
		}
	}
}
