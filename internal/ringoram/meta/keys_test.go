package meta

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
// and the keys of the blocks eviction placements name share their bytes with
// m.keys[i].name (bucket addrs hold table indices, no string), no table name
// aliases the buffer, and a pooled stash entry holds nothing. A machine
// restored from a full and a delta image holds the same.
func TestStashKeysAreTableOwned(t *testing.T) {
	p := testParams(64)
	p.Seed = 7
	m, err := New(p, values{})
	must(t, err)
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
	var steps []*Plan
	for i := 0; i < 600; i++ {
		k := carve(fmt.Sprintf("k%d", rng.IntN(40)))
		switch rng.IntN(4) {
		case 0, 1, 2:
			steps, err = m.PlanWrite(k, []byte("v"), false, steps[:0])
		default:
			steps, err = m.PlanRead(k, steps[:0])
		}
		must(t, err)
		complete(t, m, steps)
		if i == 300 {
			full, err = m.EncodeCheckpoint(true, CheckpointPad{}, 0, 0)
			must(t, err)
			m.ClearDirty()
		}
	}
	if len(m.entryPool) == 0 {
		t.Fatal("no eviction pooled a stash entry: the workload checks nothing")
	}
	requireTableOwned(t, m, scratch)
	delta, err := m.EncodeCheckpoint(false, CheckpointPad{}, 0, 0)
	must(t, err)
	restored, err := Restore(p, values{}, full, delta)
	must(t, err)
	requireTableOwned(t, restored, scratch)
}

// requireTableOwned fails unless every key string m keeps beyond a call is its
// key table's copy and no table name aliases scratch.
func requireTableOwned(t *testing.T, m *Machine, scratch []byte) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(scratch)))
	hi := lo + uintptr(cap(scratch))
	for i := range m.keys {
		if d := uintptr(unsafe.Pointer(unsafe.StringData(m.keys[i].name))); d >= lo && d < hi {
			t.Fatalf("key table entry %q aliases the caller's buffer", m.keys[i].name)
		}
	}
	owned := func(what, key string) {
		t.Helper()
		ki, ok := m.pos[key]
		if !ok {
			t.Fatalf("%s %q is not in the key table", what, key)
		}
		if unsafe.StringData(key) != unsafe.StringData(m.keys[ki].name) {
			t.Fatalf("%s %q is not the key table's string", what, key)
		}
	}
	for k := range m.pos {
		owned("index map key", k)
	}
	for k, e := range m.stash {
		owned("stash map key", k)
		owned("stash entry", e.key)
	}
	for _, ep := range slices.Concat(m.planPool[:]...) {
		if ep.Key != "" {
			t.Fatalf("pooled plan still holds key %q", ep.Key)
		}
		for _, w := range ep.writes {
			for _, b := range w.Placed {
				if key := m.Key(b); key != "" { // "" once the completion retired the entry
					owned("placement", key)
				}
			}
		}
	}
	for _, e := range m.entryPool {
		if e.key != "" || m.entries[e.blk] != e {
			t.Fatalf("pooled stash entry still holds key %q, or is not its handle's entry", e.key)
		}
	}
}
