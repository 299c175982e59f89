package ringoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"obladi/internal/cryptoutil"
)

// TestValuePathAllocBudget pins what a value costs inside the ORAM once the
// stash is warm: a write copies into the stash's recycled arena (nothing),
// and a read's result is carved, sixteen 256-byte values to a chunk.
func TestValuePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := testParams(256)
	p.KeySize, p.ValueSize = 16, 256
	o, err := New(newMapStore(), cryptoutil.KeyFromSeed([]byte("budget")), p, 0)
	must(t, err)
	keys := make([]string, 16)
	value := make([]byte, p.ValueSize)
	write := func() {
		for _, k := range keys {
			if err := o.PlanWrite(k, value, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func() {
		for _, k := range keys {
			plan, _, err := o.PlanRead(k)
			if err != nil || !plan.Cached() {
				t.Fatalf("read of %s: cached=%v err=%v, want a stash hit", k, plan.Cached(), err)
			}
			if v, found, err := o.CompleteAccess(plan, nil); err != nil || !found || len(v) != len(value) {
				t.Fatalf("read of %s: %d bytes, found=%v, err=%v", k, len(v), found, err)
			}
		}
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	write()
	read()
	if allocs := testing.AllocsPerRun(50, write); allocs != 0 {
		t.Errorf("%.2f allocations per %d writes, want 0: PlanWrite copies outside the stash arena again", allocs, len(keys))
	}
	if allocs := testing.AllocsPerRun(50, read) / float64(len(keys)); allocs > 1.0/16 {
		t.Errorf("%.3f allocations per returned value, budget 1/16: CompleteAccess allocates per value again", allocs)
	}
}

// TestReturnedValuesDoNotAlias keeps the values of 1 000 reads — served from
// the tree and from the stash — and overwrites each in full, then appends to
// each: no value, and nothing the ORAM still holds, may change with another.
func TestReturnedValuesDoNotAlias(t *testing.T) {
	p := testParams(128)
	p.ValueSize = 64
	seq, _ := newTestSeq(t, p)
	rng := rand.New(rand.NewPCG(9, 10))
	model := map[string][]byte{}
	var kept, want [][]byte
	for len(kept) < 1000 {
		key := fmt.Sprintf("k%d", rng.IntN(64))
		if rng.IntN(3) == 0 {
			v := bytes.Repeat([]byte{byte(rng.IntN(256))}, 1+rng.IntN(p.ValueSize))
			must(t, seq.Write(key, v))
			model[key] = v
			continue
		}
		v, found, err := seq.Read(key)
		must(t, err)
		if found != (model[key] != nil) || !bytes.Equal(v, model[key]) {
			t.Fatalf("read %s = %q, want %q", key, v, model[key])
		}
		if found {
			kept, want = append(kept, v), append(want, bytes.Clone(v))
		}
	}
	overwriteThenAppend(t, kept, want)
	for key, v := range model {
		got, _, err := seq.Read(key)
		must(t, err)
		if !bytes.Equal(got, v) {
			t.Fatalf("after the callers' writes the ORAM reads %s = %q, want %q", key, got, v)
		}
	}
}

// overwriteThenAppend overwrites every kept value in full with a pattern of
// its own, then appends to each, and checks every value holds its pattern:
// two values sharing bytes, or an append reaching a neighbour, shows as a
// value holding another's pattern. want is updated to the patterns.
func overwriteThenAppend(t *testing.T, kept, want [][]byte) {
	t.Helper()
	for i, v := range kept {
		if cap(v) != len(v) {
			t.Fatalf("value %d has capacity %d past its %d bytes: an append would reach a neighbour", i, cap(v), len(v))
		}
		var pat [2]byte
		binary.BigEndian.PutUint16(pat[:], uint16(i))
		for j := range v {
			v[j] = pat[j%2]
		}
		want[i] = bytes.Clone(v)
	}
	for i := range kept {
		_ = append(kept[i], 0xee, 0xee)
	}
	for i, v := range kept {
		if !bytes.Equal(v, want[i]) {
			t.Fatalf("value %d = %x after the writes, want %x", i, v, want[i])
		}
	}
}
