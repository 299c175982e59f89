package meta

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"obladi/internal/allocgate"
)

// TestStashKeysAreTableOwned drives writes, deletes and reads through keys that
// alias one scratch buffer, the way a wire server's carved keys alias the
// chunk they were carved from, then checks that everything long-lived holds
// the key table's own copy instead: stash entries and the keys of the blocks
// eviction placements name share their bytes with their row's name (the
// index, the stash map and bucket addrs hold rows, no string), every name is
// a view of its arena chunk and none aliases the buffer, and a pooled stash
// entry holds nothing. It checks after every step that leaves the stash
// non-empty and at the end; a machine restored from a full and a delta image
// holds the same.
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
	stashed := 0 // checks made while the stash held entries
	for i := 0; i < 600; i++ {
		k := carve(fmt.Sprintf("k%d", rng.IntN(40)))
		switch rng.IntN(4) {
		case 0, 1, 2:
			steps, err = m.PlanWrite(k, []byte("v"), false, steps[:0])
		default:
			steps, err = m.PlanRead(k, steps[:0])
		}
		must(t, err)
		if len(m.stash) > 0 {
			stashed++
			requireTableOwned(t, m, scratch)
		}
		complete(t, m, steps)
		if i == 300 {
			full, err = m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
			must(t, err)
			m.ClearDirty()
		}
	}
	if len(m.entryPool) == 0 || stashed == 0 {
		t.Fatalf("%d stash entries pooled, %d checks of a non-empty stash: the workload checks nothing", len(m.entryPool), stashed)
	}
	requireTableOwned(t, m, scratch)
	delta, err := m.EncodeCheckpoint(nil, false, CheckpointPad{}, 0, 0)
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
	for i := range int32(m.keys.len()) {
		name, chunk := m.keys.name(i), m.keys.chunks[m.keys.off[i]>>chunkBits]
		if d := uintptr(unsafe.Pointer(unsafe.StringData(name))); d >= lo && d < hi {
			t.Fatalf("key table entry %q aliases the caller's buffer", name)
		}
		if d, c := unsafe.StringData(name), unsafe.StringData(chunk); uintptr(unsafe.Pointer(d)) < uintptr(unsafe.Pointer(c)) ||
			uintptr(unsafe.Pointer(d))+uintptr(len(name)) > uintptr(unsafe.Pointer(c))+uintptr(len(chunk)) {
			t.Fatalf("key table entry %q is not a view of its arena chunk", name)
		}
	}
	owned := func(what, key string) {
		t.Helper()
		ki, ok := m.keys.lookup(key)
		if !ok {
			t.Fatalf("%s %q is not in the key table", what, key)
		}
		if unsafe.StringData(key) != unsafe.StringData(m.keys.name(ki)) {
			t.Fatalf("%s %q is not the key table's string", what, key)
		}
	}
	for ki, e := range m.stash {
		if e.ki != ki {
			t.Fatalf("stash map files row %d's entry under row %d", e.ki, ki)
		}
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

// keyRow is a row of a machine's key table, as the tests read it.
type keyRow struct {
	name               string
	leaf, bucket, rpos int32
}

// keyRow returns row i of m's key table.
func (m *Machine) keyRow(i int32) keyRow {
	k := &m.keys
	return keyRow{k.name(i), k.leaf[i], k.bucket[i], int32(k.rpos[i])}
}

// keyRows lists m's key table in order.
func (m *Machine) keyRows() []keyRow {
	rows := make([]keyRow, m.keys.len())
	for i := range rows {
		rows[i] = m.keyRow(int32(i))
	}
	return rows
}

// keyRowOf returns the row of key, which m's key table holds.
func (m *Machine) keyRowOf(key string) keyRow {
	ki, ok := m.keys.lookup(key)
	if !ok {
		panic("meta test: key " + key + " has no row")
	}
	return m.keyRow(ki)
}

// FuzzKeyIndex drives a key table with inserts and lookups against a map
// oracle. Each operation is two input bytes: the first's low bit makes it a
// lookup, its next three bits a name's length, the name's bytes the next
// ones of the input over a four-letter alphabet, so names are short and
// repeat; the second byte, when the first's bit 4 is set, repeats the name
// that many times, so a few long names cross the arena's chunks. An insert
// of a name the table holds is a lookup. At the end every row must be in
// insertion order, read back its name and be found at its row, no chunk may
// pass maxChunk bytes, the last must be cur's contents, and the
// index must be a power of two at most three quarters full.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte("\x02a\x00\x01a\x00\x04ab\x00\x05ab\x00\x03a\x00"))
	f.Add([]byte("\x0eabcdefg\x00\x1eabcdefg\xff\x1fabcdefg\xff\x1eabcdeff\xff\x1eabcdefe\xff\x1eabcdefd\xff\x0dabcdefg\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kt := newKeyTable()
		oracle := make(map[string]int32)
		for len(data) >= 2 {
			op, reps := data[0], int(data[1])
			n := min(int(op>>1&7), len(data)-2)
			short := make([]byte, n)
			for i, c := range data[2 : 2+n] {
				short[i] = 'a' + c&3
			}
			data = data[2+n:]
			name := string(short)
			if op&0x10 != 0 {
				name = strings.Repeat(name, reps)
			}
			want, ok := oracle[name]
			got, found := kt.lookup(name)
			if found != ok || (ok && got != want) {
				t.Fatalf("lookup(%q) = %d, %v; oracle %d, %v", name, got, found, want, ok)
			}
			if op&1 != 0 || ok {
				continue
			}
			ki, err := kt.add(name)
			if err != nil {
				t.Fatal(err)
			}
			if int(ki) != len(oracle) {
				t.Fatalf("add(%q) = row %d, want %d", name, ki, len(oracle))
			}
			oracle[name] = ki
		}
		if kt.len() != len(oracle) {
			t.Fatalf("table holds %d rows, oracle %d", kt.len(), len(oracle))
		}
		for name, ki := range oracle {
			if got := kt.name(ki); got != name {
				t.Fatalf("row %d reads %q, want %q", ki, got, name)
			}
			if got, ok := kt.lookup(name); !ok || got != ki {
				t.Fatalf("lookup(%q) = %d, %v; want row %d", name, got, ok, ki)
			}
		}
		for i := 1; i < kt.len(); i++ {
			if kt.off[i]>>chunkBits < kt.off[i-1]>>chunkBits {
				t.Fatalf("row %d lies in chunk %d, before row %d's", i, kt.off[i]>>chunkBits, i-1)
			}
		}
		for c, s := range kt.chunks {
			if len(s) > maxChunk {
				t.Fatalf("chunk %d holds %d bytes", c, len(s))
			}
		}
		if c := len(kt.chunks) - 1; c >= 0 && (kt.chunks[c] != kt.cur.String() || kt.cur.Len() > kt.cur.Cap()) {
			t.Fatalf("the last chunk reads %d bytes, cur holds %d of %d", len(kt.chunks[c]), kt.cur.Len(), kt.cur.Cap())
		}
		if n := len(kt.index); n&(n-1) != 0 || 4*kt.len() > 3*n {
			t.Fatalf("index of %d slots for %d rows", n, kt.len())
		}
	})
}

// TestKeyFootprint pins what the key table spends per key: 2^20 keys of 16
// bytes, inserted into an empty table, must leave at most keyFootprintBound
// bytes of live heap per key — the name, the four columns and the index,
// with their slack — and take a number of allocations that grows with the
// chunks and the columns' doublings, not with the keys: no key is an object.
func TestKeyFootprint(t *testing.T) {
	const n, keyFootprintBound = 1 << 20, 42
	allocgate.OneP(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kt := newKeyTable()
	key := []byte("key-000000000000")
	for i := range n {
		strconv.AppendInt(key[:4], int64(i)+1e11, 10)
		if _, err := kt.add(string(key)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d keys of %d bytes: %.1f B per key live, %d allocations", n, len(key), perKey, after.Mallocs-before.Mallocs)
	if perKey > keyFootprintBound {
		t.Errorf("the key table takes %.1f B per key, bound %d", perKey, keyFootprintBound)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > n/64 {
		t.Errorf("%d inserts took %d allocations: a key is an object", n, allocs)
	}
	if ki, ok := kt.lookup("key-100000000000"); !ok || ki != 0 {
		t.Fatalf("the first key is row %d, %v", ki, ok)
	}
	runtime.KeepAlive(&kt)
}

// BenchmarkKeyTable measures the key table's insert rate into an empty table
// and its lookup rate in a full one, at 2^16 keys of 16 bytes.
func BenchmarkKeyTable(b *testing.B) {
	const n = 1 << 16
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d", i)
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			kt := newKeyTable()
			for _, k := range keys[:min(n, b.N-i)] {
				if _, err := kt.add(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		kt := newKeyTable()
		for _, k := range keys {
			if _, err := kt.add(k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if _, ok := kt.lookup(keys[i%n]); !ok {
				b.Fatal("key not found")
			}
		}
	})
}
