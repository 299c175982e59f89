package meta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// stateDigest hashes everything a checkpoint carries of m, with the stash's
// values from its plane: the counters; the key table in order, each key with
// its leaf and, while resident, its bucket and position; every bucket's bitset
// words, permutation, version, slot count, seed and resident key indices; and
// the stash in order, each entry with its leaf, flags and value. Block handles,
// dirty marks and the stash peak are process-local and left out.
func stateDigest(t testing.TB, m *Machine) string {
	t.Helper()
	h := sha256.New()
	u := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.BigEndian.AppendUint64(nil, v))
		}
	}
	str := func(s string) {
		u(uint64(len(s)))
		h.Write([]byte(s))
	}
	u(m.accessCount, m.evictCount, uint64(m.keys.len()))
	for _, k := range m.keyRows() {
		str(k.name)
		u(uint64(k.leaf), uint64(k.bucket))
		if k.bucket >= 0 {
			u(uint64(k.rpos))
		}
	}
	for b := range m.buckets {
		bm := m.bucket(b)
		u(bm.valid...)
		u(bm.filler...)
		u(bm.occ...)
		for _, s := range bm.perm {
			u(uint64(s))
		}
		u(bm.writeVer, uint64(bm.count()))
		h.Write(bm.seed[:])
		for _, ki := range bm.addrs {
			u(uint64(ki))
		}
	}
	u(uint64(len(m.stashList)))
	for _, e := range m.stashList {
		v, tombstone, err := m.plane.Value(e.blk, e.key)
		must(t, err)
		str(e.key)
		str(string(v))
		u(uint64(e.leaf), uint64(e.ki))
		for _, f := range []bool{e.cacheable, tombstone} {
			if f {
				u(1)
			} else {
				u(0)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRestoredStateDigest: a seeded run checkpointed as a full image and four
// padded deltas restores to exactly the live machine's state, and that state
// is pinned, so a format change that loses or reorders anything the images
// carry fails here, not only against itself. The digests were re-taken when
// images went to format 4 and the digest took in each version's seed (the
// test plane's, a function of bucket and version); with the seeds left out
// they are still the digests pinned before checkpoints named keys by their
// table index. The wide case (Z=25,
// S=40, 300 keys) has two-word bitsets and a key table past one byte.
func TestRestoredStateDigest(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       Params
		numKeys int
		want    string
	}{
		{"Z=4,S=6", testParams(0), 64, "e8471bf607002f4ce67ab88591ea46eb106735fda9652122218b5910117f5132"},
		{"Z=25,S=40", Params{Z: 25, S: 40, A: 25, KeySize: 16, ValueSize: 32}, 300,
			"6a9cdbcb3c516e2ad44d9040f5d319a18361b3201bdb12cc5fbde7584d8e4a81"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			p.NumBlocks, p.Seed = c.numKeys, 17
			m, err := New(p, values{})
			must(t, err)
			rng := rand.New(rand.NewPCG(17, 18))
			var steps []*Plan
			run := func(ops int) {
				for i := 0; i < ops; i++ {
					k := fmt.Sprintf("key-%d", rng.IntN(c.numKeys))
					switch op := rng.IntN(10); {
					case op < 5:
						v := []byte(fmt.Sprintf("%s@%d", k, rng.IntN(1000)))
						steps, err = m.PlanWrite(k, v, op == 0, steps[:0])
					case op < 9:
						steps, err = m.PlanRead(k, steps[:0])
					default:
						steps, err = m.PlanRead("", steps[:0])
					}
					must(t, err)
					complete(t, m, steps)
				}
			}
			pad := CheckpointPad{PosEntries: 48, StashEntries: m.p.StashLimit, ValueSize: 8}
			run(6 * c.numKeys)
			full, err := m.EncodeCheckpoint(nil, true, pad, 0, 0)
			must(t, err)
			m.ClearDirty()
			var deltas [][]byte
			for range 4 {
				run(40)
				delta, err := m.EncodeCheckpoint(nil, false, pad, 0, 0)
				must(t, err)
				m.ClearDirty()
				deltas = append(deltas, delta)
			}
			restored, err := Restore(m.p, values{}, full, deltas...)
			must(t, err)
			live, got := stateDigest(t, m), stateDigest(t, restored)
			if got != live {
				t.Fatalf("restored state digest %s, live %s", got, live)
			}
			if got != c.want {
				t.Errorf("restored state digest %s, pinned %s", got, c.want)
			}
		})
	}
}

// TestCheckpointWidthBoundaries round-trips a full image and a delta on each
// side of the points where a sized field grows a byte: a key index, which
// holds NumBlocks, at 255/256 and 65 535/65 536 blocks with the key table
// filled to the last index, and a tree of 2¹⁶ leaves, whose leaf field is
// still two bytes and whose bucket field (131 071 buckets and the all-ones
// "not in the tree") is three. The delta writes the newest keys again, so
// it names their indices, the largest, in the stash or in the buckets the
// evictions rewrote.
func TestCheckpointWidthBoundaries(t *testing.T) {
	for _, c := range []struct {
		p                   Params
		keys                int
		index, leaf, bucket width
	}{
		{Params{NumBlocks: 255, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 8}, 255, 1, 1, 1},
		{Params{NumBlocks: 256, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 8}, 256, 2, 1, 1},
		{Params{NumBlocks: 65535, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 8}, 65535, 2, 2, 2},
		{Params{NumBlocks: 65536, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 8}, 65536, 3, 2, 2},
		{Params{NumBlocks: 4<<15 + 1, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 8}, 2000, 3, 2, 3},
	} {
		t.Run(fmt.Sprintf("NumBlocks=%d", c.p.NumBlocks), func(t *testing.T) {
			p := c.p
			p.Seed = 5
			m, err := New(p, values{})
			must(t, err)
			if l := m.imageLayout(); l.index != c.index || l.leaf != c.leaf || l.bucket != c.bucket {
				t.Fatalf("%d leaves, %d buckets: index, leaf and bucket fields %d, %d, %d bytes; want %d, %d, %d",
					m.geo.Leaves, m.geo.NumBuckets, l.index, l.leaf, l.bucket, c.index, c.leaf, c.bucket)
			}
			var steps []*Plan
			write := func(k string, v int) {
				steps, err = m.PlanWrite(k, []byte(fmt.Sprint(v)), false, steps[:0])
				must(t, err)
				complete(t, m, steps)
			}
			for i := range c.keys {
				write(fmt.Sprintf("key-%d", i), i)
			}
			pad := CheckpointPad{PosEntries: 16, StashEntries: m.p.StashLimit, ValueSize: 8}
			full, err := m.EncodeCheckpoint(nil, true, pad, 0, 0)
			must(t, err)
			m.ClearDirty()
			for i := range 8 {
				write(fmt.Sprintf("key-%d", c.keys-1-i), -i)
			}
			delta, err := m.EncodeCheckpoint(nil, false, pad, 0, 0)
			must(t, err)
			newest := m.keyRow(int32(c.keys - 1))
			if _, stashed := m.stash[int32(c.keys-1)]; !stashed && m.bucketDirty[newest.bucket] != bucketRewritten {
				t.Fatalf("the delta names %q neither in the stash nor in a rewritten bucket", newest.name)
			}
			restored, err := Restore(m.p, values{}, full, delta)
			must(t, err)
			if live, got := stateDigest(t, m), stateDigest(t, restored); got != live {
				t.Fatalf("restored state digest %s, live %s", got, live)
			}
		})
	}
}

// TestRestoreRefusesKeyIndexPastTable: Restore refuses an image naming a key
// by an index past the key table — a delta's rewritten bucket, a delta's
// stash and a full image's stash — before it indexes the table. The images
// are a live machine's, each with one index field set to the largest value
// its width holds: the table holds at most NumBlocks keys.
func TestRestoreRefusesKeyIndexPastTable(t *testing.T) {
	m := runWorkload(t, testParams(0), 5, 64, 400)
	pad := CheckpointPad{PosEntries: 8, StashEntries: m.p.StashLimit}
	full, err := m.EncodeCheckpoint(nil, true, pad, 0, 0)
	must(t, err)
	m.ClearDirty()
	for i := 0; i < 40; i++ {
		steps, err := m.PlanRead(fmt.Sprintf("key-%d", i), nil)
		must(t, err)
		complete(t, m, steps)
	}
	delta, err := m.EncodeCheckpoint(nil, false, pad, 0, 0)
	must(t, err)
	_, err = Restore(m.p, values{}, full, delta)
	must(t, err)

	l := m.imageLayout()
	h, err := readImageHeader(delta)
	must(t, err)
	if h.nRewritten == 0 {
		t.Fatal("the delta rewrote no bucket")
	}
	// The first rewritten bucket's resident key indices end its entry.
	bucketAt := imageHeaderSize + h.nKeys*l.keyEntry(false) + h.nTouched*l.touchedEntry() + l.rewrittenEntry(false) - l.z*int(l.index)
	// The last stash entry is padding: its index leads a header and no value.
	stashAt := func(img []byte) int { return len(img) - l.stashHeader() }
	pastTable := func(img []byte, at int) []byte {
		out := bytes.Clone(img)
		l.index.put(out[at:], l.index.ones())
		return out
	}
	for _, c := range []struct {
		name   string
		images [][]byte // a full image, then deltas
	}{
		{"delta bucket", [][]byte{full, pastTable(delta, bucketAt)}},
		{"delta stash", [][]byte{full, pastTable(delta, stashAt(delta))}},
		{"full stash", [][]byte{pastTable(full, stashAt(full))}},
	} {
		if _, err := Restore(m.p, values{}, c.images[0], c.images[1:]...); err == nil || !strings.Contains(err.Error(), "names key index") {
			t.Errorf("%s naming a key past the table: %v", c.name, err)
		}
	}
}

// TestRestoreRefusesKeyInReadSlot: Restore refuses a full image that places a
// key at a position whose slot its valid bitmap says was read, instead of
// restoring a client whose first read of the key would refuse.
func TestRestoreRefusesKeyInReadSlot(t *testing.T) {
	m := runWorkload(t, testParams(0), 5, 64, 400)
	rows := m.keyRows()
	k := rows[slices.IndexFunc(rows, func(k keyRow) bool { return k.bucket >= 0 })]
	bm := m.bucket(int(k.bucket))
	bm.valid.unset(int(bm.perm[k.rpos]))
	full, err := m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
	must(t, err)
	if _, err := Restore(m.p, values{}, full); err == nil || !strings.Contains(err.Error(), "whose slot was read") {
		t.Fatalf("Restore of %q at a read slot of bucket %d: %v, want a refusal", k.name, k.bucket, err)
	}
}

// TestRestoreAllocBudget bounds what restoring a full image of 2^16 keys
// allocates: the machine's tables, the key table's columns and index, sized
// once from the image's key count, and its arena's chunks (about 1 MiB of
// names, in chunks doubling from 1 KiB), none of them per key. A key is
// looked up by its bytes in the image, and only a new name is copied, into
// the arena. 35 allocations were measured, 40 under the race detector
// (whose build makes slices.Grow allocate twice).
func TestRestoreAllocBudget(t *testing.T) {
	const n, budget = 1 << 16, 45
	p := testParams(n)
	m, err := New(p, values{})
	must(t, err)
	key := []byte("key-000000000000")
	for i := range n {
		strconv.AppendInt(key[:4], int64(i)+1e11, 10)
		ki, err := m.keys.add(string(key))
		must(t, err)
		m.keys.leaf[ki] = int32(i % m.geo.Leaves)
	}
	full, err := m.EncodeCheckpoint(nil, true, CheckpointPad{}, 0, 0)
	must(t, err)
	var restored *Machine
	allocs := testing.AllocsPerRun(1, func() {
		restored, err = Restore(p, values{}, full)
	})
	must(t, err)
	t.Logf("restoring a full image of %d keys (%d bytes): %.0f allocations", n, len(full), allocs)
	if allocs > budget {
		t.Errorf("restoring %d keys took %.0f allocations, budget %d: a key costs an allocation", n, allocs, budget)
	}
	if !slices.Equal(restored.keyRows(), m.keyRows()) {
		t.Fatal("the restored key table differs from the encoded one")
	}
}
