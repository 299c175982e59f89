package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// The fuzzers feed hostile plaintexts through the whole recovery path — seal,
// scan, open, inspect, decode, restore — as authentic records: the format's
// own length and count fields are the attack surface (a bug or a mismatched
// build writes them; the AEAD only says who did). Nothing may panic, and
// nothing may allocate out of proportion to the record: every count is
// checked against the bytes that remain before it sizes an allocation.

// fuzzSeedRecords runs a short real workload and returns the plaintext of
// every record it logged, by kind.
func fuzzSeedRecords(t testing.TB) (batches, checkpoints [][]byte) {
	h := newFormatHarness(t, 21, schedule{r: 1, bread: 8, bwrite: 8, cadence: 2})
	h.preload(12)
	for e := 0; e < 3; e++ {
		h.reads(0, formatKey(e), "", formatKey(e+4), formatKey(e+8))
		h.writes(1, []oramexec.WriteOp{{Key: formatKey(e), Value: []byte("x")}, {}, {Key: "fresh", Tombstone: true}, {}, {}})
		h.endEpoch()
	}
	recs, err := h.backend.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		plain, err := h.log.open(rec, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch rec[0] {
		case kindBatch:
			batches = append(batches, plain)
		case kindCheckpointCommitting: // the harness logs as the coordinator
			checkpoints = append(checkpoints, plain)
		}
	}
	return batches, checkpoints
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fieldWidth is the width of a checkpoint image field whose largest legal
// value is bound: the fewest bytes that hold it (meta/checkpoint.go).
func fieldWidth(bound int) int {
	w := 1
	for bound>>(8*w) != 0 {
		w++
	}
	return w
}

// putField writes v big-endian in the w bytes at the front of b.
func putField(b []byte, w, v int) {
	for i := w - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// fieldAt reads the big-endian field of w bytes at the front of b.
func fieldAt(b []byte, w int) int {
	v := 0
	for _, c := range b[:w] {
		v = v<<8 | int(c)
	}
	return v
}

// imageHeaderSize is a checkpoint image's fixed header; its four entry counts
// (u32 each) end it.
const imageHeaderSize = 47

// firstImages returns the plaintexts of the first full checkpoint record of
// checkpoints and of the delta that follows it.
func firstImages(t testing.TB, checkpoints [][]byte) (full, delta []byte) {
	for i, plain := range checkpoints[:len(checkpoints)-1] {
		fi, err := meta.InspectImage(plain[checkpointHeaderSize:])
		if err != nil || !fi.Full {
			continue
		}
		if di, err := meta.InspectImage(checkpoints[i+1][checkpointHeaderSize:]); err == nil && !di.Full {
			return plain, checkpoints[i+1]
		}
	}
	t.Fatal("no full checkpoint followed by a delta")
	return nil, nil
}

// offPathImage returns a copy of the plaintext of the first full checkpoint
// record of checkpoints that places a key below the root, with that key's
// leaf moved to one whose path misses the key's bucket. A full image's
// position-map entry is the key field (its length, then KeySize bytes), the
// leaf, the bucket and the position.
func offPathImage(t testing.TB, checkpoints [][]byte) []byte {
	geo := formatParams.Geometry()
	keyLen, leaf, bucketW := fieldWidth(formatParams.KeySize), fieldWidth(geo.Leaves-1), fieldWidth(geo.NumBuckets)
	field := keyLen + formatParams.KeySize
	for _, plain := range checkpoints {
		img := plain[checkpointHeaderSize:]
		if info, err := meta.InspectImage(img); err != nil || !info.Full {
			continue
		}
		for i := 0; i < 12; i++ {
			name := make([]byte, keyLen)
			putField(name, keyLen, len(formatKey(i)))
			at := bytes.Index(img, append(name, formatKey(i)...))
			if at < 0 {
				continue
			}
			if bucket := fieldAt(img[at+field+leaf:], bucketW); bucket > 0 && bucket < geo.NumBuckets {
				off := 0
				for geo.PathBucket(off, meta.BucketLevel(bucket)) == bucket {
					off++
				}
				out := bytes.Clone(plain)
				putField(out[checkpointHeaderSize+at+field:], leaf, off)
				return out
			}
		}
	}
	t.Fatal("no full checkpoint places a key below the root")
	return nil
}

// pastTableDelta returns a copy of a delta record's plaintext whose first
// rewritten bucket names, at its first real position, the largest key index
// the field holds: past the key table, which holds at most NumBlocks keys.
func pastTableDelta(t testing.TB, delta []byte) []byte {
	p, geo := formatParams, formatParams.Geometry()
	img := delta[checkpointHeaderSize:]
	be := binary.BigEndian
	nKeys, nTouched, nRewritten := int(be.Uint32(img[31:])), int(be.Uint32(img[35:])), int(be.Uint32(img[39:]))
	if nRewritten == 0 {
		t.Fatal("the delta rewrote no bucket")
	}
	keyEntry := fieldWidth(p.KeySize) + p.KeySize + fieldWidth(geo.Leaves-1)
	state := fieldWidth(geo.NumBuckets) + fieldWidth(geo.SlotsPer) + (geo.SlotsPer+7)/8
	at := imageHeaderSize + nKeys*keyEntry + nTouched*(state+(p.Z+7)/8) + state + 8 + geo.SlotsPer*fieldWidth(geo.SlotsPer-1)
	out := bytes.Clone(delta)
	index := fieldWidth(p.NumBlocks)
	putField(out[checkpointHeaderSize+at:], index, 1<<(8*index)-1)
	return out
}

// pastTableStash returns a copy of a checkpoint record's plaintext whose last
// stash entry, a padding entry carrying no value bytes, names the largest key
// index the field holds.
func pastTableStash(plain []byte) []byte {
	p, geo := formatParams, formatParams.Geometry()
	index := fieldWidth(p.NumBlocks)
	header := index + 1 + fieldWidth(geo.Leaves-1) + fieldWidth(p.ValueSize)
	out := bytes.Clone(plain)
	putField(out[len(out)-header:], index, 1<<(8*index)-1)
	return out
}

func FuzzDecodeCheckpoint(f *testing.F) {
	_, checkpoints := fuzzSeedRecords(f)
	for _, cp := range checkpoints {
		f.Add(cp, true)
		f.Add(cp, false)
	}
	key := cryptoutil.KeyFromSeed([]byte("wal"))
	p := formatParams
	if err := p.Validate(); err != nil {
		f.Fatal(err)
	}
	// A full image that places a key off its leaf's path, which Restore
	// refuses.
	off := offPathImage(f, checkpoints)
	if _, err := ringoram.Restore(key, p, off[checkpointHeaderSize:]); err == nil || !strings.Contains(err.Error(), "off its leaf") {
		f.Fatalf("a full image placing a key off its path restored: %v", err)
	}
	f.Add(off, true)
	f.Add(off, false)
	// A delta whose rewritten bucket names a key past the table, and a full
	// image and a delta whose stash does, which Restore refuses.
	base, delta := firstImages(f, checkpoints)
	if _, err := ringoram.Restore(key, p, base[checkpointHeaderSize:], delta[checkpointHeaderSize:]); err != nil {
		f.Fatalf("the untouched delta: %v", err)
	}
	for _, c := range []struct {
		name   string
		images [][]byte // a full record, then deltas
	}{
		{"delta bucket", [][]byte{base, pastTableDelta(f, delta)}},
		{"delta stash", [][]byte{base, pastTableStash(delta)}},
		{"full stash", [][]byte{pastTableStash(base)}},
	} {
		var images [][]byte
		for _, rec := range c.images {
			images = append(images, rec[checkpointHeaderSize:])
		}
		if _, err := ringoram.Restore(key, p, images[0], images[1:]...); err == nil || !strings.Contains(err.Error(), "names key index") {
			f.Fatalf("%s naming a key past the table: %v", c.name, err)
		}
		f.Add(c.images[len(c.images)-1], true)
	}
	// What restoring costs before the image has any say: the client itself.
	baseCost := allocatedBy(func() { ringoram.Restore(key, p, nil) })
	f.Fuzz(func(t *testing.T, plain []byte, committing bool) {
		backend := storage.NewMemBackend(1)
		l := newLog(t, backend, Config{})
		// A committing checkpoint commits whatever epoch it claims; a prepared
		// one needs the floor to say so.
		kind, floor := byte(kindCheckpointCommitting), uint64(0)
		if !committing {
			kind = kindCheckpoint
			if len(plain) >= checkpointHeaderSize {
				floor = headerEpoch(plain)
			}
		}
		if _, err := backend.Append(sealPlain(t, l, kind, plain)); err != nil {
			t.Fatal(err)
		}
		spent := allocatedBy(func() {
			// The image as a delta over the seed run's first full image.
			if len(plain) >= checkpointHeaderSize {
				ringoram.Restore(key, p, base[checkpointHeaderSize:], plain[checkpointHeaderSize:])
			}
			rec, err := l.RecoverWithFloor(floor)
			if err != nil {
				return
			}
			// The image as the full checkpoint, and again as a delta over itself.
			ringoram.Restore(key, p, rec.Full)
			ringoram.Restore(key, p, rec.Full, rec.Full)
		})
		if limit := 4*baseCost + 64*uint64(len(plain)) + 1<<16; spent > limit {
			t.Fatalf("recovering a %d-byte checkpoint record allocated %d bytes (limit %d)", len(plain), spent, limit)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	batches, _ := fuzzSeedRecords(f)
	for _, b := range batches {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, plain []byte) {
		o, backend := testORAM(t)
		l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{})})
		if _, err := l.AppendCheckpoint(0, o.Machine(), o); err != nil {
			t.Fatal(err)
		}
		if _, err := backend.Append(sealPlain(t, l, kindBatch, plain)); err != nil {
			t.Fatal(err)
		}
		spent := allocatedBy(func() {
			if rec, err := l.Recover(); err == nil {
				for _, entries := range rec.AbortedBatches {
					for _, le := range entries {
						if le.Kind < meta.AccessStep || le.Kind > meta.WriteStep {
							t.Fatalf("decoder let entry kind %d through", le.Kind)
						}
					}
				}
			}
		})
		// A one-byte write bump decodes into one LogEntry; nothing is dearer.
		if limit := 256*uint64(len(plain)) + 1<<16; spent > limit {
			t.Fatalf("recovering a %d-byte batch record allocated %d bytes (limit %d)", len(plain), spent, limit)
		}
	})
}
