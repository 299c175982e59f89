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

// offPathImage returns a copy of the plaintext of the first full checkpoint
// record of checkpoints that places a key below the root, with that key's
// leaf moved to one whose path misses the key's bucket. A full image's
// position-map entry is the key field (a 2-byte length, then KeySize bytes),
// the leaf, the bucket and the position.
func offPathImage(t testing.TB, checkpoints [][]byte) []byte {
	geo, field := formatParams.Geometry(), 2+formatParams.KeySize
	for _, plain := range checkpoints {
		img := plain[checkpointHeaderSize:]
		if info, err := meta.InspectImage(img); err != nil || !info.Full {
			continue
		}
		for i := 0; i < 12; i++ {
			name := binary.BigEndian.AppendUint16(nil, uint16(len(formatKey(i))))
			at := bytes.Index(img, append(name, formatKey(i)...))
			if at < 0 {
				continue
			}
			leaf := img[at+field:]
			if bucket := int(int32(binary.BigEndian.Uint32(leaf[4:]))); bucket > 0 {
				off := 0
				for geo.PathBucket(off, meta.BucketLevel(bucket)) == bucket {
					off++
				}
				out := bytes.Clone(plain)
				binary.BigEndian.PutUint32(out[checkpointHeaderSize+at+field:], uint32(off))
				return out
			}
		}
	}
	t.Fatal("no full checkpoint places a key below the root")
	return nil
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
	// What restoring costs before the image has any say: the client itself.
	base := allocatedBy(func() { ringoram.Restore(key, p, nil) })
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
			rec, err := l.RecoverWithFloor(floor)
			if err != nil {
				return
			}
			// The image as the full checkpoint, and again as a delta over itself.
			ringoram.Restore(key, p, rec.Full)
			ringoram.Restore(key, p, rec.Full, rec.Full)
		})
		if limit := 4*base + 64*uint64(len(plain)) + 1<<16; spent > limit {
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
		if _, err := l.AppendCheckpoint(0, o); err != nil {
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
