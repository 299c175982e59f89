package wal

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"obladi/internal/allocgate"
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

// refused returns a copy of rec, a checkpoint record's plaintext, with one
// byte of its image changed so that restore refuses it with an error naming
// want: the bytes are tried front to back (back to front when backward is
// set), each with every change of edits in turn, and the first that works is
// kept. A seed so reaches one of Restore's refusals without this package
// knowing the image's layout, which is meta's alone: its
// TestRestoreRefusesKeyOffItsPath and TestRestoreRefusesKeyIndexPastTable
// build the same images field by field.
func refused(t testing.TB, rec []byte, backward bool, edits []func(byte) byte, restore func(img []byte) error, want string) []byte {
	out := bytes.Clone(rec)
	img := out[checkpointHeaderSize:]
	for n := range img {
		at := n
		if backward {
			at = len(img) - 1 - n
		}
		was := img[at]
		for _, edit := range edits {
			if img[at] = edit(was); img[at] == was {
				continue
			}
			if err := restore(img); err != nil && strings.Contains(err.Error(), want) {
				return out
			}
		}
		img[at] = was
	}
	t.Fatalf("no one-byte change of the image makes restoring it fail with %q", want)
	return nil
}

// ones sets every bit of a byte: a sized field's largest value, and past the
// key table for a key index.
var ones = []func(byte) byte{func(byte) byte { return 0xff }}

// bitFlips flips one bit of a byte, each in turn: a leaf to another path.
var bitFlips = func() []func(byte) byte {
	var flips []func(byte) byte
	for i := range 8 {
		flips = append(flips, func(b byte) byte { return b ^ 1<<i })
	}
	return flips
}()

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
	base, delta := firstImages(f, checkpoints)
	restore := func(images ...[]byte) error {
		_, err := ringoram.Restore(key, p, images[0], images[1:]...)
		return err
	}
	off := refused(f, base, false, bitFlips, func(img []byte) error { return restore(img) }, "off its leaf")
	f.Add(off, true)
	f.Add(off, false)
	// A delta whose rewritten bucket names a key past the table, and a full
	// image and a delta whose stash does, which Restore refuses. The first
	// key index a delta holds is its first rewritten bucket's; the last bytes
	// of an image are its last stash entry, padding, whose index leads it.
	if err := restore(base[checkpointHeaderSize:], delta[checkpointHeaderSize:]); err != nil {
		f.Fatalf("the untouched delta: %v", err)
	}
	overBase := func(img []byte) error { return restore(base[checkpointHeaderSize:], img) }
	f.Add(refused(f, delta, false, ones, overBase, "names key index"), true) // a delta's bucket
	f.Add(refused(f, delta, true, ones, overBase, "names key index"), true)  // a delta's stash
	f.Add(refused(f, base, true, ones, func(img []byte) error { return restore(img) }, "names key index"), true)
	// What restoring costs before the image has any say: the client itself.
	allocgate.OneP(f)
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
	allocgate.OneP(f)
	f.Fuzz(func(t *testing.T, plain []byte) {
		o, backend := testORAM(t)
		l := newLog(t, backend, Config{Public: publicOf(t, o, schedule{})})
		if _, err := appendCheckpoint(l, 0, o.Machine()); err != nil {
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
