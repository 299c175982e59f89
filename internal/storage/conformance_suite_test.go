package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// This file holds the conformance suite for the Backend contract, so every
// implementation — MemBackend, a disk group's shards, the latency wrapper,
// the remote client/server pair, and any future store — is held to the same
// edge cases instead of each accumulating ad-hoc coverage.
//
// The suite asserts error *presence*, not error identity, for range checks:
// the remote client flattens server errors into ErrRemote strings. ErrClosed
// is the exception — every backend must report it recognizably via
// errors.Is.

// ConformanceMinBuckets is the minimum bucket count a conformance factory
// must provision.
const ConformanceMinBuckets = 8

// RunBackendConformance exercises every Backend contract edge against fresh
// instances produced by factory. The factory must return an empty, open
// backend with at least ConformanceMinBuckets buckets and register any
// cleanup on t.
func RunBackendConformance(t *testing.T, factory func(t *testing.T) Backend) {
	checks := []struct {
		name string
		run  func(t *testing.T, b Backend)
	}{
		{"num-buckets", conformNumBuckets},
		{"bucket-round-trip", conformBucketRoundTrip},
		{"epoch-order-rejection", conformEpochOrder},
		{"vector-read-atomicity", conformVectorReadAtomicity},
		{"rollback-after-partial-vector", conformPartialVectorRollback},
		{"commit-rollback-visibility", conformCommitRollback},
		{"slot-count-per-version", func(t *testing.T, b Backend) { ConformSlotCountPerVersion(t, b, nil) }},
		{"keeps-own-copy", func(t *testing.T, b Backend) { ConformKeepsOwnCopy(t, b, nil) }},
		{"log-keeps-own-copy", func(t *testing.T, b Backend) { ConformLogKeepsOwnCopy(t, b, nil) }},
		{"reads-into", func(t *testing.T, b Backend) { ConformReadsInto(t, b, nil) }},
		{"reads-are-copies", conformReadsAreCopies},
		{"one-slot-length", conformOneSlotLength},
		{"log-sequence", conformLogSequence},
		{"log-truncate", conformLogTruncate},
		{"kv", conformKV},
		{"closed", conformClosed},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			c.run(t, factory(t))
		})
	}
}

// conformSlots is a version of n slots of one length (n < 100).
func conformSlots(tag string, n int) [][]byte {
	slots := make([][]byte, n)
	for i := range slots {
		slots[i] = []byte(fmt.Sprintf("%s-slot%02d", tag, i))
	}
	return slots
}

func conformNumBuckets(t *testing.T, b Backend) {
	n, err := b.NumBuckets()
	if err != nil {
		t.Fatalf("NumBuckets: %v", err)
	}
	if n < ConformanceMinBuckets {
		t.Fatalf("NumBuckets = %d, conformance factories must provision at least %d", n, ConformanceMinBuckets)
	}
}

func conformBucketRoundTrip(t *testing.T, b Backend) {
	slots := conformSlots("e1b0", 3)
	if err := b.WriteBucket(0, 1, slots); err != nil {
		t.Fatalf("WriteBucket: %v", err)
	}
	for i, want := range slots {
		got, err := b.ReadSlot(0, i)
		if err != nil {
			t.Fatalf("ReadSlot(0,%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadSlot(0,%d) = %q, want %q", i, got, want)
		}
	}
	all, err := b.ReadBucket(0)
	if err != nil {
		t.Fatalf("ReadBucket: %v", err)
	}
	if len(all) != len(slots) {
		t.Fatalf("ReadBucket returned %d slots, want %d", len(all), len(slots))
	}
	for i := range slots {
		if !bytes.Equal(all[i], slots[i]) {
			t.Fatalf("ReadBucket slot %d = %q, want %q", i, all[i], slots[i])
		}
	}
	got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 2}, {Bucket: 0, Slot: 0}})
	if err != nil {
		t.Fatalf("ReadSlots: %v", err)
	}
	if !bytes.Equal(got[0], slots[2]) || !bytes.Equal(got[1], slots[0]) {
		t.Fatalf("ReadSlots out of ref order: %q", got)
	}
	// Contract edges on untouched buckets.
	if _, err := b.ReadSlot(1, 0); err == nil {
		t.Fatal("ReadSlot on a never-written bucket succeeded")
	}
	if all, err := b.ReadBucket(1); err != nil || len(all) != 0 {
		t.Fatalf("ReadBucket on a never-written bucket = %v, %v (want empty, nil)", all, err)
	}
	if _, err := b.ReadSlot(-1, 0); err == nil {
		t.Fatal("ReadSlot(-1, 0) succeeded")
	}
	if _, err := b.ReadSlot(1<<30, 0); err == nil {
		t.Fatal("ReadSlot on an out-of-range bucket succeeded")
	}
	if err := b.WriteBucket(1<<30, 1, conformSlots("x", 1)); err == nil {
		t.Fatal("WriteBucket on an out-of-range bucket succeeded")
	}
}

func conformEpochOrder(t *testing.T, b Backend) {
	if err := b.WriteBucket(2, 5, conformSlots("e5", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBucket(2, 4, conformSlots("e4", 2)); err == nil {
		t.Fatal("lower-epoch write after a higher epoch was accepted")
	}
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 2, Epoch: 3, Slots: conformSlots("e3", 2)}}); err == nil {
		t.Fatal("lower-epoch vectored write after a higher epoch was accepted")
	}
	// Same-epoch writes supersede in place (recovery replay rewrites buckets).
	rewritten := conformSlots("e5-rewrite", 2)
	if err := b.WriteBucket(2, 5, rewritten); err != nil {
		t.Fatalf("same-epoch rewrite rejected: %v", err)
	}
	got, err := b.ReadSlot(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rewritten[0]) {
		t.Fatalf("same-epoch rewrite did not supersede: got %q", got)
	}
	// A fresh bucket may still accept epochs at or below the frontier.
	if err := b.WriteBucket(3, 4, conformSlots("fresh", 1)); err != nil {
		t.Fatalf("write to an untouched bucket at a lower epoch rejected: %v", err)
	}
}

func conformVectorReadAtomicity(t *testing.T, b Backend) {
	if err := b.WriteBucket(0, 1, conformSlots("a", 2)); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 1 << 30, Slot: 0}, {Bucket: 0, Slot: 1}})
	if err == nil {
		t.Fatal("vector with an out-of-range ref succeeded")
	}
	if got != nil {
		t.Fatalf("failed vector returned partial results: %v", got)
	}
	got, err = b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 0, Slot: 7}})
	if err == nil {
		t.Fatal("vector with an out-of-range slot succeeded")
	}
	if got != nil {
		t.Fatalf("failed vector returned partial results: %v", got)
	}
}

func conformPartialVectorRollback(t *testing.T, b Backend) {
	// Epoch 1 is the committed baseline.
	base0, base1 := conformSlots("e1b0", 2), conformSlots("e1b1", 2)
	if err := b.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: base0},
		{Bucket: 1, Epoch: 1, Slots: base1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	// An epoch-2 vector that fails mid-way may leave a prefix installed.
	err := b.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 2, Slots: conformSlots("e2b0", 2)},
		{Bucket: 1 << 30, Epoch: 2, Slots: conformSlots("bad", 2)},
		{Bucket: 1, Epoch: 2, Slots: conformSlots("e2b1", 2)},
	})
	if err == nil {
		t.Fatal("vectored write with an out-of-range bucket succeeded")
	}
	// Shadow paging makes the partial prefix harmless: revert to epoch 1.
	if err := b.RollbackTo(1); err != nil {
		t.Fatalf("RollbackTo after partial vector: %v", err)
	}
	for bucket, want := range map[int][][]byte{0: base0, 1: base1} {
		got, err := b.ReadBucket(bucket)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
			t.Fatalf("bucket %d after rollback = %q, want %q", bucket, got, want)
		}
	}
}

func conformCommitRollback(t *testing.T, b Backend) {
	if err := b.WriteBucket(0, 1, conformSlots("e1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBucket(0, 2, conformSlots("e2", 1)); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e2-slot00" {
		t.Fatalf("newest version not served: %q", got)
	}
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	got, err = b.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "e1-slot00" {
		t.Fatalf("rollback did not restore the committed version: %q", got)
	}
	// Rolling back to the committed frontier is a no-op.
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadSlot(0, 0); string(got) != "e1-slot00" {
		t.Fatalf("idempotent rollback changed state: %q", got)
	}
	// Committing again is idempotent too.
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
}

// ConformSlotCountPerVersion holds a store to what the executor leans on:
// successive versions of one bucket may hold different numbers of slots (a
// whole Z+S bucket from tree initialization, then its Z real positions), reads
// are bounded by the newest version's count, a bad slot fails its whole vector,
// and a rollback brings the older count back. reopen, when not nil, closes and
// reopens a durable store between the steps; the store must answer the same.
func ConformSlotCountPerVersion(t *testing.T, b Backend, reopen func(Backend) Backend) {
	if reopen == nil {
		reopen = func(b Backend) Backend { return b }
	}
	expect := func(when string, want [][]byte) {
		t.Helper()
		all, err := b.ReadBucket(0)
		if err != nil || len(all) != len(want) {
			t.Fatalf("%s: ReadBucket returned %d slots (%v), want %d", when, len(all), err, len(want))
		}
		last := len(want) - 1
		got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: last}, {Bucket: 0, Slot: 0}})
		if err != nil || !bytes.Equal(got[0], want[last]) || !bytes.Equal(got[1], want[0]) {
			t.Fatalf("%s: ReadSlots of the first and last slot = %q, %v", when, got, err)
		}
		if _, err := b.ReadSlot(0, len(want)); err == nil {
			t.Fatalf("%s: ReadSlot(0, %d) succeeded on a version of %d slots", when, len(want), len(want))
		}
		if got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 0, Slot: len(want)}}); err == nil || got != nil {
			t.Fatalf("%s: a vector naming slot %d of a version of %d slots returned %q, %v", when, len(want), len(want), got, err)
		}
	}
	whole, real := conformSlots("e1", 40), conformSlots("e2", 16)
	if err := b.WriteBucket(0, 1, whole); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	expect("40 slots committed", whole)
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: real}}); err != nil {
		t.Fatalf("a 16-slot version over a 40-slot one: %v", err)
	}
	expect("16 slots over 40", real)
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	expect("rolled back to 40 slots", whole)
	if err := b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: conformSlots("e2", 16)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(2); err != nil {
		t.Fatal(err)
	}
	// An uncommitted 40-slot version on top: a reopened store may or may not
	// still hold it, and rolls it back either way.
	if err := b.WriteBucket(0, 3, conformSlots("e3", 40)); err != nil {
		t.Fatal(err)
	}
	b = reopen(b)
	if err := b.RollbackTo(2); err != nil {
		t.Fatal(err)
	}
	expect("16 slots committed, a 40-slot version rolled back", real)
}

// ConformKeepsOwnCopy holds a store to the write contract: it must not retain
// the caller's slices. The caller scribbles over every slot and slot table it
// handed to WriteBuckets and WriteBucket as soon as the call returns, and
// reads still answer the written bytes — the newest version, a committed one
// under an uncommitted rewrite, the one a same-epoch rewrite replaced, and the
// one a rollback brings back, in slots of several sizes, empty ones included. reopen,
// when not nil, closes and reopens a durable store before the last reads.
func ConformKeepsOwnCopy(t *testing.T, b Backend, reopen func(Backend) Backend) {
	if reopen == nil {
		reopen = func(b Backend) Backend { return b }
	}
	scribble := func(slots [][]byte) {
		for i, sl := range slots {
			for j := range sl {
				sl[j] = 0xee
			}
			slots[i] = []byte("scribbled")
		}
	}
	// written keeps what each bucket should read back.
	written := map[int][][]byte{}
	write := func(vec []BucketWrite) {
		t.Helper()
		for _, w := range vec {
			written[w.Bucket] = conformClone(w.Slots)
		}
		var err error
		if len(vec) == 1 {
			err = b.WriteBucket(vec[0].Bucket, vec[0].Epoch, vec[0].Slots)
		} else {
			err = b.WriteBuckets(vec)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range vec {
			scribble(w.Slots)
		}
	}
	check := func(when string) {
		t.Helper()
		for bucket, want := range written {
			all, err := b.ReadBucket(bucket)
			if err != nil || len(all) != len(want) {
				t.Fatalf("%s: bucket %d: ReadBucket returned %d slots (%v), want %d", when, bucket, len(all), err, len(want))
			}
			refs := make([]SlotRef, len(want))
			for i := range want {
				if !bytes.Equal(all[i], want[i]) {
					t.Fatalf("%s: bucket %d slot %d = %q, want %q: the store kept the caller's bytes", when, bucket, i, all[i], want[i])
				}
				refs[len(want)-1-i] = SlotRef{Bucket: bucket, Slot: i}
			}
			got, err := b.ReadSlots(refs)
			if err != nil {
				t.Fatalf("%s: bucket %d: ReadSlots: %v", when, bucket, err)
			}
			for k, r := range refs {
				if !bytes.Equal(got[k], want[r.Slot]) {
					t.Fatalf("%s: bucket %d slot %d read as %q, want %q", when, bucket, r.Slot, got[k], want[r.Slot])
				}
			}
		}
	}
	write([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: conformSlots("e1b0", 4)},
		{Bucket: 1, Epoch: 1, Slots: [][]byte{{}, {}, {}}},
	})
	write([]BucketWrite{{Bucket: 2, Epoch: 1, Slots: conformSlots("e1b2", 3)}})
	check("epoch 1 written")
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	check("epoch 1 committed")
	committed := map[int][][]byte{0: written[0], 1: written[1], 2: written[2]}
	write([]BucketWrite{
		{Bucket: 0, Epoch: 2, Slots: conformSlots("e2b0", 2)},
		{Bucket: 1, Epoch: 2, Slots: conformSlots("e2b1", 4)},
	})
	write([]BucketWrite{{Bucket: 1, Epoch: 2, Slots: conformSlots("e2b1-a-longer-rewrite", 4)}})
	check("epoch 2 over epoch 1")
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	written = committed
	check("rolled back to epoch 1")
	write([]BucketWrite{{Bucket: 3, Epoch: 2, Slots: conformSlots("e2b3", 5)}})
	if err := b.CommitEpoch(2); err != nil {
		t.Fatal(err)
	}
	b = reopen(b)
	check("epoch 2 committed")
}

// ConformReadsInto holds a store to the read contract's destinations
// (SlotRef.Into). A ref whose Into holds its slot reads the slot's bytes into
// Into, and the result is Into's view of them: a store never writes past the
// slot, nor into a neighbour's frame of the one buffer the destinations are
// carved from. A ref with no Into, or with one a byte too short, reads a
// private copy and leaves the short Into alone. A bad ref fails the whole vector. reopen, when not nil,
// closes and reopens a durable store before the reads, so they are answered
// from replayed versions.
func ConformReadsInto(t *testing.T, b Backend, reopen func(Backend) Backend) {
	const pad = 0xee
	slots := map[int][][]byte{0: conformSlots("into-b0", 4), 1: conformSlots("into-b1", 3)}
	for bucket, s := range slots {
		if err := b.WriteBucket(bucket, 1, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	if reopen != nil {
		b = reopen(b)
	}
	n := len(slots[0][0])
	// Every frame is a slot and a byte long, so a store that wrote past a
	// slot would show in its frame's last byte.
	frame := n + 1
	buf := bytes.Repeat([]byte{pad}, 6*frame)
	dest := func(i, size int) []byte { return buf[i*frame : i*frame+size] }
	short := bytes.Repeat([]byte{pad}, n-1)
	refs := []SlotRef{
		{Bucket: 1, Slot: 2, Into: dest(0, frame)}, // room to spare
		{Bucket: 0, Slot: 0, Into: dest(1, n)},
		{Bucket: 0, Slot: 3},              // no destination
		{Bucket: 1, Slot: 0, Into: short}, // too short
		{Bucket: 0, Slot: 0, Into: dest(2, n)},
		{Bucket: 1, Slot: 1, Into: dest(3, 0)[:0:n]}, // empty, with the capacity
		{Bucket: 0, Slot: 2},
	}
	got, err := b.ReadSlots(refs)
	if err != nil || len(got) != len(refs) {
		t.Fatalf("ReadSlots: %d results, %v", len(got), err)
	}
	filled := make([]bool, 6)
	for i, r := range refs {
		want := slots[r.Bucket][r.Slot]
		if !bytes.Equal(got[i], want) {
			t.Fatalf("ref %d (bucket %d slot %d) read %q, want %q", i, r.Bucket, r.Slot, got[i], want)
		}
		for k := range buf {
			if &got[i][0] != &buf[k] {
				continue
			}
			if cap(r.Into) < n || &r.Into[:1][0] != &buf[k] {
				t.Fatalf("ref %d read into byte %d of the destinations' buffer, not into its own destination", i, k)
			}
			filled[k/frame] = true
		}
		if cap(short) > 0 && &got[i][0] == &short[0] {
			t.Fatalf("ref %d read into a destination too short for its slot", i)
		}
		if cap(r.Into) >= n && &got[i][0] != &r.Into[:1][0] {
			t.Fatalf("ref %d (bucket %d slot %d) was not read into its destination", i, r.Bucket, r.Slot)
		}
	}
	for f := range filled {
		if !filled[f] {
			if !bytes.Equal(buf[f*frame:(f+1)*frame], bytes.Repeat([]byte{pad}, frame)) {
				t.Fatalf("frame %d, which no result is a view of, was written: %q", f, buf[f*frame:(f+1)*frame])
			}
		} else if buf[(f+1)*frame-1] != pad {
			t.Fatalf("frame %d was written past its slot", f)
		}
	}
	if !bytes.Equal(short, bytes.Repeat([]byte{pad}, n-1)) {
		t.Fatalf("a destination too short for its slot was written: %q", short)
	}
	bad := []SlotRef{{Bucket: 0, Slot: 1, Into: dest(4, n)}, {Bucket: 0, Slot: 9, Into: dest(5, n)}}
	if got, err := b.ReadSlots(bad); err == nil || got != nil {
		t.Fatalf("a vector with a bad ref read %d results, error %v", len(got), err)
	}
}

// ConformLogKeepsOwnCopy holds a store to LogStore.Append's ownership rule: it
// keeps its own copy of every record. Each record is written into one buffer,
// the way the recovery log writes its records, and the buffer is scribbled
// over once Append (or AppendNoSync, on a store that has it) returns; Scan
// must read every record as it was appended, after a truncation, after
// reopen (when given) and after a later append. What Scan returns is the
// caller's too: each check scribbles over every record it read, and the next
// Scan must not see it. The records range from one byte to 40 KiB: a
// MemBackend carves the short ones out of a chunk and copies the long ones
// whole.
func ConformLogKeepsOwnCopy(t *testing.T, b Backend, reopen func(Backend) Backend) {
	if reopen == nil {
		reopen = func(b Backend) Backend { return b }
	}
	var buf []byte
	var want [][]byte // the records Scan(0) must return, in order
	appendRecord := func(n int, deferred bool) {
		t.Helper()
		buf = buf[:0]
		for i := range n {
			buf = append(buf, byte('a'+(len(want)+i)%26))
		}
		want = append(want, bytes.Clone(buf))
		var err error
		if lb, ok := b.(LogBatcher); ok && deferred {
			_, err = lb.AppendNoSync(buf)
		} else {
			_, err = b.Append(buf)
		}
		if err != nil {
			t.Fatalf("appending record %d: %v", len(want), err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
	}
	sync := func() {
		t.Helper()
		if lb, ok := b.(LogBatcher); ok {
			if err := lb.SyncLog(); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func(when, whose string) {
		t.Helper()
		recs, err := b.Scan(0)
		if err != nil || len(recs) != len(want) {
			t.Fatalf("%s: Scan returned %d records (%v), want %d", when, len(recs), err, len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("%s: record %d reads %d bytes %.16q..., want %d bytes %.16q...: the store kept %s bytes", when, i, len(recs[i]), recs[i], len(want[i]), want[i], whose)
			}
		}
		for _, r := range recs {
			for i := range r {
				r[i] = 'X'
			}
		}
	}
	check := func(when string) {
		t.Helper()
		scan(when, "the appender's")
		scan(when+", rescanned", "a Scan caller's")
	}
	for i, n := range []int{9, 300, 4 << 10, 40 << 10, 1, 20 << 10, 600} {
		appendRecord(n, i%2 == 1)
	}
	sync()
	check("appended")
	if err := b.Truncate(3); err != nil {
		t.Fatal(err)
	}
	want = want[2:]
	check("truncated")
	b = reopen(b)
	check("reopened")
	appendRecord(700, true)
	appendRecord(70, false)
	sync()
	check("appended after the truncation")
}

// conformReadsAreCopies holds a store to the read contract's ownership: a ref
// without Into reads a copy the caller keeps, as does ReadBucket. Scribbling
// over them changes nothing the store answers, and they keep their bytes
// after their version retires and a write of its length reuses what it held
// (a MemBackend's slab).
func conformReadsAreCopies(t *testing.T, b Backend) {
	write := func(e uint64) [][]byte {
		t.Helper()
		slots := conformSlots(fmt.Sprintf("copy-e%d", e), 4)
		if err := b.WriteBucket(0, e, slots); err != nil {
			t.Fatal(err)
		}
		if err := b.CommitEpoch(e); err != nil {
			t.Fatal(err)
		}
		return slots
	}
	old := write(1)
	got, err := b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 1}, {Bucket: 0, Slot: 3}})
	if err != nil || len(got) != 2 {
		t.Fatalf("ReadSlots: %d results, %v", len(got), err)
	}
	all, err := b.ReadBucket(0)
	if err != nil || len(all) != len(old) {
		t.Fatalf("ReadBucket: %d slots, %v", len(all), err)
	}
	write(2)           // retires epoch 1's version
	newest := write(3) // of its length, so it may reuse what that version held
	if !bytes.Equal(got[0], old[1]) || !bytes.Equal(got[1], old[3]) {
		t.Fatalf("slots read in epoch 1 hold %q and %q once it retired, want %q and %q", got[0], got[1], old[1], old[3])
	}
	for i := range old {
		if !bytes.Equal(all[i], old[i]) {
			t.Fatalf("bucket read in epoch 1: slot %d holds %q once it retired, want %q", i, all[i], old[i])
		}
	}
	for i := range got[0] {
		got[0][i] = 0xee
	}
	if again, err := b.ReadSlot(0, 1); err != nil || !bytes.Equal(again, newest[1]) {
		t.Fatalf("after the caller scribbled over a read, the slot reads %q (%v), want %q", again, err, newest[1])
	}
}

// conformOneSlotLength holds a store to the one-slot-length rule: a version's
// slots all have one length, so a write of a bucket whose slots differ is
// refused — alone or inside a vector, which stops there: the buckets after it
// are not written, and a rollback discards the prefix before it.
func conformOneSlotLength(t *testing.T, b Backend) {
	committed := conformSlots("e1b0", 3)
	if err := b.WriteBucket(0, 1, committed); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitEpoch(1); err != nil {
		t.Fatal(err)
	}
	mixed := [][]byte{[]byte("a slot"), []byte("a longer slot")}
	if err := b.WriteBucket(1, 2, mixed); err == nil || !strings.Contains(err.Error(), "one length") {
		t.Fatalf("WriteBucket of slots of %d and %d bytes: %v, want a refusal", len(mixed[0]), len(mixed[1]), err)
	}
	err := b.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 2, Slots: conformSlots("e2b0", 3)},
		{Bucket: 2, Epoch: 2, Slots: [][]byte{{}, []byte("x")}},
		{Bucket: 3, Epoch: 2, Slots: conformSlots("e2b3", 3)},
	})
	if err == nil || !strings.Contains(err.Error(), "one length") {
		t.Fatalf("WriteBuckets naming a bucket of mixed slot lengths: %v, want a refusal", err)
	}
	for _, bucket := range []int{1, 2, 3} {
		if all, err := b.ReadBucket(bucket); err != nil || len(all) != 0 {
			t.Fatalf("bucket %d after the refused writes holds %q (%v), want nothing", bucket, all, err)
		}
	}
	if err := b.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	if all, err := b.ReadBucket(0); err != nil || len(all) != len(committed) || !bytes.Equal(all[2], committed[2]) {
		t.Fatalf("bucket 0 rolled back past the refused vector's prefix = %q, %v; want %q", all, err, committed)
	}
}

func conformClone(slots [][]byte) [][]byte {
	out := make([][]byte, len(slots))
	for i, sl := range slots {
		out[i] = bytes.Clone(sl)
	}
	return out
}

func conformLogSequence(t *testing.T, b Backend) {
	if seq, err := b.LastSeq(); err != nil || seq != 0 {
		t.Fatalf("fresh LastSeq = %d, %v (want 0)", seq, err)
	}
	for i := 1; i <= 5; i++ {
		seq, err := b.Append([]byte(fmt.Sprintf("rec%d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
	recs, err := b.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[0]) != "rec1" || string(recs[4]) != "rec5" {
		t.Fatalf("Scan(0) = %q", recs)
	}
	recs, err = b.Scan(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "rec4" {
		t.Fatalf("Scan(4) = %q", recs)
	}
	if recs, err := b.Scan(99); err != nil || len(recs) != 0 {
		t.Fatalf("Scan past the end = %q, %v", recs, err)
	}
}

func conformLogTruncate(t *testing.T, b Backend) {
	for i := 1; i <= 5; i++ {
		if _, err := b.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Truncate(3); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[0]) != "rec3" {
		t.Fatalf("Scan after Truncate(3) = %q", recs)
	}
	if seq, _ := b.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq after truncate = %d, want 5", seq)
	}
	// Truncation beyond the end clamps: sequence numbers keep counting.
	if err := b.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if recs, _ := b.Scan(0); len(recs) != 0 {
		t.Fatalf("Scan after truncate-all = %q", recs)
	}
	if seq, _ := b.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq after truncate-all = %d, want 5", seq)
	}
	seq, err := b.Append([]byte("rec6"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("Append after truncate-all returned seq %d, want 6", seq)
	}
	// Truncate never rewinds.
	if err := b.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if recs, _ := b.Scan(0); len(recs) != 1 || string(recs[0]) != "rec6" {
		t.Fatalf("Scan after no-op truncate = %q", recs)
	}
}

// conformKV holds every store to the KV contract: it keeps no namespace and
// refuses every call with ErrNoKV.
func conformKV(t *testing.T, b Backend) {
	if _, found, err := b.Get("missing"); found || !errors.Is(err, ErrNoKV) {
		t.Fatalf("Get = %v, %v, want ErrNoKV", found, err)
	}
	if err := b.Put("k", []byte("v")); !errors.Is(err, ErrNoKV) {
		t.Fatalf("Put = %v, want ErrNoKV", err)
	}
	if _, found, err := b.Get("k"); found || !errors.Is(err, ErrNoKV) {
		t.Fatalf("Get after a refused Put = %v, %v, want ErrNoKV", found, err)
	}
	if err := b.Delete("k"); !errors.Is(err, ErrNoKV) {
		t.Fatalf("Delete = %v, want ErrNoKV", err)
	}
}

// ---- group-commit conformance ----

// RunGroupCommitConformance exercises the Backend contract edges that only
// appear when several shards' barriers may coalesce (a disk group's shards
// on its one log). The factory must return n open, empty backends, whose
// durability barriers may coalesce, and register cleanup on t. The contract
// under test: coalescing is invisible —
// concurrent CommitEpoch calls from every shard succeed and each shard still
// observes its *own* epoch-order rejection and ErrClosed semantics,
// unchanged from the single-shard suite.
func RunGroupCommitConformance(t *testing.T, n int, factory func(t *testing.T, n int) []Backend) {
	if n < 2 {
		t.Fatalf("group conformance needs at least 2 shards (got %d)", n)
	}
	newShards := func(t *testing.T) []Backend {
		shards := factory(t, n)
		if len(shards) != n {
			t.Fatalf("factory returned %d shards, want %d", len(shards), n)
		}
		return shards
	}

	t.Run("concurrent-commit", func(t *testing.T) {
		shards := newShards(t)
		const epochs = 8
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for e := uint64(1); e <= epochs; e++ {
					slots := conformSlots(fmt.Sprintf("s%d-e%d", i, e), 2)
					if err := b.WriteBucket(0, e, slots); err != nil {
						errs[i] = err
						return
					}
					if err := b.CommitEpoch(e); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		for i, b := range shards {
			got, err := b.ReadSlot(0, 0)
			if err != nil {
				t.Fatalf("shard %d read-back: %v", i, err)
			}
			want := fmt.Sprintf("s%d-e%d-slot00", i, epochs)
			if string(got) != want {
				t.Fatalf("shard %d newest slot = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("per-shard-epoch-order", func(t *testing.T) {
		// Every shard races ahead to its own epoch frontier; a stale write on
		// one shard must be rejected by THAT shard's frontier regardless of
		// what its groupmates are committing at the same moment.
		shards := newShards(t)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				frontier := uint64(i + 2) // distinct per shard
				if err := b.WriteBucket(1, frontier, conformSlots("hi", 1)); err != nil {
					errs[i] = err
					return
				}
				if err := b.CommitEpoch(frontier); err != nil {
					errs[i] = err
					return
				}
				if err := b.WriteBucket(1, frontier-1, conformSlots("stale", 1)); err == nil {
					errs[i] = fmt.Errorf("shard %d accepted an epoch-%d write after epoch %d", i, frontier-1, frontier)
					return
				}
				// Re-committing at or below the frontier stays idempotent.
				if err := b.CommitEpoch(frontier - 1); err != nil {
					errs[i] = err
				}
			}(i, b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("concurrent-append-and-commit", func(t *testing.T) {
		// Log appends and commits standing on the same scheduler: each
		// shard's log sequence must stay dense and private while everyone
		// commits.
		shards := newShards(t)
		const records = 16
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range shards {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for r := 1; r <= records; r++ {
					seq, err := b.Append([]byte(fmt.Sprintf("s%d-r%d", i, r)))
					if err != nil {
						errs[i] = err
						return
					}
					if seq != uint64(r) {
						errs[i] = fmt.Errorf("shard %d append %d returned seq %d", i, r, seq)
						return
					}
					if r%4 == 0 {
						if err := b.CommitEpoch(uint64(r / 4)); err != nil {
							errs[i] = err
							return
						}
					}
				}
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		for i, b := range shards {
			recs, err := b.Scan(0)
			if err != nil {
				t.Fatalf("shard %d scan: %v", i, err)
			}
			if len(recs) != records {
				t.Fatalf("shard %d recovered %d records, want %d", i, len(recs), records)
			}
			for r, rec := range recs {
				if want := fmt.Sprintf("s%d-r%d", i, r+1); string(rec) != want {
					t.Fatalf("shard %d record %d = %q, want %q", i, r, rec, want)
				}
			}
		}
	})

	t.Run("closed-shard-isolation", func(t *testing.T) {
		// Closing one shard must not take the scheduler (or its groupmates)
		// down with it, and every call on the closed shard must keep
		// reporting ErrClosed, the optional faces' included.
		shards := newShards(t)
		conformClosed(t, shards[0])
		if lb, ok := shards[0].(LogBatcher); ok {
			if _, err := lb.AppendNoSync([]byte("r")); !errors.Is(err, ErrClosed) {
				t.Fatalf("AppendNoSync on closed shard = %v, want ErrClosed", err)
			}
			if err := lb.SyncLog(); !errors.Is(err, ErrClosed) {
				t.Fatalf("SyncLog on closed shard = %v, want ErrClosed", err)
			}
		}
		if ecb, ok := shards[0].(EpochCommitBatcher); ok {
			if err := ecb.CommitEpochNoSync(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("CommitEpochNoSync on closed shard = %v, want ErrClosed", err)
			}
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int, b Backend) {
				defer wg.Done()
				for e := uint64(1); e <= 4; e++ {
					if err := b.WriteBucket(0, e, conformSlots("live", 1)); err != nil {
						errs[i] = err
						return
					}
					if err := b.CommitEpoch(e); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, shards[i])
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("surviving shard %d: %v", i, err)
			}
		}
	})

	t.Run("deferred-append-sync", func(t *testing.T) {
		// The deferred-barrier capability (LogBatcher): every shard appends
		// without syncing, ONE shard's SyncLog closes the round, and each
		// stream must still read back dense, private, in-order — the
		// barrier placement the proxy's epoch schedule relies on. Skipped
		// for factories whose shards don't expose the capability.
		shards := newShards(t)
		batchers := make([]LogBatcher, n)
		for i, b := range shards {
			lb, ok := b.(LogBatcher)
			if !ok {
				t.Skipf("shard type %T lacks LogBatcher", b)
			}
			batchers[i] = lb
		}
		const rounds = 5
		for r := 1; r <= rounds; r++ {
			// Mix synced and deferred appends: odd rounds also exercise the
			// plain Append path to prove the two interleave correctly.
			for i, lb := range batchers {
				seq, err := lb.AppendNoSync([]byte(fmt.Sprintf("s%d-r%d-a", i, r)))
				if err != nil {
					t.Fatalf("shard %d round %d AppendNoSync: %v", i, r, err)
				}
				if want := uint64((r-1)*2 + 1); seq != want {
					t.Fatalf("shard %d round %d AppendNoSync seq = %d, want %d", i, r, seq, want)
				}
			}
			// One shard's barrier covers the whole round.
			if err := batchers[r%n].SyncLog(); err != nil {
				t.Fatalf("round %d SyncLog: %v", r, err)
			}
			for i, b := range shards {
				seq, err := b.Append([]byte(fmt.Sprintf("s%d-r%d-b", i, r)))
				if err != nil {
					t.Fatalf("shard %d round %d Append: %v", i, r, err)
				}
				if want := uint64(r * 2); seq != want {
					t.Fatalf("shard %d round %d Append seq = %d, want %d", i, r, seq, want)
				}
			}
		}
		// A SyncLog with nothing pending must be a cheap no-op, not an error.
		for i, lb := range batchers {
			if err := lb.SyncLog(); err != nil {
				t.Fatalf("shard %d idle SyncLog: %v", i, err)
			}
		}
		for i, b := range shards {
			recs, err := b.Scan(0)
			if err != nil {
				t.Fatalf("shard %d scan: %v", i, err)
			}
			if len(recs) != rounds*2 {
				t.Fatalf("shard %d has %d records, want %d", i, len(recs), rounds*2)
			}
			for r := 1; r <= rounds; r++ {
				wantA := fmt.Sprintf("s%d-r%d-a", i, r)
				wantB := fmt.Sprintf("s%d-r%d-b", i, r)
				if got := string(recs[(r-1)*2]); got != wantA {
					t.Fatalf("shard %d record %d = %q, want %q", i, (r-1)*2, got, wantA)
				}
				if got := string(recs[(r-1)*2+1]); got != wantB {
					t.Fatalf("shard %d record %d = %q, want %q", i, (r-1)*2+1, got, wantB)
				}
			}
			last, err := b.LastSeq()
			if err != nil {
				t.Fatalf("shard %d LastSeq: %v", i, err)
			}
			if last != uint64(rounds*2) {
				t.Fatalf("shard %d LastSeq = %d, want %d", i, last, rounds*2)
			}
		}
	})
}

func conformClosed(t *testing.T, b Backend) {
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkClosed := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close = %v, want ErrClosed", op, err)
		}
	}
	_, err := b.ReadSlot(0, 0)
	checkClosed("ReadSlot", err)
	_, err = b.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}})
	checkClosed("ReadSlots", err)
	_, err = b.ReadBucket(0)
	checkClosed("ReadBucket", err)
	checkClosed("WriteBucket", b.WriteBucket(0, 1, conformSlots("x", 1)))
	checkClosed("WriteBuckets", b.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 1, Slots: conformSlots("x", 1)}}))
	checkClosed("CommitEpoch", b.CommitEpoch(1))
	checkClosed("RollbackTo", b.RollbackTo(0))
	_, err = b.NumBuckets()
	checkClosed("NumBuckets", err)
	_, _, err = b.Get("k")
	checkClosed("Get", err)
	checkClosed("Put", b.Put("k", []byte("v")))
	checkClosed("Delete", b.Delete("k"))
	_, err = b.Append([]byte("r"))
	checkClosed("Append", err)
	_, err = b.Scan(0)
	checkClosed("Scan", err)
	checkClosed("Truncate", b.Truncate(1))
	_, err = b.LastSeq()
	checkClosed("LastSeq", err)
}
