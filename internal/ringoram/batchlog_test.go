package ringoram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"obladi/internal/ringoram/meta"
)

// logOf takes steps through their batch record, as a crash would: the entries
// a recovery replays.
func logOf(t testing.TB, o *ORAM, steps []*meta.Plan) []meta.LogEntry {
	t.Helper()
	l := o.m.BatchLog(steps)
	buf := make([]byte, l.EncodedSize())
	if err := l.Encode(buf); err != nil {
		t.Fatal(err)
	}
	entries, err := meta.DecodeBatchLog(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != l.Len() {
		t.Fatalf("decoded %d log entries, the steps hold %d", len(entries), l.Len())
	}
	return entries
}

// scheduleParams make early reshuffles frequent: with S = A the root runs out
// of dummies between two evict-paths.
func scheduleParams() Params {
	p := testParams(64)
	p.S, p.A, p.Seed = 4, 4, 77
	return p
}

// loggedOp runs padding operations — reads, or writes when write is set — on a
// seeded client until one plans a step of kind, and returns the client, a
// checkpoint image taken just before that operation, and its log entries.
func loggedOp(t *testing.T, write bool, kind meta.PlanKind) (*ORAM, []byte, []meta.LogEntry) {
	t.Helper()
	seq, _ := newTestSeq(t, scheduleParams())
	o := seq.ORAM()
	for i := 0; i < 1000; i++ {
		img := image(t, o, true)
		var steps []*meta.Plan
		var err error
		if write {
			steps, err = o.m.PlanWrite("", nil, false, nil)
		} else {
			steps, err = o.m.PlanRead("", nil)
		}
		must(t, err)
		if slices.ContainsFunc(steps, func(p *meta.Plan) bool { return p.Kind == kind }) {
			return o, img, logOf(t, o, steps)
		}
		_, _, err = seq.run(steps)
		must(t, err)
	}
	t.Fatalf("1000 padding operations planned no step of kind %d", kind)
	return nil, nil, nil
}

// kindAt returns the index of op's first entry of kind.
func kindAt(op []meta.LogEntry, kind meta.PlanKind) int {
	return slices.IndexFunc(op, func(le meta.LogEntry) bool { return le.Kind == kind })
}

// replayRefused replays entries on a client restored from img and fails
// unless the schedule refuses them.
func replayRefused(t *testing.T, o *ORAM, img []byte, what string, entries ...meta.LogEntry) {
	t.Helper()
	if _, err := restoreFrom(t, o, img).m.Replay(entries, nil); !errors.Is(err, meta.ErrReplay) {
		t.Fatalf("%s: %v, want ErrReplay", what, err)
	}
}

// TestReplayRefusesReshuffleNotDue: a reshuffle replays only after the access
// that exhausted its bucket. Logged alone, its bucket was read fewer than S
// times and the reshuffle is refused; a reshuffle of another bucket than the
// one owed is refused too. The operation as logged replays.
func TestReplayRefusesReshuffleNotDue(t *testing.T) {
	o, img, op := loggedOp(t, false, meta.ReshuffleStep)
	ri := kindAt(op, meta.ReshuffleStep)
	re := op[ri]
	replayRefused(t, o, img, "a reshuffle of a bucket read fewer than S times", re)
	other := re
	other.Bucket = (re.Bucket + 1) % o.geo.NumBuckets
	replayRefused(t, o, img, "a reshuffle of another bucket than the one owed", append(slices.Clone(op[:ri]), other)...)
	replayed, err := restoreFrom(t, o, img).m.Replay(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(op) || replayed[ri].Kind != meta.ReshuffleStep || replayed[ri].Buckets[0] != re.Bucket {
		t.Fatalf("the logged operation replayed as %d steps, want %d with a reshuffle of bucket %d at %d", len(replayed), len(op), re.Bucket, ri)
	}
}

// TestReplayRefusesAccessWhileEvictOwed: once a bump makes an evict-path due,
// neither an access nor another bump may come before it. The refused batches
// are otherwise whole: each operation in them replays on its own, and they end
// with the evict-path, owing nothing.
func TestReplayRefusesAccessWhileEvictOwed(t *testing.T) {
	o, img, op := loggedOp(t, true, meta.EvictStep)
	if len(op) != 2 || op[0].Kind != meta.WriteStep {
		t.Fatalf("a bump logged %d entries, want the bump and its eviction", len(op))
	}
	// A padding read from the same state: it too makes the evict-path due.
	steps, err := restoreFrom(t, o, img).m.PlanRead("", nil)
	must(t, err)
	read := logOf(t, o, steps)
	if read[len(read)-1].Kind != meta.EvictStep {
		t.Fatalf("a padding read from the state before the bump logged %+v, want it to end with an evict-path", read)
	}
	for _, whole := range [][]meta.LogEntry{op, read} {
		if _, err := restoreFrom(t, o, img).m.Replay(whole, nil); err != nil {
			t.Fatal(err)
		}
	}
	replayRefused(t, o, img, "an access while an evict-path is owed", append([]meta.LogEntry{op[0]}, read...)...)
	replayRefused(t, o, img, "a bump while an evict-path is owed", op[0], op[0], op[1])
}

// TestReplayRefusesWrongMaintenanceStep: an evict-path logged where a
// reshuffle is owed is refused, and so is a reshuffle where an evict-path is.
func TestReplayRefusesWrongMaintenanceStep(t *testing.T) {
	o, img, op := loggedOp(t, false, meta.ReshuffleStep)
	ri := kindAt(op, meta.ReshuffleStep)
	evict := meta.LogEntry{Kind: meta.EvictStep, BucketSlots: make([][]int, o.geo.Levels+1)}
	replayRefused(t, o, img, "an evict-path where a reshuffle is owed", append(slices.Clone(op[:ri]), evict)...)

	o, img, op = loggedOp(t, true, meta.EvictStep)
	for b := range o.geo.NumBuckets {
		reshuffle := meta.LogEntry{Kind: meta.ReshuffleStep, Bucket: b, BucketSlots: [][]int{{}}}
		replayRefused(t, o, img, fmt.Sprintf("a reshuffle of bucket %d where an evict-path is owed", b), op[0], reshuffle)
	}
}

// TestReplayRefusesBatchEndingOwed: a batch is whole operations, so its last
// entry leaves nothing owed; one that stops short of a due reshuffle or
// evict-path is refused.
func TestReplayRefusesBatchEndingOwed(t *testing.T) {
	o, img, op := loggedOp(t, false, meta.ReshuffleStep)
	replayRefused(t, o, img, "a batch ending before its reshuffle", op[:kindAt(op, meta.ReshuffleStep)]...)
	o, img, op = loggedOp(t, true, meta.EvictStep)
	replayRefused(t, o, img, "a batch ending before its evict-path", op[:kindAt(op, meta.EvictStep)]...)
}

// TestReplayRefusesEvictionReadCount: an evict-path reads every occupied real
// slot of a bucket and fillers up to Z, fewer only when the bucket has none
// left, so a logged bucket that lists one slot more than that, or fewer, is
// refused. The operation as logged replays.
func TestReplayRefusesEvictionReadCount(t *testing.T) {
	o, img, op := loggedOp(t, false, meta.EvictStep)
	ei := kindAt(op, meta.EvictStep)
	logged := op[ei].BucketSlots[0]
	if len(logged) != o.p.Z {
		t.Fatalf("the evict-path read %d slots of the root, want Z = %d", len(logged), o.p.Z)
	}
	if _, err := restoreFrom(t, o, img).m.Replay(op[:ei], nil); !errors.Is(err, meta.ErrReplay) {
		t.Fatalf("the operation cut before its evict-path: %v, want ErrReplay (owed)", err)
	}
	// A slot of the root the evict-path did not read. The replay compares a
	// bucket's logged count with the eviction's before it looks at any slot,
	// so whether the slot is still valid does not matter.
	extra := 0
	for slices.Contains(logged, extra) {
		extra++
	}
	for _, c := range []struct {
		name  string
		slots []int
	}{
		{"a root listing one slot more than its eviction reads", append(slices.Clone(logged), extra)},
		{"a root listing one slot only", logged[:1]},
	} {
		bad := slices.Clone(op)
		bad[ei].BucketSlots = slices.Clone(op[ei].BucketSlots)
		bad[ei].BucketSlots[0] = c.slots
		replayRefused(t, o, img, c.name, bad...)
	}
	if _, err := restoreFrom(t, o, img).m.Replay(op, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedKeyRefusedBeforePlanning: a read, or a replayed access, of a
// key longer than KeySize is refused before anything is planned — no step,
// no access counted, no filler consumed — as a write of one is, and as the
// sequential client's write of a value longer than ValueSize is.
func TestOversizedKeyRefusedBeforePlanning(t *testing.T) {
	p := testParams(64)
	p.KeySize, p.DisableEncryption = 8, true
	seq, _ := newTestSeq(t, p)
	o := seq.oram
	long := strings.Repeat("k", 20)
	before := image(t, o, true)
	if steps, err := o.m.PlanRead(long, nil); err == nil || len(steps) != 0 {
		t.Fatalf("a read of a %d-byte key planned %d steps, err=%v", len(long), len(steps), err)
	}
	slots := make([]int, o.geo.Levels+1)
	if steps, err := o.m.Replay([]meta.LogEntry{{Kind: meta.AccessStep, Key: long, Slots: slots}}, nil); !errors.Is(err, meta.ErrReplay) || len(steps) != 0 {
		t.Fatalf("a replayed access of a %d-byte key planned %d steps, err=%v, want ErrReplay", len(long), len(steps), err)
	}
	if steps, err := o.m.PlanWrite(long, nil, false, nil); err == nil || len(steps) != 0 {
		t.Fatalf("a write of a %d-byte key planned %d steps, err=%v", len(long), len(steps), err)
	}
	if err := seq.Write("k", make([]byte, p.ValueSize+1)); err == nil || len(seq.steps) != 0 {
		t.Fatalf("a write of a %d-byte value planned %d steps, err=%v", p.ValueSize+1, len(seq.steps), err)
	}
	if !bytes.Equal(image(t, o, true), before) {
		t.Fatal("a refused key or value moved the metadata")
	}
}

// withEvictCount returns a copy of batch record rec with the slot count of
// the first bucket of its first evict-path set to n (meta/batchlog.go's
// layout: an 11-byte header, then each entry led by its kind byte).
func withEvictCount(rec []byte, n int) []byte {
	be := binary.BigEndian
	keySize, pathLen, z, w := int(be.Uint16(rec)), int(be.Uint16(rec[2:])), int(be.Uint16(rec[4:])), int(rec[6])
	out := slices.Clone(rec)
	for b := out[11:]; len(b) > 0; {
		switch meta.PlanKind(b[0]) {
		case meta.AccessStep:
			b = b[1+2+keySize+4+pathLen*w:]
		case meta.ReshuffleStep:
			b = b[1+4+2+z*w:]
		case meta.EvictStep:
			be.PutUint16(b[1:], uint16(n))
			return out
		default:
			b = b[1:]
		}
	}
	return nil
}

// TestBatchLogRoundTrip: every logged step decodes to what it planned — its
// kind, key, leaf and slots, bucket by bucket — and an access the stash
// serves is not logged. A view read after its steps ran is refused.
func TestBatchLogRoundTrip(t *testing.T) {
	seq, _ := newTestSeq(t, scheduleParams())
	o := seq.ORAM()
	kinds := make(map[meta.PlanKind]int)
	served := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("k%d", i/3%24) // written, then read at once: the stash serves it
		if i%3 == 2 {
			key = fmt.Sprintf("k%d", i*7%24)
		}
		var steps []*meta.Plan
		var err error
		if i%3 == 0 {
			steps, err = o.m.PlanWrite(key, []byte("v"), false, nil)
		} else {
			steps, err = o.m.PlanRead(key, nil)
		}
		must(t, err)
		entries := logOf(t, o, steps)
		j := 0
		for _, p := range steps {
			if p.Kind == meta.AccessStep && len(p.Reads) == 0 {
				served++
				continue
			}
			le := entries[j]
			j++
			kinds[le.Kind]++
			want := meta.LogEntry{Kind: p.Kind}
			switch p.Kind {
			case meta.AccessStep:
				want.Key, want.Leaf, want.Slots = p.Key, p.Leaf, pathSlots(p)
			case meta.EvictStep:
				want.BucketSlots = evictSlots(p)
			case meta.ReshuffleStep:
				want.Bucket, want.BucketSlots = p.Buckets[0], evictSlots(p)
			}
			if fmt.Sprint(le) != fmt.Sprint(want) {
				t.Fatalf("op %d: logged %+v, the step planned %+v", i, le, want)
			}
		}
		l := o.m.BatchLog(slices.Clone(steps))
		_, _, err = seq.run(steps)
		must(t, err)
		if err := l.Encode(make([]byte, l.EncodedSize())); err == nil {
			t.Fatalf("op %d: a log view encoded after its steps completed", i)
		}
	}
	for _, k := range []meta.PlanKind{meta.AccessStep, meta.EvictStep, meta.ReshuffleStep, meta.WriteStep} {
		if kinds[k] == 0 {
			t.Fatalf("the workload logged no step of kind %d: %v", k, kinds)
		}
	}
	if served == 0 {
		t.Fatal("the stash served no access: the test would not show it unlogged")
	}
}

// TestDecodeBatchLogRejectsMalformed: a record whose counts or lengths
// disagree with its bytes is refused, never read past.
func TestDecodeBatchLogRejectsMalformed(t *testing.T) {
	o, _, _ := loggedOp(t, false, meta.ReshuffleStep)
	steps, err := o.m.PlanWrite("", nil, false, nil)
	must(t, err)
	read, err := o.m.PlanRead("", nil)
	must(t, err)
	l := o.m.BatchLog(append(steps, read...))
	good := make([]byte, l.EncodedSize())
	must(t, l.Encode(good))
	// The record's header is 11 bytes and a write's entry its kind byte
	// (meta/batchlog.go): the read's entry follows.
	const header = 11
	access := header + 1
	for name, mutate := range map[string]func([]byte) []byte{
		"short header":    func(b []byte) []byte { return b[:header-1] },
		"slot width 3":    func(b []byte) []byte { b[6] = 3; return b },
		"entry count":     func(b []byte) []byte { binary.BigEndian.PutUint32(b[7:], uint32(len(b))); return b },
		"unknown kind":    func(b []byte) []byte { b[header] = 9; return b },
		"truncated entry": func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte":   func(b []byte) []byte { return append(b, 0) },
		"key length":      func(b []byte) []byte { binary.BigEndian.PutUint16(b[access+1:], uint16(o.p.KeySize+1)); return b },
	} {
		if _, err := meta.DecodeBatchLog(mutate(slices.Clone(good))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeBatchLog feeds hostile batch records to the decoder and what it
// accepts to Replay on a fresh client: nothing may panic, every entry decoded
// is of a known kind, and a replay either plans one step per entry or is
// refused.
func FuzzDecodeBatchLog(f *testing.F) {
	p := scheduleParams()
	p.DisableEncryption = true
	o, err := New(nil, p)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		var steps []*meta.Plan
		if i%2 == 0 {
			steps, err = o.m.PlanWrite(fmt.Sprintf("k%d", i), nil, false, nil)
		} else {
			steps, err = o.m.PlanRead("", nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		l := o.m.BatchLog(steps)
		b := make([]byte, l.EncodedSize())
		if err := l.Encode(b); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Padding reads on a fresh client up to its first evict-path, its root's
	// slot list cut to one slot and grown to Z+1 (refused by the decoder).
	fresh, err := New(nil, p)
	if err != nil {
		f.Fatal(err)
	}
	var steps []*meta.Plan
	for !slices.ContainsFunc(steps, func(p *meta.Plan) bool { return p.Kind == meta.EvictStep }) {
		if steps, err = fresh.m.PlanRead("", steps); err != nil {
			f.Fatal(err)
		}
	}
	l := fresh.m.BatchLog(steps)
	rec := make([]byte, l.EncodedSize())
	if err := l.Encode(rec); err != nil {
		f.Fatal(err)
	}
	f.Add(withEvictCount(rec, 1))
	f.Add(withEvictCount(rec, p.Z+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := meta.DecodeBatchLog(b)
		if err != nil {
			return
		}
		for _, le := range entries {
			if le.Kind < meta.AccessStep || le.Kind > meta.WriteStep {
				t.Fatalf("decoder let entry kind %d through", le.Kind)
			}
		}
		fresh, err := New(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if steps, err := fresh.m.Replay(entries, nil); err == nil && len(steps) != len(entries) {
			t.Fatalf("replay planned %d steps for %d entries", len(steps), len(entries))
		}
	})
}
