package ringoram

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"obladi/internal/cryptoutil"
)

// mapStore is an in-memory Store that enforces the bucket invariant from the
// server's perspective: no slot may be read twice between writes of its
// bucket.
type mapStore struct {
	mu        sync.Mutex
	buckets   map[int][][]byte
	readSince map[int]map[int]bool
	violation error
	reads     int
	writes    int
}

func newMapStore() *mapStore {
	return &mapStore{
		buckets:   make(map[int][][]byte),
		readSince: make(map[int]map[int]bool),
	}
}

func (s *mapStore) ReadSlot(bucket, slot int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	slots, ok := s.buckets[bucket]
	if !ok || slot < 0 || slot >= len(slots) {
		return nil, fmt.Errorf("mapStore: no bucket %d slot %d", bucket, slot)
	}
	set := s.readSince[bucket]
	if set == nil {
		set = make(map[int]bool)
		s.readSince[bucket] = set
	}
	if set[slot] && s.violation == nil {
		s.violation = fmt.Errorf("bucket %d slot %d read twice between writes", bucket, slot)
	}
	set[slot] = true
	return slots[slot], nil
}

func (s *mapStore) WriteBucket(bucket int, slots [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	kept := make([][]byte, len(slots)) // a store copies what it keeps
	for i, sl := range slots {
		kept[i] = bytes.Clone(sl)
	}
	s.buckets[bucket] = kept
	delete(s.readSince, bucket)
	return nil
}

func testParams(n int) Params {
	return Params{
		NumBlocks: n,
		Z:         4,
		S:         6,
		A:         4,
		KeySize:   16,
		ValueSize: 32,
		Seed:      42,
	}
}

func newTestSeq(t *testing.T, p Params) (*Seq, *mapStore) {
	t.Helper()
	store := newMapStore()
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("test")), p)
	if err != nil {
		t.Fatal(err)
	}
	return seq, store
}

func TestSeqReadUnknownKey(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	v, found, err := seq.Read("nope")
	if err != nil {
		t.Fatal(err)
	}
	if found || v != nil {
		t.Fatalf("unknown key: %q %v", v, found)
	}
}

func TestSeqWriteRead(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	if err := seq.Write("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := seq.Read("k1")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "v1" {
		t.Fatalf("read %q %v", v, found)
	}
}

func TestSeqOverwrite(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	must(t, seq.Write("k", []byte("old")))
	must(t, seq.Write("k", []byte("new")))
	v, found, err := seq.Read("k")
	if err != nil || !found || string(v) != "new" {
		t.Fatalf("read %q %v %v", v, found, err)
	}
}

func TestSeqDelete(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	must(t, seq.Write("k", []byte("v")))
	must(t, seq.Delete("k"))
	_, found, err := seq.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key still found")
	}
	// Rewriting after delete works.
	must(t, seq.Write("k", []byte("back")))
	v, found, _ := seq.Read("k")
	if !found || string(v) != "back" {
		t.Fatalf("resurrected key: %q %v", v, found)
	}
}

func TestSeqManyKeysChurn(t *testing.T) {
	const n = 48
	p := testParams(64)
	seq, store := newTestSeq(t, p)
	oracle := make(map[string]string)
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%02d", i)
			v := fmt.Sprintf("val-%02d-%d", i, round)
			must(t, seq.Write(k, []byte(v)))
			oracle[k] = v
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%02d", i)
			v, found, err := seq.Read(k)
			if err != nil {
				t.Fatalf("round %d read %s: %v", round, k, err)
			}
			if !found || string(v) != oracle[k] {
				t.Fatalf("round %d: %s = %q (found=%v), want %q", round, k, v, found, oracle[k])
			}
		}
	}
	if store.violation != nil {
		t.Fatalf("bucket invariant: %v", store.violation)
	}
	if limit := seq.ORAM().Params().StashLimit; seq.ORAM().StashPeak() > limit {
		t.Fatalf("stash peak %d exceeded limit %d", seq.ORAM().StashPeak(), limit)
	}
}

func TestSeqEmptyAndLargeValues(t *testing.T) {
	p := testParams(16)
	seq, _ := newTestSeq(t, p)
	must(t, seq.Write("empty", nil))
	v, found, err := seq.Read("empty")
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, found, err)
	}
	maxVal := bytes.Repeat([]byte{0xCC}, p.ValueSize)
	must(t, seq.Write("max", maxVal))
	v, found, _ = seq.Read("max")
	if !found || !bytes.Equal(v, maxVal) {
		t.Fatal("max-size value corrupted")
	}
	if err := seq.Write("big", make([]byte, p.ValueSize+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestSeqCapacity(t *testing.T) {
	p := testParams(8)
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 8; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
	}
	err := seq.Write("overflow", []byte("v"))
	if err == nil {
		t.Fatal("write beyond NumBlocks accepted")
	}
	// Existing keys still writable.
	must(t, seq.Write("k0", []byte("v2")))
}

func TestSeqEvictionScheduleDeterministic(t *testing.T) {
	p := testParams(64)
	seq, _ := newTestSeq(t, p)
	for i := 0; i < 3*p.A; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i%8), []byte("v")))
	}
	acc, ev := seq.ORAM().Counters()
	if acc != uint64(3*p.A) {
		t.Fatalf("access count %d", acc)
	}
	if ev != 3 {
		t.Fatalf("evictions %d, want 3 (A=%d)", ev, p.A)
	}
}

func TestSeqDummyRead(t *testing.T) {
	seq, store := newTestSeq(t, testParams(64))
	must(t, seq.Write("k", []byte("v")))
	before := store.reads
	must(t, seq.DummyRead())
	if store.reads == before {
		t.Fatal("dummy read issued no storage reads")
	}
	v, found, _ := seq.Read("k")
	if !found || string(v) != "v" {
		t.Fatalf("data disturbed by dummy read: %q %v", v, found)
	}
}

func TestSeqKeyTooLong(t *testing.T) {
	p := testParams(16)
	seq, _ := newTestSeq(t, p)
	longKey := string(bytes.Repeat([]byte("x"), p.KeySize+1))
	err := seq.Write(longKey, []byte("v"))
	if err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestSeqPlaintextMode(t *testing.T) {
	p := testParams(32)
	p.DisableEncryption = true
	store := newMapStore()
	seq, err := NewSeq(store, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("k", []byte("plain")))
	v, found, err := seq.Read("k")
	if err != nil || !found || string(v) != "plain" {
		t.Fatalf("plaintext mode: %q %v %v", v, found, err)
	}
}

func TestSeqNilKeyRejected(t *testing.T) {
	p := testParams(32)
	if _, err := NewSeq(newMapStore(), nil, p); err == nil {
		t.Fatal("encryption enabled with nil key accepted")
	}
}

func TestSeqDummilessWritesSkipReads(t *testing.T) {
	// A dummiless write between evictions performs zero physical reads.
	p := testParams(64)
	p.A = 6
	seq, store := newTestSeq(t, p)
	before := store.reads
	must(t, seq.Write("w1", []byte("v")))
	if store.reads != before {
		t.Fatalf("dummiless write issued %d reads", store.reads-before)
	}
}

func TestSeqWriteVersionsAdvance(t *testing.T) {
	seq, _ := newTestSeq(t, testParams(64))
	o := seq.ORAM()
	root0 := o.meta[0].writeVer
	for i := 0; i < 2*o.p.A; i++ {
		must(t, seq.Write(fmt.Sprintf("k%d", i), []byte("v")))
	}
	if o.meta[0].writeVer <= root0 {
		t.Fatal("root bucket version did not advance across evictions")
	}
}

func TestSeqTamperDetected(t *testing.T) {
	p := testParams(32)
	p.Seed = 7
	store := newMapStore()
	seq, err := NewSeq(store, cryptoutil.KeyFromSeed([]byte("t")), p)
	if err != nil {
		t.Fatal(err)
	}
	must(t, seq.Write("k", []byte("v")))
	// Force the block into the tree.
	geo := seq.ORAM().Geometry()
	for i := 0; i < 4*geo.Leaves && seq.ORAM().StashSize() > 0; i++ {
		plan, err := seq.ORAM().PlanEvict()
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.runEviction(plan); err != nil {
			t.Fatal(err)
		}
	}
	if seq.ORAM().StashSize() != 0 {
		t.Fatal("could not flush stash")
	}
	// Corrupt every slot the server holds.
	store.mu.Lock()
	for _, slots := range store.buckets {
		for _, s := range slots {
			if len(s) > 0 {
				s[0] ^= 0xFF
			}
		}
	}
	store.readSince = make(map[int]map[int]bool)
	store.mu.Unlock()
	if _, _, err := seq.Read("k"); err == nil {
		t.Fatal("tampered block accepted")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
