package oramexec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// Step tags of the plan digest: one per kind of step the ORAM plans, an access
// the stash serves with no reads apart.
const (
	digestAccess    = 'A'
	digestCached    = 'C'
	digestWrite     = 'W'
	digestEvict     = 'E'
	digestReshuffle = 'R'
)

// planDigest hashes the public fields of one planned step: its kind, its key
// and leaf (accesses), the buckets it rewrites (evictions and reshuffles) and
// each read's bucket, slot, planned version and local flag. A write step is its
// tag alone.
type planDigest struct {
	h     hash.Hash
	kinds map[byte]int
}

func newPlanDigest() *planDigest { return &planDigest{h: sha256.New(), kinds: make(map[byte]int)} }

func (d *planDigest) int(v int) { d.h.Write(binary.BigEndian.AppendUint64(nil, uint64(v))) }

func (d *planDigest) step(kind byte, key string, leaf int, buckets []int, reads []meta.SlotRead) {
	d.kinds[kind]++
	d.h.Write([]byte{kind})
	if kind == digestWrite {
		return
	}
	d.int(len(key))
	d.h.Write([]byte(key))
	d.int(leaf)
	d.int(len(buckets))
	for _, b := range buckets {
		d.int(b)
	}
	d.int(len(reads))
	for _, r := range reads {
		d.int(r.Bucket)
		d.int(r.Slot)
		d.int(int(r.Ver))
		if r.Local() {
			d.h.Write([]byte{1})
		} else {
			d.h.Write([]byte{0})
		}
	}
}

// batch hashes every step of a planned batch, in plan order.
func (d *planDigest) batch(plan *BatchPlan) {
	for _, t := range plan.tasks {
		s := t.step
		switch s.Kind {
		case meta.AccessStep:
			if len(s.Reads) == 0 {
				d.step(digestCached, s.Key, s.Leaf, nil, nil)
			} else {
				d.step(digestAccess, s.Key, s.Leaf, nil, s.Reads)
			}
		case meta.WriteStep:
			d.step(digestWrite, "", -1, nil, nil)
		case meta.EvictStep:
			d.step(digestEvict, "", -1, s.Buckets, s.Reads)
		case meta.ReshuffleStep:
			d.step(digestReshuffle, "", -1, s.Buckets, s.Reads)
		}
	}
}

func (d *planDigest) results(res []ReadResult) {
	for _, r := range res {
		d.int(len(r.Key))
		d.h.Write([]byte(r.Key))
		if r.Found {
			d.int(len(r.Value))
			d.h.Write(r.Value)
		} else {
			d.int(-1)
		}
	}
}

func (d *planDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestParams make every kind of step frequent: with S = A the root runs out
// of dummies between two evict-paths, so early reshuffles are planned too.
func digestParams() ringoram.Params {
	return ringoram.Params{NumBlocks: 64, Z: 4, S: 5, A: 5, KeySize: 16, ValueSize: 32, Seed: 1729}
}

// digestEpoch is one epoch of the digest workload: a read batch (real keys,
// a key never written, padding), the write batch (with padding and a delete),
// and a read batch that starts with keys the write batch just put in the
// stash, which serves the last of them with no reads unless an evict-path
// followed it. The last epoch, which is replayed, runs its write batch last,
// as every epoch of the proxy does: a log names no written key, so a replay
// cannot follow a read of a key the epoch wrote before it.
func digestEpoch(e int) (reads [][]ReadOp, writes []WriteOp) {
	key := func(i int) string { return fmt.Sprintf("k%02d", i%48) }
	for i := 0; i < 5; i++ {
		writes = append(writes, WriteOp{Key: key(e*3 + i + 37), Value: []byte(fmt.Sprintf("v%d-%d", e, i)), Tombstone: i == 4 && e%3 == 2})
	}
	last := key(e*11 + 5)
	writes = append(writes, WriteOp{}, WriteOp{}, WriteOp{Key: last, Value: []byte(fmt.Sprintf("w%d", e))})
	reads = append(reads,
		[]ReadOp{{Key: key(e * 7)}, {}, {Key: fmt.Sprintf("ghost%d", e)}, {Key: key(e*5 + 1)}},
		[]ReadOp{{Key: last}, {Key: writes[0].Key}, {}, {Key: key(e*5 + 9)}})
	for _, ops := range reads { // a batch's keys are distinct: repeats pad
		for i := range ops {
			for j := 0; j < i; j++ {
				if ops[i].Key == ops[j].Key {
					ops[i].Key = ""
				}
			}
		}
	}
	return reads, writes
}

const digestEpochs = 12

// TestPlanDigestGolden pins every plan the ORAM makes for a seeded workload,
// as the executor, its replay of an aborted epoch and the sequential ORAM
// drive it: the draws, the plan order (an access, then the early reshuffles
// and evict-paths it makes due), which reads are local, and the sequential
// ORAM's per-slot trace. A change to any of them changes a digest.
func TestPlanDigestGolden(t *testing.T) {
	const (
		wantExec   = "decf75cf218495378908f5ee9bcbad2682a578995b2ce37a9414f959190d64ea"
		wantReplay = "8b88c98e37b1adfa076b11ea4d970bf3784fd5721ab66d0e8d0bccb77711173d"
		wantSeq    = "99736982809071c1c18aecf133fe2c43cf9eea603c07af91744b698c3729eb44"
	)
	p := digestParams()
	h := newHarness(t, p, Config{})
	d := newPlanDigest()
	var snap []byte
	var committed uint64
	var logged [][]meta.LogEntry
	for e := 0; e < digestEpochs; e++ {
		last := e == digestEpochs-1
		if last {
			var err error
			if snap, err = h.oram.Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0); err != nil {
				t.Fatal(err)
			}
			committed = h.epoch - 1
		}
		reads, writes := digestEpoch(e)
		runReads := func(ops []ReadOp) {
			plan, err := h.exec.PlanReadBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			d.batch(plan)
			if last {
				logged = append(logged, decodeLog(t, plan.Log()))
			}
			res, err := h.exec.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			d.results(res)
		}
		runReads(reads[0])
		if last { // a replayed epoch ends with its write batch, as the proxy's do
			runReads(reads[1])
		}
		plan, err := h.exec.PlanWriteBatch(writes)
		if err != nil {
			t.Fatal(err)
		}
		d.batch(plan)
		if last {
			logged = append(logged, decodeLog(t, plan.Log()))
		}
		if _, err := h.exec.Execute(plan); err != nil {
			t.Fatal(err)
		}
		if !last {
			runReads(reads[1])
		}
		if !last {
			h.endEpoch(t)
		}
	}
	for _, k := range []byte{digestAccess, digestCached, digestWrite, digestEvict, digestReshuffle} {
		if d.kinds[k] == 0 {
			t.Fatalf("the workload planned no %c step: the digest would not pin it (%v)", k, d.kinds)
		}
	}
	if got := d.sum(); got != wantExec {
		t.Errorf("executor plan digest %s, want %s", got, wantExec)
	}

	// The last epoch aborts: roll back, restore the checkpoint taken before
	// it, load the resident levels and replay its logged batches.
	if err := h.rec.RollbackTo(committed); err != nil {
		t.Fatal(err)
	}
	restored, err := ringoram.Restore(cryptoutil.KeyFromSeed([]byte("exec")), p, snap)
	if err != nil {
		t.Fatal(err)
	}
	exec := New(restored, h.rec, Config{})
	if err := exec.LoadResident(); err != nil {
		t.Fatal(err)
	}
	exec.BeginEpoch(h.epoch + 1)
	d = newPlanDigest()
	for _, batch := range logged {
		plan, err := exec.planReplay(batch)
		if err != nil {
			t.Fatal(err)
		}
		d.batch(plan)
		if _, err := exec.Execute(plan); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.sum(); got != wantReplay {
		t.Errorf("replay plan digest %s, want %s", got, wantReplay)
	}

	// The sequential ORAM over the same operations (it has no padding
	// write): its slot reads and bucket writes, one call at a time.
	st := &traceStore{MemBackend: storage.NewMemBackend(p.Geometry().NumBuckets), d: newPlanDigest()}
	seq, err := ringoram.NewSeq(st, cryptoutil.KeyFromSeed([]byte("seq")), p)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < digestEpochs; e++ {
		reads, writes := digestEpoch(e)
		seqReads := func(ops []ReadOp) {
			for _, op := range ops {
				if op.Key == "" {
					if err := seq.DummyRead(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				v, found, err := seq.Read(op.Key)
				if err != nil {
					t.Fatal(err)
				}
				st.d.results([]ReadResult{{Key: op.Key, Value: v, Found: found}})
			}
		}
		seqReads(reads[0])
		if e == digestEpochs-1 {
			seqReads(reads[1])
		}
		for _, op := range writes {
			switch {
			case op.Key == "":
			case op.Tombstone:
				err = seq.Delete(op.Key)
			default:
				err = seq.Write(op.Key, op.Value)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if e != digestEpochs-1 {
			seqReads(reads[1])
		}
	}
	if got := st.d.sum(); got != wantSeq {
		t.Errorf("sequential trace digest %s, want %s", got, wantSeq)
	}
}

// traceStore hashes every call the sequential ORAM makes, in order: each
// read call and the bucket and slot of its refs, each write call and the
// bucket and width of its buckets. A call carries one slot or one bucket, so
// a call that carried more would hash differently.
type traceStore struct {
	*storage.MemBackend
	d *planDigest
}

func (s *traceStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	s.d.h.Write([]byte{'r'})
	for _, r := range refs {
		s.d.int(r.Bucket)
		s.d.int(r.Slot)
	}
	return s.MemBackend.ReadSlots(refs)
}

func (s *traceStore) WriteBuckets(writes []storage.BucketWrite) error {
	s.d.h.Write([]byte{'w'})
	for _, w := range writes {
		s.d.int(w.Bucket)
		s.d.int(len(w.Slots))
	}
	return s.MemBackend.WriteBuckets(writes)
}
