package oramexec

import (
	"testing"

	"obladi/internal/storage"
)

// TestExecutorDummyBackend runs the executor against the measurement-only
// dummy backend (lossy storage, TolerateCorrupt).
func TestExecutorDummyBackend(t *testing.T) {
	p := testParams(64, 22)
	p.TolerateCorrupt = true
	p.DisableEncryption = true
	backend := storage.NewDummyBackend(p.Geometry().NumBuckets, 1)
	oram, err := InitORAM(backend, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	exec := New(oram, backend, Config{})
	exec.BeginEpoch(1)
	plan, err := exec.PlanReadBatch([]ReadOp{{Key: "a"}, {Key: "b"}, {}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Found {
			t.Fatalf("dummy backend produced data: %+v", r)
		}
	}
	if _, err := exec.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorStatsAccounting cross-checks the executor counters.
func TestExecutorStatsAccounting(t *testing.T) {
	h := newHarness(t, testParams(64, 23), Config{})
	h.runWrites(t, map[string]string{"a": "1", "b": "2"}, 0)
	h.runReads(t, "a", "b", "")
	st := h.exec.Stats()
	if st.RemoteReads+st.LocalReads == 0 {
		t.Fatal("no reads recorded")
	}
	n, err := h.exec.Flush()
	if err != nil {
		t.Fatal(err)
	}
	st = h.exec.Stats()
	if st.BucketWrites != int64(n) {
		t.Fatalf("flush wrote %d, stats say %d", n, st.BucketWrites)
	}
	if h.exec.BufferedBuckets() != 0 {
		t.Fatal("buffer not cleared by flush")
	}
}

// TestReplayUnknownLogKind rejects corrupt log entries.
func TestReplayUnknownLogKind(t *testing.T) {
	h := newHarness(t, testParams(64, 24), Config{})
	if err := h.exec.ReplayBatch([]LogEntry{{Kind: 99}}); err == nil {
		t.Fatal("unknown log kind accepted")
	}
}

// TestStoreAdapterImplementsInterface exercises the adapter passthrough.
func TestStoreAdapterPassthrough(t *testing.T) {
	backend := storage.NewMemBackend(2)
	a := StoreAdapter{B: backend, Epoch: 5}
	if err := a.WriteBucket(1, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadSlot(1, 0)
	if err != nil || string(got) != "x" {
		t.Fatalf("adapter round trip: %q %v", got, err)
	}
	// The write must carry the adapter's epoch tag (visible via rollback).
	if err := backend.RollbackTo(4); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadSlot(1, 0); err == nil {
		t.Fatal("write survived rollback below adapter epoch")
	}
}
