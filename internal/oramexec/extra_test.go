package oramexec

import (
	"testing"

	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

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
	if n, err := h.exec.Flush(); n != 0 || err != nil {
		t.Fatalf("a second flush wrote %d buckets (%v): the epoch's versions were not dropped by the first", n, err)
	}
}

// TestReplayUnknownStepKind rejects corrupt log entries.
func TestReplayUnknownStepKind(t *testing.T) {
	h := newHarness(t, testParams(64, 24), Config{})
	if err := h.exec.ReplayBatch([]meta.LogEntry{{Kind: 99}}); err == nil {
		t.Fatal("unknown step kind accepted")
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
