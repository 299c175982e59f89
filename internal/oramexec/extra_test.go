package oramexec

import (
	"bytes"
	"fmt"
	"testing"

	"obladi/internal/ringoram/meta"
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

// TestOversizedValueRefusedBeforePlanning: a write batch holding a value one
// byte over ValueSize is refused before the machine plans anything — no
// step, no access counted, the full checkpoint image byte for byte what it
// was. (ringoram's TestOversizedKeyRefusedBeforePlanning sends one through
// the sequential client.)
func TestOversizedValueRefusedBeforePlanning(t *testing.T) {
	p := testParams(64, 9)
	h := newHarness(t, p, Config{})
	m := h.oram.Machine()
	before, err := m.EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.exec.PlanWriteBatch([]WriteOp{{Key: "k", Value: make([]byte, p.ValueSize+1)}})
	after, _ := m.EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
	if accesses, _ := m.Counters(); err == nil || len(h.exec.writePlan.tasks) != 0 || accesses != 0 || !bytes.Equal(before, after) {
		t.Fatalf("err=%v, %d steps planned, %d accesses counted, image unchanged %v", err, len(h.exec.writePlan.tasks), accesses, bytes.Equal(before, after))
	}
}

// TestStatsRaceFree: Stats reads only atomics. One goroutine polls it while
// epochs of a read batch and a write batch run, each sealed and flushed by a
// committer goroutine beside the next epoch's batches, as the proxy's
// boundary does, and the race detector watches. The stash peak never falls,
// and at the end the gauges are the machine's values.
func TestStatsRaceFree(t *testing.T) {
	h := newHarness(t, testParams(64, 12), Config{})
	stop, fell := make(chan struct{}), make(chan string, 1)
	go func() {
		defer close(fell)
		for peak := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			s := h.exec.Stats()
			if s.StashPeak < peak {
				fell <- fmt.Sprintf("the stash peak fell from %d to %d", peak, s.StashPeak)
				return
			}
			peak = s.StashPeak
		}
	}()
	flushed := make(chan error, 1)
	flushed <- nil
	for e := 0; e < 12; e++ {
		h.runReads(t, fmt.Sprint("k", e), fmt.Sprint("k", e+1), "")
		h.runWrites(t, map[string]string{fmt.Sprint("k", e): "v", fmt.Sprint("k", e+3): "w"}, 2)
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		sealed, err := h.exec.SealEpoch()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := h.exec.FlushSealed(sealed)
			flushed <- err
		}()
		h.begin()
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	close(stop)
	if msg, ok := <-fell; ok {
		t.Fatal(msg)
	}
	resident := 0
	for b := range h.exec.resident {
		cur, _ := h.exec.m.Local(b)
		for _, blk := range h.oram.Image(cur).Blocks {
			resident += len(blk)
		}
	}
	if s, m := h.exec.Stats(), h.oram.Machine(); s.StashPeak != m.StashPeak() || s.ResidentBytes != int64(resident) || resident == 0 {
		t.Fatalf("stats report a stash peak of %d and %d resident bytes, the machine %d and %d", s.StashPeak, s.ResidentBytes, m.StashPeak(), resident)
	}
}
