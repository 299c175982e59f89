package oramexec

import (
	"sync/atomic"
	"testing"
)

// shardStep is one step of the fixed per-shard op sequence the fan-out test
// drives: writes, the epoch boundary, reads, more writes, a flush.
type shardStep int

const (
	stepWrite shardStep = iota
	stepFlushCommit
	stepBegin
	stepRead
	stepRewrite
	stepFlush
	numSteps
)

// runStep runs step s on h and returns an error instead of failing the test,
// so it can run on a fan-out helper.
func runStep(h *harness, s shardStep) error {
	writeBatch := func(ops []WriteOp) error {
		plan, err := h.exec.PlanWriteBatch(ops)
		if err != nil {
			return err
		}
		_, err = h.exec.Execute(plan)
		return err
	}
	switch s {
	case stepWrite:
		ops := []WriteOp{
			{Key: "k1", Value: []byte("v1")},
			{Key: "k2", Value: []byte("v2")},
			{Key: "k3", Value: []byte("v3")},
		}
		for i := 0; i < 9; i++ {
			ops = append(ops, WriteOp{})
		}
		return writeBatch(ops)
	case stepFlushCommit:
		if _, err := h.exec.Flush(); err != nil {
			return err
		}
		return h.backend.CommitEpoch(h.epoch)
	case stepBegin:
		h.begin()
		return nil
	case stepRead:
		ops := []ReadOp{{Key: "k1"}, {Key: "k2"}, {}, {Key: "k3"}}
		plan, err := h.exec.PlanReadBatch(ops)
		if err != nil {
			return err
		}
		_, err = h.exec.Execute(plan)
		return err
	case stepRewrite:
		return writeBatch([]WriteOp{{Key: "k1", Value: []byte("v1b")}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}})
	default:
		_, err := h.exec.Flush()
		return err
	}
}

// TestFanoutStagesMatchScalar pins the fan-out guarantee the proxy relies on:
// per-shard stages dispatched through a Fanout, one stage at a time, produce
// shard for shard the exact storage trace of running the same shards one
// after another. Each shard's part of a stage runs on one goroutine, so within
// a shard the trace is deterministic — compared event for event in order, not
// as a multiset.
func TestFanoutStagesMatchScalar(t *testing.T) {
	const shards = 4
	build := func() []*harness {
		hs := make([]*harness, shards)
		for i := range hs {
			// Distinct seeds across shards, identical seeds across runs.
			hs[i] = newHarness(t, testParams(64, uint64(20+i)), Config{})
			// Drop the init-tree writes: they fan out over parallel setup
			// workers, so their order is not part of the determinism claim.
			hs[i].rec.Reset()
		}
		return hs
	}

	serial := build()
	for i, h := range serial {
		for s := shardStep(0); s < numSteps; s++ {
			if err := runStep(h, s); err != nil {
				t.Fatalf("serial shard %d step %d: %v", i, s, err)
			}
		}
	}

	parallel := build()
	errs := make([]error, shards)
	f := NewFanout(shards, func(s shardStep, i int) {
		if errs[i] == nil {
			errs[i] = runStep(parallel[i], s)
		}
	})
	defer f.Close()
	for s := shardStep(0); s < numSteps; s++ {
		f.Run(s)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("parallel shard %d: %v", i, err)
		}
	}

	for i := range serial {
		a, b := serial[i].rec.Events(), parallel[i].rec.Events()
		if len(a) != len(b) {
			t.Fatalf("shard %d: serial trace has %d events, parallel %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("shard %d: trace diverges at event %d: serial %+v vs parallel %+v", i, j, a[j], b[j])
			}
		}
		serial[i].checkInvariant(t)
		parallel[i].checkInvariant(t)
	}
}

// TestFanoutRunsEveryShardOnce covers the fan-out's edges: every shard runs
// each stage exactly once, with the stage's value; concurrent callers
// serialize; a dispatch allocates nothing; and Close stops the helpers, after
// which Run still visits every shard, on the caller.
func TestFanoutRunsEveryShardOnce(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		hits := make([]int, n)
		var running, overlap atomic.Int32
		f := NewFanout(n, func(s int, i int) {
			if running.Add(1) > int32(n) {
				overlap.Store(1)
			}
			hits[i] += s
			running.Add(-1)
		})
		f.Run(1)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: shard %d ran %d times", n, i, h)
			}
		}
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func() {
				for k := 0; k < 50; k++ {
					f.Run(1)
				}
				done <- struct{}{}
			}()
		}
		for g := 0; g < 4; g++ {
			<-done
		}
		if overlap.Load() != 0 {
			t.Fatalf("n=%d: two Runs overlapped", n)
		}
		if !raceEnabled {
			if a := testing.AllocsPerRun(100, func() { f.Run(0) }); a != 0 {
				t.Errorf("n=%d: %.1f allocations per Run, want 0", n, a)
			}
		}
		f.Close()
		f.Close()
		f.Run(2)
		for i, h := range hits {
			if h != 203 {
				t.Fatalf("n=%d: shard %d counted %d, want 203", n, i, h)
			}
		}
	}
}
