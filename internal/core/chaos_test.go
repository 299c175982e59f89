package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"obladi/internal/storage"
)

// TestChaosCrashRecoverLoop runs concurrent clients against an auto-mode
// proxy with durability, kills the proxy at random points, recovers, and
// verifies that every acknowledged commit survives and the bucket invariant
// holds throughout. This is the end-to-end fate-sharing/durability stress.
func TestChaosCrashRecoverLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(77)
	cfg.BatchInterval = 500 * time.Microsecond
	cfg.EagerBatches = true
	cfg.ReadBatchSize = 16
	cfg.WriteBatchSize = 32
	cfg.FullCheckpointEvery = 3
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)

	acked := make(map[string]string) // commit-acknowledged state
	var ackedMu sync.Mutex

	for round := 0; round < 4; round++ {
		p, err := New(checker, cfg)
		if err != nil {
			t.Fatalf("round %d: open/recover: %v", round, err)
		}
		rng := rand.New(rand.NewPCG(uint64(round), 17))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				crng := rand.New(rand.NewPCG(uint64(round*10+c), 3))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("chaos-%d", crng.IntN(12))
					val := fmt.Sprintf("r%d-c%d-i%d", round, c, i)
					tx := p.Begin()
					if _, _, err := tx.Read(key); err != nil {
						continue
					}
					if err := tx.Write(key, []byte(val)); err != nil {
						continue
					}
					if err := tx.Commit(); err == nil {
						ackedMu.Lock()
						acked[key] = val
						ackedMu.Unlock()
					}
				}
			}(c)
		}
		// Let the system churn, then crash at a random moment.
		time.Sleep(time.Duration(5+rng.IntN(15)) * time.Millisecond)
		close(stop)
		wg.Wait()
		// "Crash": Close stops the epoch loop without flushing or
		// committing anything — exactly a process death from storage's
		// point of view (in-flight epoch state is simply gone). Abandoning
		// the proxy without Close would leave its epoch goroutine running
		// concurrently with the recovered instance, which no real crash
		// does.
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		// The next round's New() recovers. For the last round, verify.
	}

	// Final recovery and verification.
	p, err := New(checker, cfg)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer p.Close()
	ackedMu.Lock()
	want := make(map[string]string, len(acked))
	for k, v := range acked {
		want[k] = v
	}
	ackedMu.Unlock()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Skip("no commits acknowledged; host too slow for this schedule")
	}
	// The proxy runs in auto mode: its epoch loop drives batches, so the
	// verification transaction simply blocks on ReadMany (driving the
	// schedule manually here would race with the loop).
	got := map[string]string{}
	for attempt := 0; attempt < 20; attempt++ {
		tx := p.Begin()
		res, err := tx.ReadMany(keys)
		tx.Abort()
		if err != nil {
			if errors.Is(err, ErrAborted) || errors.Is(err, ErrEpochFull) {
				continue
			}
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Found {
				got[r.Key] = string(r.Value)
			}
		}
		break
	}
	for k, v := range want {
		// The acknowledged value may have been superseded by a LATER
		// acknowledged commit of the same key; the map holds the last ack
		// per key, but two clients can ack in either order. Accept any
		// acknowledged value for the key from the same round structure:
		// at minimum the key must exist with some committed value.
		if got[k] == "" {
			t.Fatalf("acknowledged key %q lost after crashes (last acked %q)", k, v)
		}
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

// TestChaosPipelinedCommitCrashLoop extends the crash/recover stress to the
// pipelined boundary's riskiest window: every round arms the commit gate so
// some boundary's commit record fails mid-flight — the proxy dies with one
// epoch sealed (flushed, checkpointed) but uncommitted while the next epoch
// is already issuing read batches. Every acknowledged commit must still
// survive recovery, and the bucket invariant must hold throughout.
func TestChaosPipelinedCommitCrashLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(91)
	cfg.BatchInterval = 500 * time.Microsecond
	cfg.EagerBatches = true
	cfg.ReadBatchSize = 16
	cfg.WriteBatchSize = 32
	cfg.FullCheckpointEvery = 3
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	gate := &commitGate{Backend: checker}

	acked := make(map[string]string)
	var ackedMu sync.Mutex

	for round := 0; round < 3; round++ {
		p, err := New(gate, cfg)
		if err != nil {
			t.Fatalf("round %d: open/recover: %v", round, err)
		}
		rng := rand.New(rand.NewPCG(uint64(round), 29))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				crng := rand.New(rand.NewPCG(uint64(round*10+c), 7))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("pchaos-%d", crng.IntN(12))
					val := fmt.Sprintf("r%d-c%d-i%d", round, c, i)
					tx := p.Begin()
					if _, _, err := tx.Read(key); err != nil {
						continue
					}
					if err := tx.Write(key, []byte(val)); err != nil {
						continue
					}
					if err := tx.Commit(); err == nil {
						ackedMu.Lock()
						acked[key] = val
						ackedMu.Unlock()
					}
				}
			}(c)
		}
		// Let the system churn, then fail the next commit record: the proxy
		// fail-stops between a boundary's seal and its commit.
		time.Sleep(time.Duration(5+rng.IntN(10)) * time.Millisecond)
		gate.arm(true)
		time.Sleep(5 * time.Millisecond)
		close(stop)
		wg.Wait()
		// Close drains the epoch loop and committer (the dying commit has
		// already delivered its error to its waiters).
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		gate.arm(false)
	}

	p, err := New(gate, cfg)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer p.Close()
	ackedMu.Lock()
	want := make(map[string]string, len(acked))
	for k, v := range acked {
		want[k] = v
	}
	ackedMu.Unlock()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Skip("no commits acknowledged; host too slow for this schedule")
	}
	got := map[string]string{}
	for attempt := 0; attempt < 20; attempt++ {
		tx := p.Begin()
		res, err := tx.ReadMany(keys)
		tx.Abort()
		if err != nil {
			if errors.Is(err, ErrAborted) || errors.Is(err, ErrEpochFull) {
				continue
			}
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Found {
				got[r.Key] = string(r.Value)
			}
		}
		break
	}
	for k := range want {
		if got[k] == "" {
			t.Fatalf("acknowledged key %q lost after a mid-commit crash", k)
		}
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

// TestEagerBatchesFireEarly verifies that a full batch fires before Δ in
// eager mode.
func TestEagerBatchesFireEarly(t *testing.T) {
	cfg := testConfig(78)
	cfg.BatchInterval = time.Second // Δ is huge; only eager firing can help
	cfg.EagerBatches = true
	cfg.ReadBatchSize = 2
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			tx := p.Begin()
			defer tx.Abort()
			_, _, err := tx.Read(fmt.Sprintf("k%d", i))
			done <- err
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, ErrAborted) {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("full batch did not fire before Δ in eager mode")
		}
	}
}

// TestEagerKickNeverFiresBoundary is the regression test for a trace-shape
// leak: a full-queue eager kick arriving after all R read batches had fired
// used to route into EndEpoch, so the epoch boundary's timing depended on
// how many keys clients had queued. Eager mode may only accelerate
// read-batch slots; the boundary must wait out its Δ slot.
func TestEagerKickNeverFiresBoundary(t *testing.T) {
	cfg := testConfig(92)
	cfg.BatchInterval = time.Minute // Δ is huge: only a kick could end the epoch early
	cfg.EagerBatches = true
	cfg.ReadBatches = 1
	cfg.ReadBatchSize = 1
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := p.Epoch()
	// The first read fills the queue; its eager kick legitimately fires the
	// epoch's only read batch.
	r1 := make(chan error, 1)
	go func() {
		tx := p.Begin()
		defer tx.Abort()
		_, _, rerr := tx.Read("a")
		r1 <- rerr
	}()
	if err := <-r1; err != nil {
		t.Fatal(err)
	}
	// All of the epoch's read-batch slots are spent, so the only schedule
	// slot a kick could fire now is the boundary. Another read is held through
	// the boundary window rather than queued, so kick the loop directly; the
	// epoch must not advance before Δ.
	go func() {
		tx := p.Begin()
		defer tx.Abort()
		tx.Read("b") // woken with an abort when the proxy closes
	}()
	for p.Stats().BoundaryReads == 0 {
		time.Sleep(time.Millisecond)
	}
	p.kick <- struct{}{}
	time.Sleep(20 * time.Millisecond)
	if got := p.Epoch(); got != start {
		t.Fatalf("epoch advanced %d -> %d on an eager kick: boundary timing depends on queued keys", start, got)
	}
}

// TestManyEpochsStatsConsistent sanity-checks the accounting over a longer
// auto-mode run.
func TestManyEpochsStatsConsistent(t *testing.T) {
	cfg := testConfig(79)
	cfg.BatchInterval = 200 * time.Microsecond
	cfg.DisableDurability = true
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		tx := p.Begin()
		tx.Write(fmt.Sprintf("k%d", time.Now().UnixNano()%32), []byte("v"))
		tx.Commit()
	}
	st := p.Stats()
	if st.Epochs < 2 {
		t.Fatalf("only %d epochs in 50ms at Δ=200µs", st.Epochs)
	}
	if st.RealReads > st.ReadBatchSlots {
		t.Fatalf("real reads %d exceed slots %d", st.RealReads, st.ReadBatchSlots)
	}
	if st.RealWrites > st.WriteSlots {
		t.Fatalf("real writes %d exceed slots %d", st.RealWrites, st.WriteSlots)
	}
	if st.Committed == 0 {
		t.Fatal("nothing committed")
	}
}
