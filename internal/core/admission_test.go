package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"obladi/internal/mvtso"
	"obladi/internal/storage"
)

// TestAdmissionShedsBeyondBudget pins the gate: an epoch with R×bread read
// slots admits exactly that many distinct keys and sheds the next one
// immediately — as a retryable abort carrying the retry-epoch hint — instead
// of queueing it to die at the seal.
func TestAdmissionShedsBeyondBudget(t *testing.T) {
	cfg := testConfig(11)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	budget := cfg.ReadBatches * cfg.ReadBatchSize
	tx := p.Begin()
	defer tx.Abort()
	var futures []*Future
	for i := 0; i < budget; i++ {
		futures = append(futures, tx.ReadAsync(fmt.Sprintf("k%d", i)))
	}
	// The budget is spoken for: the next distinct key must shed, now.
	over := p.Begin()
	defer over.Abort()
	start := time.Now()
	_, _, err := over.ReadAsync("overflow").Wait(context.Background())
	if err == nil {
		t.Fatal("over-budget read admitted")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("shed took %v: must be immediate, not wait out the epoch", time.Since(start))
	}
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrAborted) || !errors.Is(err, ErrEpochFull) {
		t.Fatalf("shed error %v must match ErrShed, ErrAborted and ErrEpochFull", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("no *ShedError in %v", err)
	}
	if want := p.Epoch() + 1; shed.RetryEpoch != want {
		t.Fatalf("RetryEpoch = %d, want %d", shed.RetryEpoch, want)
	}

	// A key another session already queued costs no new slot: joining its
	// waiters must not shed.
	joiner := p.Begin()
	defer joiner.Abort()
	jf := joiner.ReadAsync("k0")

	// Admission implies service: every admitted read resolves as its batch
	// fires — none aborts with "read batches exhausted".
	done := make(chan error, budget+1)
	for _, f := range append(futures, jf) {
		go func(f *Future) {
			_, _, err := f.Wait(context.Background())
			done <- err
		}(f)
	}
	waitQueued(t, p, budget)
	for i := 0; i < cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < budget+1; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted read aborted: %v", err)
		}
	}

	st := p.Stats()
	if st.ShedReads != 1 {
		t.Fatalf("ShedReads = %d, want 1", st.ShedReads)
	}
	if st.AdmittedSessions != 1 {
		t.Fatalf("AdmittedSessions = %d, want 1 (only tx queued new slots)", st.AdmittedSessions)
	}
}

// TestAdmissionBudgetShrinksWithBatches pins the high-water mark to the
// *remaining* schedule: after a batch fires, the epoch has fewer slots left,
// so the gate tightens accordingly.
func TestAdmissionBudgetShrinksWithBatches(t *testing.T) {
	cfg := testConfig(12)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	if err := p.Advance(); err != nil { // burn batch 1 empty
		t.Fatal(err)
	}
	tx := p.Begin()
	defer tx.Abort()
	tx.ReadAsync("a")
	tx.ReadAsync("b")
	_, _, err := tx.ReadAsync("c").Wait(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("third key after burning one of two batches: got %v, want shed", err)
	}
}

// TestBoundaryWindowReadHeldForNextEpoch pins the boundary-window rule: a
// read that arrives after the epoch's last read batch is not shed as
// overload. It waits for the seal, fails with the distinct boundary error
// once the next epoch is open, and an immediate retry is then served.
func TestBoundaryWindowReadHeldForNextEpoch(t *testing.T) {
	cfg := testConfig(14)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	for i := 0; i < cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	epoch := p.Epoch()
	tx := p.Begin()
	f := tx.ReadAsync("late")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, _, err := f.Wait(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("boundary-window read resolved before the seal: %v", err)
	}

	late := p.Begin()
	done := make(chan error, 1)
	go func() {
		_, _, err := late.Read("late")
		done <- err
	}()
	for p.Stats().BoundaryReads < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := p.Advance(); err != nil { // the seal opens the next epoch
		t.Fatal(err)
	}
	err = <-done
	if !errors.Is(err, ErrBoundaryWindow) || !errors.Is(err, ErrAborted) || !errors.Is(err, ErrEpochFull) {
		t.Fatalf("held read failed with %v; want ErrBoundaryWindow matching ErrAborted and ErrEpochFull", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatalf("boundary-window refusal %v must not read as overload", err)
	}
	if got := p.Epoch(); got != epoch+1 {
		t.Fatalf("held read released at epoch %d, want %d (the next epoch open)", got, epoch+1)
	}
	if st := p.Stats(); st.ShedReads != 0 || st.BoundaryReads != 2 {
		t.Fatalf("ShedReads = %d, BoundaryReads = %d; want 0 and 2", st.ShedReads, st.BoundaryReads)
	}

	// The instant retry lands in the fresh epoch and is served.
	retry := p.Begin()
	defer retry.Abort()
	go func() {
		_, _, err := retry.Read("late")
		done <- err
	}()
	waitQueued(t, p, 1)
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retry in the fresh epoch: %v", err)
	}
}

// TestFairSlotSchedulingRoundRobin pins the drain order: one key per session
// per pass, so a pipelining session cannot monopolize a batch ahead of
// single-read sessions that arrived after it.
func TestFairSlotSchedulingRoundRobin(t *testing.T) {
	cfg := testConfig(13)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 4
	p, _, _ := testProxy(t, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shards[0]

	// Session 1 pipelines five keys; sessions 2..4 want one each.
	for i := 0; i < 5; i++ {
		if err := p.admitFetchLocked(sh, mvtso.Timestamp(1), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 2; s <= 4; s++ {
		if err := p.admitFetchLocked(sh, mvtso.Timestamp(s), fmt.Sprintf("s%d", s)); err != nil {
			t.Fatal(err)
		}
	}

	got := sh.takeBatchLocked(nil, 4)
	want := []string{"p0", "s2", "s3", "s4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch 1 = %v, want %v (one key per session per pass)", got, want)
	}
	// Only the pipeliner remains; the next batch is all theirs, in order.
	got = sh.takeBatchLocked(nil, 4)
	want = []string{"p1", "p2", "p3", "p4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch 2 = %v, want %v", got, want)
	}
	if sh.queuedKeys != 0 || len(sh.ring) != 0 || len(sh.sessQ) != 0 || len(sh.pending) != 0 {
		t.Fatalf("drain left state: queuedKeys=%d ring=%d sessQ=%d pending=%d",
			sh.queuedKeys, len(sh.ring), len(sh.sessQ), len(sh.pending))
	}
}

// TestFairSchedulingCursorPersists pins that the round-robin cursor carries
// across batches: a session served last in batch n is not served first again
// in batch n+1 while others wait.
func TestFairSchedulingCursorPersists(t *testing.T) {
	cfg := testConfig(14)
	cfg.ReadBatches = 4
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shards[0]

	// Three sessions with two keys each; batches of two.
	for s := 1; s <= 3; s++ {
		for i := 0; i < 2; i++ {
			if err := p.admitFetchLocked(sh, mvtso.Timestamp(s), fmt.Sprintf("s%d-%d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var order []string
	for len(order) < 6 {
		order = append(order, sh.takeBatchLocked(nil, 2)...)
	}
	want := []string{"s1-0", "s2-0", "s3-0", "s1-1", "s2-1", "s3-1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v (cursor must persist across batches)", order, want)
	}
}

// TestAdmissionStatsCounters exercises the shed/queue-depth/admitted-session
// counters concurrently; run under -race this doubles as the atomic-access
// check the Stats contract requires.
func TestAdmissionStatsCounters(t *testing.T) {
	cfg := testConfig(16)
	cfg.BatchInterval = 300 * time.Microsecond
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	cfg.DisableDurability = true
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
				_ = p.PendingFetches()
			}
		}
	}()
	workers := 8
	workDone := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { workDone <- struct{}{} }()
			deadline := time.Now().Add(100 * time.Millisecond)
			for i := 0; time.Now().Before(deadline); i++ {
				tx := p.Begin()
				tx.Read(fmt.Sprintf("w%d-%d", w, i%8))
				tx.Abort()
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-workDone
	}
	close(stop)
	<-statsDone
	st := p.Stats()
	if st.ShedReads == 0 {
		t.Fatal("8 workers on a 4-slot epoch never shed — gate not engaged")
	}
	if st.AdmittedSessions == 0 {
		t.Fatal("no sessions admitted")
	}
	if st.ReadQueueDepth < 0 {
		t.Fatalf("ReadQueueDepth = %d", st.ReadQueueDepth)
	}
}
