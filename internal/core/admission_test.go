package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/allocgate"
	"obladi/internal/mvtso"
	"obladi/internal/storage"
)

// TestAdmissionShedsBeyondBudget pins the gate: an epoch with R×bread read
// slots admits exactly that many distinct keys and sheds the next one
// immediately, as a retryable abort, instead of queueing it to die at the
// seal.
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

// TestShedAllocatesNothing: the gate refuses a fetch on a full shard with one
// static error, so shedding costs a saturated proxy no garbage.
func TestShedAllocatesNothing(t *testing.T) {
	gate := allocgate.Begin(t)
	cfg := testConfig(11)
	cfg.ReadBatches = 2
	cfg.ReadBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	tx := p.Begin()
	defer tx.Abort()
	for i := 0; i < cfg.ReadBatches*cfg.ReadBatchSize; i++ {
		tx.ReadAsync(fmt.Sprintf("k%d", i))
	}
	gate.Settle()
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shards[0]
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		err = p.admitFetchLocked(sh, mvtso.Timestamp(1<<40), "overflow")
	})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("fetch on a full shard: %v, want a shed", err)
	}
	if allocs != 0 {
		t.Fatalf("a shed allocates %v times, want 0", allocs)
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

// appendGate wraps a backend and, once armed, holds the next Append until
// released: on a store with no LogBatcher the seal's write-batch record is
// appended inline, so the gate freezes a seal after FinalizeEpoch and before
// it opens the next epoch.
type appendGate struct {
	storage.Backend
	armed   atomic.Bool
	hit     chan struct{}
	release chan struct{}
}

func (g *appendGate) Append(rec []byte) (uint64, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.hit)
		<-g.release
	}
	return g.Backend.Append(rec)
}

// TestSealWindowReadParks pins a read by a transaction that begins inside the
// seal, after FinalizeEpoch reset the CCU's chains: it finds no resident base
// for a key the ending epoch fetched, so it is held as a boundary-window read
// and refused with ErrBoundaryWindow once the next epoch opens. It must not
// go round Wait's fetch loop meanwhile (each pass counts a cache hit).
func TestSealWindowReadParks(t *testing.T) {
	cfg := testConfig(15)
	gate := &appendGate{
		Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	p, err := New(gate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	tx := p.Begin()
	f := tx.ReadAsync("k")
	must(t, p.StepReadBatch())
	if _, _, err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < cfg.ReadBatches; i++ {
		must(t, p.StepReadBatch())
	}
	must(t, p.WaitCommitted())

	gate.armed.Store(true)
	sealed := make(chan error, 1)
	go func() { sealed <- p.EndEpoch() }()
	select {
	case <-gate.hit:
	case <-time.After(5 * time.Second):
		t.Fatal("the seal never appended its write batch")
	}

	// Stats would wait on the log lock the held append keeps.
	cacheHits := func() uint64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.stats.CacheHits
	}
	before := cacheHits()
	late := p.Begin()
	lf := late.ReadAsync("k")
	read := make(chan error, 1)
	go func() {
		_, _, err := lf.Wait(context.Background())
		read <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if grew := cacheHits() - before; grew > 1 {
		t.Errorf("the read went round its fetch loop: %d cache hits in 100ms inside the seal", grew)
	}

	close(gate.release)
	must(t, <-sealed)
	select {
	case err := <-read:
		if !errors.Is(err, ErrBoundaryWindow) {
			t.Fatalf("read begun inside the seal: got %v, want ErrBoundaryWindow", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read begun inside the seal never resolved")
	}
	must(t, p.WaitCommitted())
}

// TestEarlySealParksReads pins a read admitted inside a seal that comes
// before the epoch's last read batch (an EndEpoch in manual mode, or
// Shutdown's): the seal marks the epoch's schedule spent before it releases
// the lock, so the read is held as a boundary-window read and refused with
// ErrBoundaryWindow once the next epoch opens. It must not be queued into the
// next epoch, whose first batch would give a real slot to a transaction of
// the dead epoch.
func TestEarlySealParksReads(t *testing.T) {
	cfg := testConfig(16)
	gate := &appendGate{
		Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	p, err := New(gate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	must(t, p.StepReadBatch()) // 1 of 4
	gate.armed.Store(true)
	sealed := make(chan error, 1)
	go func() { sealed <- p.EndEpoch() }()
	select {
	case <-gate.hit:
	case <-time.After(5 * time.Second):
		t.Fatal("the seal never appended its write batch")
	}
	late := p.Begin()
	lf := late.ReadAsync("k")
	read := make(chan error, 1)
	go func() {
		_, _, err := lf.Wait(context.Background())
		read <- err
	}()
	close(gate.release)
	must(t, <-sealed)

	if n := p.PendingFetches(); n != 0 {
		t.Errorf("%d fetches pending after the seal, want 0", n)
	}
	before := p.Stats().RealReads
	must(t, p.StepReadBatch())
	if real := p.Stats().RealReads - before; real != 0 {
		t.Errorf("the next epoch's first batch carried %d real reads, want all padding", real)
	}
	select {
	case err := <-read:
		if !errors.Is(err, ErrBoundaryWindow) {
			t.Fatalf("read begun inside an early seal: got %v, want ErrBoundaryWindow", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read begun inside an early seal never resolved")
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
	if len(sh.queued) != 0 || len(sh.ring) != 0 || len(sh.sessQ) != 0 {
		t.Fatalf("drain left state: queued=%d ring=%d sessQ=%d",
			len(sh.queued), len(sh.ring), len(sh.sessQ))
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
