package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

func testConfig(seed uint64) Config {
	return Config{
		Params: ringoram.Params{
			NumBlocks: 128,
			Z:         4,
			S:         6,
			A:         4,
			KeySize:   24,
			ValueSize: 64,
			Seed:      seed,
		},
		Key:            cryptoutil.KeyFromSeed([]byte("core")),
		ReadBatches:    4,
		ReadBatchSize:  8,
		WriteBatchSize: 8,
	}
}

// testProxy builds a proxy over a checked in-memory backend.
func testProxy(t *testing.T, cfg Config) (*Proxy, *storage.InvariantChecker, storage.Backend) {
	t.Helper()
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	p, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, checker, checker
}

// pump drives the proxy schedule in the background until stopped.
func pump(t *testing.T, p *Proxy) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := p.Advance(); err != nil && !errors.Is(err, ErrClosed) {
				select {
				case <-done:
					return
				default:
					t.Errorf("pump: %v", err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func TestCommitWriteThenRead(t *testing.T) {
	p, checker, _ := testProxy(t, testConfig(1))
	stop := pump(t, p)
	defer stop()

	tx := p.Begin()
	if err := tx.Write("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	tx2 := p.Begin()
	v, found, err := tx2.Read("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !found || string(v) != "one" {
		t.Fatalf("read = %q %v", v, found)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(2))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	if err := tx.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tx.Read("k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("own write: %q %v %v", v, found, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnknownKey(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(3))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	_, found, err := tx.Read("never-written")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("unknown key found")
	}
	tx.Abort()
}

func TestDeleteVisibleAfterCommit(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(4))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	must(t, tx.Write("k", []byte("v")))
	must(t, tx.Commit())
	tx2 := p.Begin()
	must(t, tx2.Delete("k"))
	must(t, tx2.Commit())
	tx3 := p.Begin()
	_, found, err := tx3.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted key still visible")
	}
	tx3.Abort()
}

func TestUncommittedInvisibleAcrossEpochs(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(5))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	must(t, tx.Write("ghost", []byte("v")))
	// No commit: the epoch boundary aborts it.
	deadline := time.Now().Add(5 * time.Second)
	for p.Epoch() == tx.epoch && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tx2 := p.Begin()
	_, found, err := tx2.Read("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("uncommitted write survived the epoch")
	}
	tx2.Abort()
}

func TestTxnSpanningEpochsAborts(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(6))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	must(t, tx.Write("a", []byte("1")))
	deadline := time.Now().Add(5 * time.Second)
	for p.Epoch() == tx.epoch && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := tx.Write("b", []byte("2"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("cross-epoch write: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("cross-epoch commit: %v", err)
	}
}

func TestConflictAbort(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(7))
	stop := pump(t, p)
	defer stop()
	setup := p.Begin()
	must(t, setup.Write("d", []byte("d0")))
	must(t, setup.Commit())

	t2 := p.Begin() // earlier timestamp
	t3 := p.Begin() // later timestamp
	if _, _, err := t3.Read("d"); err != nil {
		t.Fatal(err)
	}
	err := t2.Write("d", []byte("d2"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("read-marker conflict not surfaced: %v", err)
	}
	must(t, t3.Commit())
}

func TestCascadingAbortAtEpochEnd(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(8))
	stop := pump(t, p)
	defer stop()
	t1 := p.Begin()
	must(t, t1.Write("x", []byte("from-t1")))
	t2 := p.Begin()
	v, found, err := t2.Read("x")
	if err != nil || !found || string(v) != "from-t1" {
		t.Fatalf("t2 read: %q %v %v", v, found, err)
	}
	// t2 commits, t1 never does: both must abort.
	if err := t2.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("t2 commit: %v (depends on unfinished t1)", err)
	}
}

func TestWriteBatchCapacity(t *testing.T) {
	cfg := testConfig(9)
	cfg.WriteBatchSize = 2
	p, _, _ := testProxy(t, cfg)
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	must(t, tx.Write("a", []byte("1")))
	must(t, tx.Write("b", []byte("2")))
	err := tx.Write("c", []byte("3"))
	if !errors.Is(err, ErrEpochFull) {
		t.Fatalf("write over capacity: %v", err)
	}
}

func TestValueTooLarge(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(10))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	err := tx.Write("k", make([]byte, p.cfg.Params.ValueSize+1))
	if !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	tx.Abort()
}

func TestKeyValidation(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(11))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	if err := tx.Write("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := tx.Write("\x00sneaky", []byte("v")); err == nil {
		t.Fatal("NUL-prefixed key accepted")
	}
	if err := tx.Write(string(make([]byte, 1000)), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	tx.Abort()
}

func TestConcurrentClients(t *testing.T) {
	cfg := testConfig(12)
	cfg.BatchInterval = time.Millisecond
	cfg.ReadBatchSize = 16
	cfg.WriteBatchSize = 32
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	p, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const clients = 8
	var wg sync.WaitGroup
	var committed, aborted int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tx := p.Begin()
				key := fmt.Sprintf("acct-%d", (c+i)%6)
				_, _, err := tx.Read(key)
				if err != nil {
					continue // aborted read; try next iteration
				}
				if err := tx.Write(key, []byte(fmt.Sprintf("c%d-i%d", c, i))); err != nil {
					continue
				}
				err = tx.Commit()
				mu.Lock()
				if err == nil {
					committed++
				} else {
					aborted++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatalf("no transaction committed (aborted=%d)", aborted)
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
	st := p.Stats()
	if st.Committed == 0 || st.Epochs == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBatchPaddingFixedSlots(t *testing.T) {
	// Every issued read batch consumes exactly ReadBatchSize slots
	// regardless of load.
	p, _, _ := testProxy(t, testConfig(13))
	stop := pump(t, p)
	defer stop()
	tx := p.Begin()
	if _, _, err := tx.Read("solo"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	st := p.Stats()
	if st.ReadBatchSlots == 0 {
		t.Fatal("no batch slots recorded")
	}
	if st.ReadBatchSlots%uint64(p.cfg.ReadBatchSize) != 0 {
		t.Fatalf("slots %d not a multiple of bread %d", st.ReadBatchSlots, p.cfg.ReadBatchSize)
	}
	if st.RealReads >= st.ReadBatchSlots {
		t.Fatalf("padding missing: real=%d slots=%d", st.RealReads, st.ReadBatchSlots)
	}
}

func TestVersionCacheServesRepeatReads(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(14))
	stop := pump(t, p)
	defer stop()
	setup := p.Begin()
	must(t, setup.Write("hot", []byte("v")))
	must(t, setup.Commit())

	// First read fetches; subsequent reads in the same epoch hit the cache.
	tx := p.Begin()
	if _, _, err := tx.Read("hot"); err != nil {
		t.Fatal(err)
	}
	before := p.Stats().RealReads
	tx2 := p.Begin()
	start := time.Now()
	if _, _, err := tx2.Read("hot"); err != nil {
		if !errors.Is(err, ErrAborted) {
			t.Fatal(err)
		}
		// Epoch may have rolled between the two reads; retry once.
		tx2 = p.Begin()
		if _, _, err := tx2.Read("hot"); err != nil {
			t.Fatal(err)
		}
	}
	_ = start
	after := p.Stats().RealReads
	if after > before+1 {
		t.Fatalf("repeat read consumed %d extra real slots", after-before)
	}
	tx.Abort()
	tx2.Abort()
}

func TestManualModeDeterministic(t *testing.T) {
	cfg := testConfig(15)
	p, checker, _ := testProxy(t, cfg)

	// Write-only transactions never block before Commit. CommitAsync
	// registers the commit synchronously, so the manually driven schedule
	// below cannot outrun it (a goroutine calling Commit could lose the
	// race against a fast epoch and be aborted as "epoch ended").
	tx1 := p.Begin()
	must(t, tx1.Write("m1", []byte("v1")))
	tx2 := p.Begin()
	must(t, tx2.Write("m2", []byte("v2")))
	c1, c2 := tx1.CommitAsync(), tx2.CommitAsync()
	// Drive a full epoch by hand: R read batches + boundary.
	for i := 0; i < cfg.ReadBatches; i++ {
		must(t, p.Advance())
	}
	must(t, p.Advance()) // epoch boundary
	for i, ch := range []<-chan error{c1, c2} {
		if err := <-ch; err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// Read both back, again by hand.
	done := make(chan error, 1)
	go func() {
		tx := p.Begin()
		v1, f1, err := tx.Read("m1")
		if err != nil {
			done <- err
			return
		}
		v2, f2, err := tx.Read("m2")
		if err != nil {
			done <- err
			return
		}
		if !f1 || !f2 || string(v1) != "v1" || string(v2) != "v2" {
			done <- fmt.Errorf("read back %q/%v %q/%v", v1, f1, v2, f2)
			return
		}
		done <- tx.Commit()
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if v := checker.Violation(); v != nil {
				t.Fatal(v)
			}
			return
		case <-deadline:
			t.Fatal("deadlock driving manual epoch")
		default:
			must(t, p.Advance())
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestVersionCacheHitsTakeNoSlot: once a key's base version is resident this
// epoch, later reads of it are served from the version cache (§6.3): they
// take no read slot and count as CacheHits.
func TestVersionCacheHitsTakeNoSlot(t *testing.T) {
	p, _, _ := testProxy(t, testConfig(16))
	first := p.Begin()
	f := first.ReadAsync("hot")
	must(t, p.StepReadBatch())
	if _, _, err := f.Value(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx := p.Begin()
		if _, _, err := tx.Read("hot"); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	if st := p.Stats(); st.RealReads != 1 || st.CacheHits != 3 {
		t.Fatalf("RealReads = %d, CacheHits = %d; want 1 slot and 3 cache hits", st.RealReads, st.CacheHits)
	}
}

func TestCloseAbortsInFlight(t *testing.T) {
	cfg := testConfig(17)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	must(t, tx.Write("k", []byte("v")))
	commitErr := make(chan error, 1)
	go func() { commitErr <- tx.Commit() }()
	time.Sleep(5 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-commitErr; err == nil {
		t.Fatal("commit succeeded after close")
	}
	if _, _, err := p.Begin().Read("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

// TestStatsConcurrentWithBatches races Stats snapshots against batch
// execution and the background committer. Executor counters are mutated
// from per-shard goroutines that do not hold the proxy mutex, so this test
// is only meaningful under -race (the CI race job runs it): it pins down
// that Stats is atomically readable mid-batch.
func TestStatsConcurrentWithBatches(t *testing.T) {
	cfg := testConfig(18)
	p, _, _ := testProxy(t, cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = p.Stats()
		}
	}()
	for e := 0; e < 3; e++ {
		tx := p.Begin()
		must(t, tx.Write(fmt.Sprintf("k%d", e), []byte("v")))
		ch := tx.CommitAsync()
		for b := 0; b < cfg.ReadBatches; b++ {
			must(t, p.StepReadBatch())
		}
		must(t, p.EndEpoch())
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	st := p.Stats()
	if st.Epochs == 0 || st.Committed == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestManualBoundaryErrorFailsProxy pins down fail-stop at the boundary: a
// commit-stage failure in manual mode must wake commit waiters, reach
// WaitCommitted and close the proxy, not strand Advance() callers forever.
func TestManualBoundaryErrorFailsProxy(t *testing.T) {
	cfg := testConfig(19)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	boom := errors.New("injected boundary failure")
	p.testCommitHook = func() error { return boom }
	tx := p.Begin()
	must(t, tx.Write("k", []byte("v")))
	ch := tx.CommitAsync()
	must(t, p.EndEpoch())
	if err := p.WaitCommitted(); !errors.Is(err, boom) {
		t.Fatalf("WaitCommitted under injected failure: %v", err)
	}
	select {
	case err := <-ch:
		if !errors.Is(err, boom) {
			t.Fatalf("commit waiter woke with %v, want the boundary error", err)
		}
	default:
		t.Fatal("commit waiter stranded after a mid-boundary error")
	}
	if err := p.Advance(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Advance after boundary failure: %v", err)
	}
	if _, _, err := p.Begin().Read("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after boundary failure: %v", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
