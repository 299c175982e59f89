package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"obladi/internal/allocgate"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Tests of epoch-scoped allocation and the batch wake-up (async.go): what a
// transaction's client calls allocate, what a handle kept past its epoch can
// and cannot do, and that one close per batch loses no waiter.

// kvMemConfig is the benchmark's kv-mem schedule over a small store.
func kvMemConfig(seed uint64) Config {
	return Config{
		Params:         ringoram.Params{NumBlocks: 1024, Z: 16, S: 24, A: 16, KeySize: 16, ValueSize: 64, Seed: seed},
		Key:            cryptoutil.KeyFromSeed([]byte("epoch-alloc")),
		ReadBatches:    4,
		ReadBatchSize:  32,
		WriteBatchSize: 64,
	}
}

// TestTxnAllocBudget counts what the client calls of a transaction allocate —
// Begin, two ReadAsync, Write, the futures' Wait, CommitAsync and its ack —
// apart from what the schedule (StepReadBatch, EndEpoch) allocates: the
// commit channel, and a share of one chunk each of transactions and futures.
func TestTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gate := allocgate.Begin(t)
	const txns, warm, epochs = 64, 3, 20
	cfg := kvMemConfig(41)
	p, err := New(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	keys := make([]string, 3*txns)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	value := bytes.Repeat([]byte{7}, 48)
	var client, schedule uint64
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	txs := make([]*Txn, txns)
	futs := make([]*Future, 2*txns)
	acks := make([]<-chan error, txns)
	bg := context.Background()
	for e := 0; e < warm+epochs; e++ {
		if e == warm {
			gate.Settle()
			allocgate.OneP(t)
			client, schedule = 0, 0
		}
		key := func(i int) string { return keys[(i+e)%len(keys)] }
		m0 := mallocs()
		for i := range txs {
			tx := p.Begin()
			txs[i], futs[2*i], futs[2*i+1] = tx, tx.ReadAsync(key(3*i)), tx.ReadAsync(key(3*i+1))
			if err := tx.Write(key(3*i+2), value); err != nil {
				t.Fatal(err)
			}
		}
		m1 := mallocs()
		for b := 0; b < cfg.ReadBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		m2 := mallocs()
		for _, f := range futs {
			if _, _, err := f.Wait(bg); err != nil {
				t.Fatal(err)
			}
		}
		for i, tx := range txs {
			acks[i] = tx.CommitAsync()
		}
		m3 := mallocs()
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		// The commit stage runs on the committer: wait it out, so all of it
		// counts as schedule.
		if err := p.WaitCommitted(); err != nil {
			t.Fatal(err)
		}
		m4 := mallocs()
		for _, ack := range acks {
			if err := <-ack; err != nil {
				t.Fatal(err)
			}
		}
		client += (m1 - m0) + (m3 - m2) + (mallocs() - m4)
		schedule += (m2 - m1) + (m4 - m3)
	}
	perTxn := float64(client) / (epochs * txns)
	t.Logf("client calls: %.2f allocations per transaction; schedule: %.1f per epoch", perTxn, float64(schedule)/epochs)
	if perTxn > 3 {
		t.Errorf("client calls allocate %.2f per transaction, budget 3", perTxn)
	}
}

// TestCommitAllocBudget counts what a warm blocking Commit allocates: 32
// long-lived goroutines commit one transaction each per stepped epoch and
// park on the decision until the commit stage publishes it. The count covers
// each Commit from its call until it parks, and the collection of the
// outcomes once the boundary has landed; the steps, EndEpoch and
// WaitCommitted count as the schedule's. The outcome lands in the handle and
// one close of the commit wake announces it, so no allocation is a commit's
// (a channel per commit made two). The collector is off while the gate
// counts: a parked select's sudog comes from caches every collection empties.
func TestCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gate := allocgate.Begin(t)
	const committers, warm, epochs = 32, 3, 20
	cfg := kvMemConfig(43)
	p, err := New(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	keys := make([]string, committers)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	value := bytes.Repeat([]byte{7}, 48)
	jobs := make([]chan *Txn, committers)
	outcomes := make(chan error, committers)
	for i := range jobs {
		jobs[i] = make(chan *Txn, 1)
		go func(jobs <-chan *Txn) {
			for tx := range jobs {
				outcomes <- tx.Commit()
			}
		}(jobs[i])
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
	}()
	gate.Settle()
	allocgate.OneP(t)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var counted uint64
	for e := 0; e < warm+epochs; e++ {
		txs := make([]*Txn, committers)
		for i := range txs {
			txs[i] = p.Begin()
			if err := txs[i].Write(keys[i], value); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < cfg.ReadBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		m0 := mallocs()
		for i, tx := range txs {
			jobs[i] <- tx
		}
		for p.commitWake.parked.Load() < committers {
			runtime.Gosched()
		}
		m1 := mallocs()
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := p.WaitCommitted(); err != nil {
			t.Fatal(err)
		}
		m2 := mallocs()
		for range txs {
			if err := <-outcomes; err != nil {
				t.Fatal(err)
			}
		}
		if e >= warm {
			counted += (m1 - m0) + (mallocs() - m2)
		}
	}
	perCommit := float64(counted) / (epochs * committers)
	t.Logf("a warm blocking Commit allocates %.3f times", perCommit)
	if perCommit >= 0.05 {
		t.Errorf("a warm blocking Commit allocates %.3f times, budget 0.05", perCommit)
	}
}

// TestShardedEpochAllocBudget counts what the schedule allocates per epoch —
// R read batches, the seal and the commit stage — on a stepped two-shard
// proxy over a logheap DiskGroup, the bank-disk shape. Every such epoch runs
// 18 per-shard fan-outs and 12 SyncLog barriers (R+2 rounds per shard).
// With a goroutine per shard, a closure and a done channel per fan-out, a
// goroutine per commit stage, and a request, a channel and a syncer
// goroutine per barrier, the schedule allocated 199 times per epoch here.
// With parked shard workers, one long-lived committer and barriers led by
// their callers it allocated 50, and 13.8 once the log path stopped
// allocating per record, ten of them the result vectors of its 2 × (R+1)
// ReadSlots calls. With result vectors carved from the stores' chunks it
// allocates 3.9. The budget is about twice that.
func TestShardedEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gate := allocgate.Begin(t)
	const warm, epochs = 4, 40
	cfg := testConfig(91)
	g := openLogHeapGroup(t, t.TempDir(), 2, cfg)
	defer g.Close()
	p, err := NewSharded(g.Backends(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var schedule uint64
	for e := 0; e < warm+epochs; e++ {
		if e == warm {
			gate.Settle()
			allocgate.OneP(t)
		}
		m0 := mallocs()
		for b := 0; b < cfg.ReadBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := p.WaitCommitted(); err != nil {
			t.Fatal(err)
		}
		if e >= warm {
			schedule += mallocs() - m0
		}
	}
	perEpoch := float64(schedule) / epochs
	t.Logf("schedule: %.1f allocations per epoch", perEpoch)
	const budget = 8
	if perEpoch > budget {
		t.Errorf("the schedule allocates %.1f per epoch, budget %d", perEpoch, budget)
	}
}

// staleEpoch is one epoch of a fixed little workload: transaction i reads
// keys i and i+1 and writes key i. It returns the handles and the acks.
func staleEpoch(t *testing.T, p *Proxy, e int) (txs []*Txn, futs []*Future, acks []error) {
	t.Helper()
	const n = 12
	bg := context.Background()
	for i := 0; i < n; i++ {
		tx := p.Begin()
		txs = append(txs, tx)
		futs = append(futs, tx.ReadAsync(fmt.Sprintf("k%02d", i)), tx.ReadAsync(fmt.Sprintf("k%02d", (i+1)%n)))
	}
	for b := 0; b < 4; b++ {
		if err := p.StepReadBatch(); err != nil {
			t.Fatal(err)
		}
	}
	var chans []<-chan error
	for i, tx := range txs {
		switch {
		case i%4 == 3:
			tx.Abort() // its futures are never waited
			continue
		case i%4 != 2: // i%4 == 2 leaves its futures unwaited, and commits
			for _, f := range futs[2*i : 2*i+2] {
				if _, _, err := f.Wait(bg); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Write(fmt.Sprintf("k%02d", i), fmt.Appendf(nil, "e%d-t%d", e, i)); err != nil && !errors.Is(err, ErrAborted) {
			t.Fatal(err)
		}
		if i%4 != 1 { // i%4 == 1 never asks to commit: the boundary aborts it
			chans = append(chans, tx.CommitAsync())
		}
	}
	if err := p.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		acks = append(acks, <-ch)
	}
	return txs, futs, acks
}

// TestStaleHandlesAcrossEpochs keeps every handle of one epoch — committed,
// aborted and never-settled transactions, futures resolved and never waited —
// through twenty more epochs, then uses all of them from several goroutines
// while a later epoch is in progress. Every call answers ErrAborted or the
// result it recorded, and a twin proxy that never saw the calls ends up with
// the same fates, counters and store.
func TestStaleHandlesAcrossEpochs(t *testing.T) {
	build := func() *Proxy {
		cfg := testConfig(77)
		cfg.ReadBatchSize, cfg.WriteBatchSize = 16, 16
		p, _, _ := testProxy(t, cfg)
		return p
	}
	a, b := build(), build()
	bg := context.Background()
	staleTxs, staleFuts, _ := staleEpoch(t, a, 0)
	staleEpoch(t, b, 0)
	type resolved struct {
		v     []byte
		found bool
		err   error
	}
	recorded := map[*Future]resolved{}
	for i, f := range staleFuts {
		if (i/2)%4 < 2 { // waited in its epoch
			v, found, err := f.Wait(bg)
			recorded[f] = resolved{v, found, err}
		}
	}
	for e := 1; e <= 20; e++ {
		_, _, acksA := staleEpoch(t, a, e)
		_, _, acksB := staleEpoch(t, b, e)
		if fmt.Sprint(acksA) != fmt.Sprint(acksB) {
			t.Fatalf("epoch %d: acks %v, twin %v", e, acksA, acksB)
		}
	}

	// Epoch 21 on both, up to the point where reads are queued and writes
	// installed; then the stale handles are exercised on a alone.
	open := func(p *Proxy) (txs []*Txn, futs []*Future) {
		for i := 0; i < 8; i++ {
			tx := p.Begin()
			txs = append(txs, tx)
			futs = append(futs, tx.ReadAsync(fmt.Sprintf("k%02d", i)))
			if err := tx.Write(fmt.Sprintf("k%02d", i+2), fmt.Appendf(nil, "live-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return txs, futs
	}
	liveA, futsA := open(a)
	liveB, futsB := open(b)
	queued := a.PendingFetches()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(staleTxs); i += 4 {
				tx := staleTxs[i]
				if _, _, err := tx.Read("k00"); !errors.Is(err, ErrAborted) {
					t.Errorf("stale txn %d Read: %v, want ErrAborted", i, err)
				}
				if err := tx.Write("k01", []byte("stale")); !errors.Is(err, ErrAborted) {
					t.Errorf("stale txn %d Write: %v, want ErrAborted", i, err)
				}
				if err := tx.Delete("k02"); !errors.Is(err, ErrAborted) {
					t.Errorf("stale txn %d Delete: %v, want ErrAborted", i, err)
				}
				if _, _, err := tx.ReadAsync("k03").Wait(bg); !errors.Is(err, ErrAborted) {
					t.Errorf("stale txn %d ReadAsync: %v, want ErrAborted", i, err)
				}
				if err := <-tx.CommitAsync(); !errors.Is(err, ErrAborted) {
					t.Errorf("stale txn %d CommitAsync: %v, want ErrAborted", i, err)
				}
				tx.Abort()
				for _, f := range staleFuts[2*i : 2*i+2] {
					v, found, err := f.Wait(bg)
					if want, ok := recorded[f]; ok {
						if !bytes.Equal(v, want.v) || found != want.found || err != want.err {
							t.Errorf("stale future of txn %d: %q %v %v, recorded %q %v %v", i, v, found, err, want.v, want.found, want.err)
						}
					} else if !errors.Is(err, ErrAborted) {
						t.Errorf("unwaited stale future of txn %d: %v, want ErrAborted", i, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := a.PendingFetches(); got != queued {
		t.Fatalf("stale calls changed the fetch queue: %d keys, was %d", got, queued)
	}

	finish := func(p *Proxy, txs []*Txn, futs []*Future) (out []string) {
		for i := 0; i < 4; i++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		var chans []<-chan error
		for i, tx := range txs {
			v, found, err := futs[i].Wait(bg)
			out = append(out, fmt.Sprintf("read %q %v %v", v, found, err))
			chans = append(chans, tx.CommitAsync())
		}
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		for _, ch := range chans {
			out = append(out, fmt.Sprint(<-ch))
		}
		// Read everything back in a fresh epoch.
		tx := p.Begin()
		var back []*Future
		for i := 0; i < 12; i++ {
			back = append(back, tx.ReadAsync(fmt.Sprintf("k%02d", i)))
		}
		for i := 0; i < 4; i++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range back {
			v, found, err := f.Wait(bg)
			out = append(out, fmt.Sprintf("back %q %v %v", v, found, err))
		}
		tx.Abort()
		st := p.Stats()
		return append(out, fmt.Sprintf("committed %d aborted %d conflicts %d cascades %d real reads %d real writes %d",
			st.Committed, st.Aborted, st.ConflictAborts, st.CascadingAborts, st.RealReads, st.RealWrites))
	}
	gotA, gotB := finish(a, liveA, futsA), finish(b, liveB, futsB)
	if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
		t.Fatalf("the proxy that saw the stale calls diverged from its twin:\n%v\n%v", gotA, gotB)
	}
}

// TestBatchWakeupNoLostWaiter parks 256 goroutines on one future each, with
// keys filling all R batches of two shards, and steps the schedule by hand. A
// waiter whose key batch k serves must return before batch k+1 is stepped — a
// lost wake-up stalls the test right there; a third of the waiters are
// cancelled, some before any close and some while a batch executes; and the
// last epoch's second batch fails, which must wake everyone left with the
// batch's error.
func TestBatchWakeupNoLostWaiter(t *testing.T) {
	const waiters, perShard, batch = 256, 128, 32
	epochs := 1000
	if testing.Short() || raceEnabled {
		epochs = 120
	}
	cfg := testConfig(88)
	cfg.Params.NumBlocks = 512
	cfg.ReadBatchSize, cfg.WriteBatchSize = batch, 8
	cfg.DisableDurability = true
	boom := errors.New("injected read failure")
	var failReads sync.Mutex // held: armed is being flipped
	armed := false
	stores := make([]storage.Backend, 2)
	for i := range stores {
		stores[i] = &spyStore{Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), shard: i,
			hook: func(shard int, call string) error {
				failReads.Lock()
				defer failReads.Unlock()
				if armed && shard == 1 && call == "ReadSlots" {
					return boom
				}
				return nil
			}}
	}
	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// 128 keys for each shard, interleaved, so waiter i's batch is known: the
	// fair drain serves one key per session per pass, in arrival order.
	var keys []string
	count := [2]int{}
	for i := 0; len(keys) < waiters; i++ {
		k := fmt.Sprintf("w%04d", i)
		if sh := shardOf(k, 2); count[sh] < perShard && sh == len(keys)%2 {
			count[sh]++
			keys = append(keys, k)
		}
	}
	batchOf := func(i int) int { return i / 2 / batch }

	type job struct {
		f   *Future
		ctx context.Context
	}
	type result struct {
		i   int
		err error
	}
	jobs := make([]chan job, waiters)
	results := make(chan result, waiters)
	for i := range jobs {
		jobs[i] = make(chan job)
		go func(i int) {
			for j := range jobs[i] {
				_, _, err := j.f.Wait(j.ctx)
				results <- result{i, err}
			}
		}(i)
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
	}()
	// collect waits for the results of every waiter want selects.
	returned := make([]bool, waiters)
	errs := make([]error, waiters)
	collect := func(what string, want func(i int) bool) {
		t.Helper()
		need := 0
		for i := range returned {
			if want(i) && !returned[i] {
				need++
			}
		}
		timeout := time.After(20 * time.Second)
		for need > 0 {
			select {
			case r := <-results:
				returned[r.i], errs[r.i] = true, r.err
				if want(r.i) {
					need--
				}
			case <-timeout:
				t.Fatalf("%s: %d waiters never returned (lost wake-up)", what, need)
			}
		}
	}

	cancels := make([]context.CancelFunc, waiters)
	for e := 0; e < epochs; e++ {
		last := e == epochs-1
		clear(returned)
		// Waiter i is cancelled early (before any batch) if i%3 == 1 and its
		// batch is not the first, and racily (while its batch executes) if
		// i%9 == 2.
		early := func(i int) bool { return i%3 == 1 && batchOf(i) > 0 }
		racy := func(i int) bool { return i%9 == 2 }
		txs := make([]*Txn, waiters)
		for i := range jobs {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			txs[i] = p.Begin()
			jobs[i] <- job{txs[i].ReadAsync(keys[i]), ctx}
		}
		for i := range cancels {
			if early(i) {
				cancels[i]()
			}
		}
		collect("cancelled before any close", early)
		for i := range errs {
			if early(i) && !(errors.Is(errs[i], context.Canceled) && errors.Is(errs[i], ErrAborted)) {
				t.Fatalf("epoch %d: cancelled waiter %d returned %v", e, i, errs[i])
			}
		}
		for k := 0; k < cfg.ReadBatches; k++ {
			var racing sync.WaitGroup
			racing.Add(1)
			go func() {
				defer racing.Done()
				for i := range cancels {
					if racy(i) && batchOf(i) == k {
						cancels[i]()
					}
				}
			}()
			if last && k == 1 {
				failReads.Lock()
				armed = true
				failReads.Unlock()
			}
			err := p.StepReadBatch()
			racing.Wait()
			if last && k == 1 {
				if !errors.Is(err, boom) {
					t.Fatalf("failing batch returned %v", err)
				}
				collect("fail-stop", func(int) bool { return true })
				// Shard 0 (the even waiters) executed its half of the batch.
				for i, werr := range errs {
					served := i%2 == 0 && batchOf(i) == k
					if batchOf(i) >= k && !served && !early(i) && !racy(i) && !errors.Is(werr, boom) {
						t.Fatalf("waiter %d of the failed batch returned %v, want the batch's error", i, werr)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Batch k's readers return on batch k's close, before k+1 is stepped.
			collect(fmt.Sprintf("epoch %d batch %d", e, k), func(i int) bool { return batchOf(i) == k })
			for i, werr := range errs {
				if batchOf(i) == k && !early(i) && !racy(i) && werr != nil {
					t.Fatalf("epoch %d: waiter %d served by batch %d returned %v", e, i, k, werr)
				}
			}
		}
		for i, tx := range txs {
			tx.Abort()
			cancels[i]()
		}
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSteppedEpochMakesNoWakeChannel: on a stepped schedule every Wait
// follows the batch that decided its read, and every ack is read after the
// boundary decided it, so no waiter ever parks, and the batches and the
// boundaries publish without closing either wake's channel or making a new
// one.
func TestSteppedEpochMakesNoWakeChannel(t *testing.T) {
	cfg := Config{ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 16}
	p := newAsyncProxy(t, cfg)
	reads, commits := p.readWake.ch.Load(), p.commitWake.ch.Load()
	for e := 0; e < 3; e++ {
		var txs []*Txn
		var futs []*Future
		for i := 0; i < 8; i++ {
			tx := p.Begin()
			txs = append(txs, tx)
			futs = append(futs, tx.ReadAsync(fmt.Sprintf("k%d", i)))
		}
		if got := p.PendingFetches(); got != 8 {
			t.Fatalf("epoch %d: %d pending fetches, want 8", e, got)
		}
		for b := 0; b < cfg.ReadBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				t.Fatal(err)
			}
		}
		var acks []<-chan error
		for i, f := range futs {
			v, found, err := f.Value()
			if err != nil || found != (e > 0) || (found && v[0] != byte(i)) {
				t.Fatalf("epoch %d: future %d: %v %v %v", e, i, v, found, err)
			}
			if err := txs[i].Write(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			acks = append(acks, txs[i].CommitAsync())
		}
		if err := p.EndEpoch(); err != nil {
			t.Fatal(err)
		}
		for _, ack := range acks {
			if err := <-ack; err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.readWake.ch.Load() != reads || p.commitWake.ch.Load() != commits {
		t.Fatal("a stepped epoch with no parked waiter replaced a wake channel")
	}
}

// TestWakeHandshakeNeverStrands races a waiter's await against the decider's
// publish and announce for 10 000 rounds, each side yielding a random number
// of times first, so the waiter parks before, during and after the decision:
// it must return every time, woken or finding its record done, and both the
// close and the closeless path must have been taken. The proxy's read and
// commit wakes are both this type. Run it under -race too.
func TestWakeHandshakeNeverStrands(t *testing.T) {
	const rounds = 10000
	var mu sync.Mutex // the decider's lock, Proxy.mu's part
	var k wake
	k.ch.Store(make(chan struct{}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewPCG(5, 6))
	done := make(chan error)
	closes := 0
	for r := 0; r < rounds; r++ {
		w := new(waiter)
		w.state.Store(waiterQueued)
		waiterYields, deciderYields := rng.IntN(4), rng.IntN(4)
		go func() {
			for range waiterYields {
				runtime.Gosched()
			}
			done <- k.await(w, ctx, context.Background())
		}()
		for range deciderYields {
			runtime.Gosched()
		}
		wake := k.ch.Load()
		mu.Lock()
		w.publish(nil)
		k.due = true
		k.announce()
		mu.Unlock()
		if err := <-done; err != nil {
			t.Fatalf("round %d: the waiter was never woken: %v", r, err)
		}
		if k.ch.Load() != wake {
			closes++
		}
	}
	t.Logf("%d of %d rounds closed the wake channel", closes, rounds)
	if closes == 0 || closes == rounds {
		t.Fatalf("%d of %d rounds closed the wake channel: the race was not exercised both ways", closes, rounds)
	}
	if n := k.parked.Load(); n != 0 {
		t.Fatalf("%d waiters still counted parked", n)
	}
}
