package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
		if err := p.EndEpoch(); err != nil { // a manual proxy's boundary is synchronous
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
