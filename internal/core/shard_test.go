package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"obladi/internal/oramexec"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// shardedBackends builds n independent checked in-memory backends for a
// sharded proxy.
func shardedBackends(cfg Config, n int) ([]storage.Backend, []*storage.InvariantChecker) {
	stores := make([]storage.Backend, n)
	checkers := make([]*storage.InvariantChecker, n)
	for i := range stores {
		checkers[i] = storage.NewInvariantChecker(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))
		stores[i] = checkers[i]
	}
	return stores, checkers
}

func checkAll(t *testing.T, checkers []*storage.InvariantChecker) {
	t.Helper()
	for i, c := range checkers {
		if v := c.Violation(); v != nil {
			t.Fatalf("shard %d: %v", i, v)
		}
	}
}

// keysForShard returns count distinct keys that hash to the given shard.
func keysForShard(shard, shards, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("sk-%d-%d", shard, i)
		if shardOf(k, shards) == shard {
			out = append(out, k)
		}
	}
	return out
}

func TestShardOfStableAndBounded(t *testing.T) {
	seen := make(map[int]int)
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := shardOf(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf(%q, 4) = %d", k, s)
		}
		if s != shardOf(k, 4) {
			t.Fatalf("shardOf not deterministic for %q", k)
		}
		seen[s]++
	}
	// FNV over 4K keys must spread across all shards reasonably evenly.
	for s := 0; s < 4; s++ {
		if seen[s] < 512 {
			t.Fatalf("shard %d got only %d of 4096 keys: %v", s, seen[s], seen)
		}
	}
	if shardOf("anything", 1) != 0 {
		t.Fatal("single shard must map everything to 0")
	}
}

func TestShardedCommitAndReadBack(t *testing.T) {
	cfg := testConfig(51)
	cfg.ReadBatchSize = 16
	cfg.WriteBatchSize = 32
	stores, checkers := shardedBackends(cfg, 4)
	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != 4 {
		t.Fatalf("Shards() = %d", p.Shards())
	}
	// One cross-shard transaction writing keys that land on every shard.
	kv := map[string]string{}
	for s := 0; s < 4; s++ {
		for i, k := range keysForShard(s, 4, 3) {
			kv[k] = fmt.Sprintf("v%d-%d", s, i)
		}
	}
	commitKV(t, p, kv)
	var keys []string
	for k := range kv {
		keys = append(keys, k)
	}
	got := readAll(t, p, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
	st := p.Stats()
	if st.Shards != 4 {
		t.Fatalf("stats shards = %d", st.Shards)
	}
	// Each read batch consumes bread slots on EVERY shard.
	if st.ReadBatchSlots%uint64(4*cfg.ReadBatchSize) != 0 {
		t.Fatalf("read slots %d not a multiple of shards*bread", st.ReadBatchSlots)
	}
	checkAll(t, checkers)
}

// TestShardedCrossShardAbortAtomic is the epoch-capacity atomicity check: a
// transaction that overflows ONE shard's write quota must abort as a whole —
// its writes on other shards must not commit.
func TestShardedCrossShardAbortAtomic(t *testing.T) {
	cfg := testConfig(52)
	cfg.WriteBatchSize = 2
	stores, checkers := shardedBackends(cfg, 4)
	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	full := keysForShard(1, 4, 2)     // fills shard 1's quota of 2
	other := keysForShard(2, 4, 1)[0] // lands on shard 2
	straw := keysForShard(1, 4, 3)[2] // third distinct shard-1 key

	txA := p.Begin()
	for _, k := range full {
		must(t, txA.Write(k, []byte("a")))
	}
	txB := p.Begin()
	must(t, txB.Write(other, []byte("b")))
	if err := txB.Write(straw, []byte("b")); !errors.Is(err, ErrEpochFull) {
		t.Fatalf("write into full shard: %v", err)
	}
	// txB aborted atomically; txA's writes are unaffected and commit.
	chA := txA.CommitAsync()
	chB := txB.CommitAsync()
	must(t, p.EndEpoch())
	if err := <-chA; err != nil {
		t.Fatalf("txA: %v", err)
	}
	if err := <-chB; !errors.Is(err, ErrAborted) {
		t.Fatalf("txB commit after capacity abort: %v", err)
	}
	got := readAll(t, p, full[0], full[1], other, straw)
	for _, k := range full {
		if got[k] != "a" {
			t.Fatalf("%s = %q, want %q", k, got[k], "a")
		}
	}
	if _, leaked := got[other]; leaked {
		t.Fatalf("aborted cross-shard txn leaked %s on the healthy shard", other)
	}
	if _, leaked := got[straw]; leaked {
		t.Fatalf("aborted cross-shard txn leaked %s", straw)
	}
	checkAll(t, checkers)
}

func TestShardedRecoveryPreservesCommitted(t *testing.T) {
	cfg := testConfig(53)
	stores, checkers := shardedBackends(cfg, 4)
	p1, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kv := map[string]string{}
	for s := 0; s < 4; s++ {
		kv[keysForShard(s, 4, 1)[0]] = fmt.Sprintf("v%d", s)
	}
	commitKV(t, p1, kv)
	// Crash: p1 disappears without Close.

	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("sharded recovery: %v", err)
	}
	defer p2.Close()
	var keys []string
	for k := range kv {
		keys = append(keys, k)
	}
	got := readAll(t, p2, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("after recovery %s = %q, want %q", k, got[k], v)
		}
	}
	checkAll(t, checkers)
}

func TestShardedRecoveryDropsInFlightEpoch(t *testing.T) {
	cfg := testConfig(54)
	stores, checkers := shardedBackends(cfg, 4)
	p1, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stable := map[string]string{}
	for s := 0; s < 4; s++ {
		stable[keysForShard(s, 4, 1)[0]] = "committed"
	}
	commitKV(t, p1, stable)

	// In-flight epoch: a cross-shard read batch executes (logged on every
	// shard), writes buffered, then the proxy crashes before the epoch
	// commits.
	doomed := keysForShard(0, 4, 2)[1]
	tx := p1.Begin()
	go func() {
		var keys []string
		for k := range stable {
			keys = append(keys, k)
		}
		tx.ReadMany(keys)
		tx.Write(doomed, []byte("doomed"))
		tx.Commit()
	}()
	waitQueued(t, p1, len(stable))
	must(t, p1.StepReadBatch())
	// Crash now: no EndEpoch, no Close.

	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("sharded recovery: %v", err)
	}
	defer p2.Close()
	if p2.ReplayedReads() == 0 {
		t.Fatal("recovery replayed nothing despite logged batches")
	}
	var keys []string
	for k := range stable {
		keys = append(keys, k)
	}
	got := readAll(t, p2, append(keys, doomed)...)
	for k := range stable {
		if got[k] != "committed" {
			t.Fatalf("%s = %q after recovery", k, got[k])
		}
	}
	if _, leaked := got[doomed]; leaked {
		t.Fatal("in-flight write survived the crash")
	}
	checkAll(t, checkers)
}

// TestShardedTornCommitRecovers exercises the coordinator-commit protocol's
// decision rule: a crash after the coordinator shard's commit record but
// before the remaining shards append theirs must still commit the epoch
// globally — the lagging shards are caught up from their durable checkpoints.
func TestShardedTornCommitRecovers(t *testing.T) {
	cfg := testConfig(55)
	stores, checkers := shardedBackends(cfg, 4)
	p1, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]string{}
	for s := 0; s < 4; s++ {
		warm[keysForShard(s, 4, 1)[0]] = "warm"
	}
	commitKV(t, p1, warm)

	// Crash exactly at the next epoch's commit point: the coordinator's
	// committing checkpoint is durable, no store has retired the epoch.
	crash := errors.New("injected crash after coordinator commit")
	p1.testCommitHook = func() error { return crash }
	torn := map[string]string{}
	for s := 0; s < 4; s++ {
		torn[keysForShard(s, 4, 2)[1]] = "torn"
	}
	tx := p1.Begin()
	for k, v := range torn {
		must(t, tx.Write(k, []byte(v)))
	}
	tx.CommitAsync()
	if err := p1.EndEpoch(); !errors.Is(err, crash) {
		t.Fatalf("EndEpoch under injected crash: %v", err)
	}
	// The proxy is now dead mid-commit: shard 0 holds the epoch's committing
	// checkpoint, shards 1-3 their prepared ones.

	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("recovery from torn commit: %v", err)
	}
	defer p2.Close()
	var keys []string
	for k := range torn {
		keys = append(keys, k)
	}
	got := readAll(t, p2, keys...)
	for k, v := range torn {
		if got[k] != v {
			t.Fatalf("torn-commit epoch lost on %s: %q (coordinator committed, so the epoch is global)", k, got[k])
		}
	}
	for k, v := range warm {
		if g := readAll(t, p2, k)[k]; g != v {
			t.Fatalf("%s = %q after torn-commit recovery", k, g)
		}
	}
	checkAll(t, checkers)
}

// TestShardConfigMismatchRejected guards the operational trap of restarting
// a sharded deployment with reordered storage addresses or a different shard
// count: key routing would silently change, so recovery must refuse.
func TestShardConfigMismatchRejected(t *testing.T) {
	cfg := testConfig(58)
	stores, _ := shardedBackends(cfg, 2)
	p1, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{
		keysForShard(0, 2, 1)[0]: "a",
		keysForShard(1, 2, 1)[0]: "b",
	})
	p1.Close()

	if _, err := NewSharded([]storage.Backend{stores[1], stores[0]}, cfg); err == nil {
		t.Fatal("restart with swapped storage backends accepted")
	}
	if _, err := NewSharded(stores[:1], cfg); err == nil {
		t.Fatal("restart with fewer shards accepted")
	}
	// The correct configuration still recovers.
	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("correct configuration rejected: %v", err)
	}
	p2.Close()
}

// TestTornFirstBootReinitializes covers a first boot that dies between
// baseline checkpoints: a follower's prepared epoch-0 checkpoint is durable,
// the coordinator's committing one never was written. Restart must
// reinitialize (nothing ever committed), and the follower's stale baseline
// must not outlive the fresh one.
func TestTornFirstBootReinitializes(t *testing.T) {
	cfg := testConfig(57)
	stores, checkers := shardedBackends(cfg, 2)
	l, err := wal.New(stores[1], wal.Config{Key: cfg.Key, Shard: 1, Shards: 2, FullCheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	oram, err := oramexec.InitORAM(stores[1], cfg.Key, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCheckpoint(0, oram); err != nil {
		t.Fatal(err)
	}
	// Crash here: shard 1 prepared, the coordinator's log empty.

	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("restart after torn first boot: %v", err)
	}
	defer p.Close()
	kv := map[string]string{
		keysForShard(0, 2, 1)[0]: "a",
		keysForShard(1, 2, 1)[0]: "b",
	}
	commitKV(t, p, kv)
	var keys []string
	for k := range kv {
		keys = append(keys, k)
	}
	got := readAll(t, p, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("%s = %q after reinit", k, got[k])
		}
	}
	// Shard 1's log now opens with two epoch-0 baselines, the dead boot's
	// first: a recovery must stand on the second.
	p.Close()
	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("recovery over the superseded baseline: %v", err)
	}
	defer p2.Close()
	got = readAll(t, p2, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("%s = %q after recovery", k, got[k])
		}
	}
	checkAll(t, checkers)
}

// TestCommitDuringBoundaryDecidedNextEpoch pins down a race the sharded
// boundary widens: a transaction that begins while EndEpoch is already
// finalizing lives in the next epoch's CCU generation. Its commit must NOT be
// acked as aborted by the boundary it slipped into (its writes would commit
// next epoch regardless — a lying ack); it must be decided by the next
// boundary.
func TestCommitDuringBoundaryDecidedNextEpoch(t *testing.T) {
	cfg := testConfig(56)
	stores, checkers := shardedBackends(cfg, 2)
	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var ch <-chan error
	fired := false
	// The hook runs inside EndEpoch after FinalizeEpoch but before waiter
	// notification — exactly the boundary window.
	p.testCommitHook = func() error {
		fired = true
		tx := p.Begin()
		if werr := tx.Write("boundary-key", []byte("v")); werr != nil {
			t.Error(werr)
			return nil
		}
		ch = tx.CommitAsync()
		return nil
	}
	must(t, p.EndEpoch())
	p.testCommitHook = nil
	if !fired {
		t.Fatal("hook never fired")
	}
	select {
	case err := <-ch:
		t.Fatalf("boundary transaction decided by the epoch it slipped into: %v", err)
	default:
	}
	must(t, p.EndEpoch())
	if err := <-ch; err != nil {
		t.Fatalf("boundary transaction at next epoch: %v", err)
	}
	if got := readAll(t, p, "boundary-key"); got["boundary-key"] != "v" {
		t.Fatalf("boundary-key = %q after commit", got["boundary-key"])
	}
	checkAll(t, checkers)
}

// TestShardedScheduleShapeIndependence extends the system-level security test
// to sharded operation: two different transaction mixes — including mixes
// that concentrate all keys on one shard — must produce, on EVERY shard, a
// storage trace with identical workload-visible shape.
func TestShardedScheduleShapeIndependence(t *testing.T) {
	const nshards = 2
	type traceShape struct {
		writes  [][]string // per shard, sorted bucket-write events
		commits []int      // per shard
		reads   int64      // total logical slot reads, all shards
	}
	shape := func(run func(p *Proxy)) traceShape {
		cfg := testConfig(61) // same seed for both mixes
		cfg.DisableDurability = true
		cfg.Params.S = 48 // no early reshuffles in a short run
		var stores []storage.Backend
		var recs []*storage.Recorder
		for i := 0; i < nshards; i++ {
			r := storage.NewRecorder(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))
			recs = append(recs, r)
			stores = append(stores, r)
		}
		p, err := NewSharded(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, r := range recs {
			r.Reset()
		}
		run(p)
		st := p.Stats()
		if st.Executor.Reshuffles != 0 {
			t.Fatalf("unexpected early reshuffles (%d) with S=%d", st.Executor.Reshuffles, cfg.Params.S)
		}
		out := traceShape{writes: make([][]string, nshards), commits: make([]int, nshards)}
		for i, r := range recs {
			for _, ev := range r.Events() {
				switch ev.Op {
				case storage.OpWriteBucket:
					out.writes[i] = append(out.writes[i], fmt.Sprintf("%d", ev.Bucket))
				case storage.OpCommit:
					out.commits[i]++
				}
			}
			sort.Strings(out.writes[i])
		}
		out.reads = st.Executor.RemoteReads + st.Executor.LocalReads
		return out
	}
	fullEpoch := func(p *Proxy, keys []string, writes map[string]string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			tx := p.Begin()
			for _, k := range keys {
				tx.Read(k)
			}
			for k, v := range writes {
				tx.Write(k, []byte(v))
			}
			tx.Commit()
		}()
		for i := 0; i < p.cfg.ReadBatches; i++ {
			waitQueuedOrDone(p, done)
			if err := p.StepReadBatch(); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.EndEpoch(); err != nil {
			t.Error(err)
		}
		<-done
	}
	// Mix A: traffic spread across both shards. Mix B: everything on shard 0.
	a := shape(func(p *Proxy) {
		fullEpoch(p,
			[]string{keysForShard(0, nshards, 1)[0], keysForShard(1, nshards, 1)[0]},
			map[string]string{keysForShard(1, nshards, 2)[1]: "1"})
	})
	hot := keysForShard(0, nshards, 4)
	b := shape(func(p *Proxy) {
		fullEpoch(p, hot[:2], map[string]string{hot[2]: "1", hot[3]: "2"})
	})
	if a.reads != b.reads {
		t.Fatalf("logical read totals differ: %d vs %d — batch padding broken", a.reads, b.reads)
	}
	for s := 0; s < nshards; s++ {
		if a.commits[s] != b.commits[s] {
			t.Fatalf("shard %d commit counts differ: %d vs %d", s, a.commits[s], b.commits[s])
		}
		if len(a.writes[s]) != len(b.writes[s]) {
			t.Fatalf("shard %d write-back sets differ in size: %d vs %d (skew is visible!)", s, len(a.writes[s]), len(b.writes[s]))
		}
		for i := range a.writes[s] {
			if a.writes[s][i] != b.writes[s][i] {
				t.Fatalf("shard %d write-back bucket sets differ at %d: %s vs %s", s, i, a.writes[s][i], b.writes[s][i])
			}
		}
	}
}

// TestShardedChaosCrashRecoverLoop is the 4-shard variant of the crash/recover
// stress: concurrent clients, random crash points, every acknowledged commit
// must survive on whichever shard it hashed to.
func TestShardedChaosCrashRecoverLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(88)
	cfg.BatchInterval = 500 * time.Microsecond
	cfg.EagerBatches = true
	cfg.ReadBatchSize = 16
	cfg.WriteBatchSize = 32
	cfg.FullCheckpointEvery = 3
	stores, checkers := shardedBackends(cfg, 4)

	acked := make(map[string]string)
	var ackedMu sync.Mutex

	for round := 0; round < 4; round++ {
		p, err := NewSharded(stores, cfg)
		if err != nil {
			t.Fatalf("round %d: open/recover: %v", round, err)
		}
		rng := rand.New(rand.NewPCG(uint64(round), 23))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				crng := rand.New(rand.NewPCG(uint64(round*10+c), 5))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("chaos-%d", crng.IntN(16))
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
		time.Sleep(time.Duration(5+rng.IntN(15)) * time.Millisecond)
		close(stop)
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}

	p, err := NewSharded(stores, cfg)
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
			t.Fatalf("acknowledged key %q lost after crashes", k)
		}
	}
	checkAll(t, checkers)
}
