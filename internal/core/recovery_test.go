package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"obladi/internal/oramexec"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// commitKV commits a set of writes in one transaction, driving the schedule
// manually.
func commitKV(t *testing.T, p *Proxy, kv map[string]string) {
	t.Helper()
	tx := p.Begin()
	for k, v := range kv {
		must(t, tx.Write(k, []byte(v)))
	}
	ch := tx.CommitAsync()
	must(t, p.EndEpoch())
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
}

// readAll reads keys in one transaction, driving the schedule manually.
// Retries if the transaction straddles an epoch boundary.
func readAll(t *testing.T, p *Proxy, keys ...string) map[string]string {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		out := make(map[string]string)
		done := make(chan error, 1)
		go func() {
			tx := p.Begin()
			defer tx.Abort()
			res, err := tx.ReadMany(keys)
			if err != nil {
				done <- err
				return
			}
			for _, r := range res {
				if r.Found {
					out[r.Key] = string(r.Value)
				}
			}
			done <- nil
		}()
		var err error
	drive:
		for {
			select {
			case err = <-done:
				break drive
			default:
				must(t, p.Advance())
				time.Sleep(200 * time.Microsecond)
			}
		}
		if err == nil {
			return out
		}
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrEpochFull) {
			t.Fatal(err)
		}
	}
	t.Fatal("readAll: aborted on every attempt")
	return nil
}

func TestRecoveryPreservesCommitted(t *testing.T) {
	cfg := testConfig(31)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)

	p1, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"})
	// Crash: p1 simply disappears (no Close, buffer and metadata lost).

	p2, err := New(checker, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	got := readAll(t, p2, "k1", "k2", "k3")
	want := map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("after recovery %s = %q, want %q", k, got[k], v)
		}
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

func TestRecoveryDropsInFlightEpoch(t *testing.T) {
	cfg := testConfig(32)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)

	p1, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"stable": "committed"})

	// In-flight epoch: a read batch executes (logged!), writes buffered,
	// then the proxy crashes before the epoch commits.
	tx := p1.Begin()
	go func() {
		tx.Read("stable")
		tx.Write("stable", []byte("doomed"))
		tx.Write("new-key", []byte("doomed-too"))
		tx.Commit()
	}()
	must(t, p1.StepReadBatch())
	// Crash now: no EndEpoch, no Close.

	p2, err := New(checker, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	if p2.ReplayedReads() == 0 {
		t.Fatal("recovery replayed nothing despite a logged batch")
	}
	got := readAll(t, p2, "stable", "new-key")
	if got["stable"] != "committed" {
		t.Fatalf("stable = %q after recovery", got["stable"])
	}
	if _, leaked := got["new-key"]; leaked {
		t.Fatal("in-flight write survived the crash")
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

// TestRecoveryReplaysObservedTrace verifies §8's security core in both
// boundary modes: after loading the resident levels (TestRecoveryLoadsResidentTop
// pins that read), recovery reads every slot the adversary saw the aborted
// epoch read, exactly once. It may read more, because a restarted proxy has no
// epoch buffers: slots the aborted epoch's log records name, in buckets of
// levels L-2..L that epoch served from its sealed set throughout — it read
// none of their slots from storage — and no slot of any bucket version twice
// (the invariant checker sits under the recorder). A synchronous boundary
// leaves no sealed set, so there the replay reads nothing more. Neither side
// reads a resident level.
func TestRecoveryReplaysObservedTrace(t *testing.T) {
	for name, mode := range map[string]BoundaryMode{"sync": BoundarySync, "pipelined": BoundaryPipelined} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(33)
			cfg.Boundary = mode
			backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
			checker := storage.NewInvariantChecker(backend)
			rec := storage.NewRecorder(checker)

			p1, err := New(rec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Enough committed epochs for blocks to sink into the tree.
			for e := 0; e < 4; e++ {
				kv := map[string]string{}
				for i := 0; i < 4; i++ {
					kv[fmt.Sprintf("k%d", e*4+i)] = fmt.Sprint(e)
				}
				commitKV(t, p1, kv)
			}
			oram := p1.shards[0].exec.ORAM()
			_, evictCount := oram.Counters()

			// Aborted epoch: two read batches.
			rec.Reset()
			for _, keys := range [][]string{{"k0", "k5"}, {"k10", "k15"}} {
				tx := p1.Begin()
				go func(keys []string) {
					tx.ReadMany(keys)
				}(keys)
				// Give the reads a moment to enqueue, then fire the batch.
				waitQueued(t, p1, len(keys))
				must(t, p1.StepReadBatch())
			}
			aborted := slotReads(rec.Events())
			// Crash. What the epoch logged is what recovery will find.
			logged, err := p1.shards[0].rlog.Recover()
			if err != nil {
				t.Fatal(err)
			}
			named := make(map[storage.SlotRef]bool)
			geo := oram.Geometry()
			for _, batch := range logged.AbortedBatches {
				for _, le := range batch {
					switch le.Kind {
					case oramexec.LogAccess:
						for i, b := range oram.PathBuckets(le.Leaf) {
							named[storage.SlotRef{Bucket: b, Slot: le.Slots[i]}] = true
						}
					case oramexec.LogEvict:
						// The evict path is a function of the eviction counter.
						leaf := int(bits.Reverse(uint(evictCount)%uint(geo.Leaves)) >> (bits.UintSize - geo.Levels))
						for i, b := range oram.PathBuckets(leaf) {
							for _, s := range le.BucketSlots[i] {
								named[storage.SlotRef{Bucket: b, Slot: s}] = true
							}
						}
						evictCount++
					case oramexec.LogReshuffle:
						for _, s := range le.Slots {
							named[storage.SlotRef{Bucket: le.Bucket, Slot: s}] = true
						}
					}
				}
			}

			rec.Reset()
			p2, err := New(rec, cfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer p2.Close()
			nRes := residentTop(cfg)
			replay := slotReads(rec.Events())
			for b := 0; b < nRes; b++ { // the load; nothing else names these buckets
				for r := 0; r < cfg.Params.Z; r++ {
					ref := storage.SlotRef{Bucket: b, Slot: r}
					if replay[ref] != 1 {
						t.Fatalf("recovery read bucket %d slot %d of the resident levels %d times, the load reads it once", b, r, replay[ref])
					}
					delete(replay, ref)
				}
			}
			observed := make(map[int]bool) // buckets the aborted epoch read from storage
			for ref := range aborted {
				if ref.Bucket < nRes {
					t.Fatalf("the aborted epoch read bucket %d of a resident level from storage", ref.Bucket)
				}
				observed[ref.Bucket] = true
				if replay[ref] != 1 {
					t.Fatalf("the aborted epoch read bucket %d slot %d from storage, the replay read it %d times", ref.Bucket, ref.Slot, replay[ref])
				}
			}
			extra := 0
			for ref, n := range replay {
				switch {
				case n != 1:
					t.Fatalf("the replay read bucket %d slot %d %d times", ref.Bucket, ref.Slot, n)
				case ref.Bucket < nRes:
					t.Fatalf("the replay read bucket %d slot %d of a resident level", ref.Bucket, ref.Slot)
				case aborted[ref] == 1:
				case !named[ref]:
					t.Fatalf("the replay read bucket %d slot %d, which no log record of the aborted epoch names", ref.Bucket, ref.Slot)
				case observed[ref.Bucket]:
					t.Fatalf("the replay read bucket %d slot %d anew, in a bucket the aborted epoch read from storage", ref.Bucket, ref.Slot)
				default:
					extra++
				}
			}
			if (extra > 0) != (mode == BoundaryPipelined) {
				t.Fatalf("the replay read %d slots the aborted epoch had served from the proxy; only a sealed set (%s) leaves any", extra, name)
			}
			if v := checker.Violation(); v != nil {
				t.Fatal(v)
			}
		})
	}
}

// TestRecoveryLoadsResidentTop sweeps the recovery step the resident levels
// need: storage holds only the blocks of levels 0..L-3, so a recovering proxy
// fetches them before it reads a path. After an idle, a uniform and a
// one-hot-key history of equal length, a crash and restart issues — first of
// all its reads — one vectored read of slots 0..Z-1 of every resident bucket in
// bucket order, the same refs whatever the history; and neither the replay,
// nor fifty more epochs, nor a second crash and what follows it, ever names a
// bucket of those levels outside that one read.
func TestRecoveryLoadsResidentTop(t *testing.T) {
	const epochs = 12
	var loads []string
	for _, history := range []string{"idle", "uniform", "hot"} {
		t.Run(history, func(t *testing.T) {
			cfg := testConfig(36)
			checker := storage.NewInvariantChecker(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))
			rec := storage.NewRecorder(checker)
			want := map[string]string{}
			rng := rand.New(rand.NewPCG(5, 7))
			// epoch commits one epoch of the history: a read batch, writes of
			// what it read, the boundary.
			epoch := func(p *Proxy, history string, e int) {
				var keys []string
				switch history {
				case "uniform":
					for _, k := range rng.Perm(24)[:3] {
						keys = append(keys, fmt.Sprintf("k%d", k))
					}
				case "hot":
					keys = []string{"hot"}
				}
				tx := p.Begin()
				reads := make([]*Future, len(keys))
				for i, key := range keys {
					reads[i] = tx.ReadAsync(key)
				}
				must(t, p.StepReadBatch())
				for i, key := range keys {
					if _, _, err := reads[i].Value(); err != nil {
						t.Fatal(err)
					}
					want[key] = fmt.Sprintf("%s-%d", history, e)
					must(t, tx.Write(key, []byte(want[key])))
				}
				ack := tx.CommitAsync()
				must(t, p.EndEpoch())
				must(t, <-ack)
			}
			// crash leaves one logged read batch behind and restarts.
			crash := func(p *Proxy) *Proxy {
				tx := p.Begin()
				tx.ReadAsync("hot")
				must(t, p.StepReadBatch())
				rec.Reset()
				next, err := New(rec, cfg)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				return next
			}
			// loadThenNothing checks a recovery's reads and returns the load's.
			loadThenNothing := func(p *Proxy) string {
				nRes, z := residentTop(cfg), cfg.Params.Z
				if nRes < 3 {
					t.Fatalf("%d resident buckets: the test wants resident levels", nRes)
				}
				reads := slotReadOrder(rec.Events())
				if len(reads) <= nRes*z {
					t.Fatalf("recovery read %d slots: no replay followed the load", len(reads))
				}
				for i, ref := range reads[:nRes*z] {
					if ref != (storage.SlotRef{Bucket: i / z, Slot: i % z}) {
						t.Fatalf("read %d of the recovery is bucket %d slot %d, the load reads bucket %d slot %d there", i, ref.Bucket, ref.Slot, i/z, i%z)
					}
				}
				for _, ref := range reads[nRes*z:] {
					if ref.Bucket < nRes {
						t.Fatalf("the replay read bucket %d slot %d of a resident level", ref.Bucket, ref.Slot)
					}
				}
				// One call for the load, one for the replayed batch.
				if calls := rec.Calls(); calls.ReadSlots != 2 || calls.ReadSlot != 0 || calls.ReadBucket != 0 {
					t.Fatalf("recovery read through %+v, want the load and the replayed batch, one vectored call each", calls)
				}
				return fmt.Sprint(reads[:nRes*z])
			}

			// noTopReads checks everything recorded since the last reset.
			noTopReads := func() {
				for _, ref := range slotReadOrder(rec.Events()) {
					if ref.Bucket < residentTop(cfg) {
						t.Fatalf("bucket %d of a resident level read from storage after the load", ref.Bucket)
					}
				}
			}

			p1, err := New(rec, cfg)
			must(t, err)
			for e := 0; e < epochs; e++ {
				epoch(p1, history, e)
			}
			noTopReads()
			p2 := crash(p1)
			loads = append(loads, loadThenNothing(p2))
			rec.Reset()
			for e := 0; e < 50; e++ {
				epoch(p2, "uniform", epochs+e)
			}
			noTopReads()
			p3 := crash(p2)
			defer p3.Close()
			if again := loadThenNothing(p3); again != loads[len(loads)-1] {
				t.Fatalf("the second recovery loaded %s, the first %s", again, loads[len(loads)-1])
			}
			rec.Reset()
			var keys []string
			for key := range want {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for len(keys) > 0 {
				n := min(len(keys), cfg.ReadBatchSize)
				for key, v := range readAll(t, p3, keys[:n]...) {
					if v != want[key] {
						t.Fatalf("%s = %q after two recoveries, want %q", key, v, want[key])
					}
				}
				keys = keys[n:]
			}
			noTopReads()
			if v := checker.Violation(); v != nil {
				t.Fatal(v)
			}
		})
	}
	for _, l := range loads {
		if l != loads[0] {
			t.Fatalf("the load depends on the history: %s versus %s", l, loads[0])
		}
	}
}

// residentTop is the level rule the executor keeps resident and stores without
// dummies: the buckets of levels 0..L-3, the first 2^(L-2)-1 in heap order.
func residentTop(cfg Config) int { return 1<<(cfg.Params.Geometry().Levels-2) - 1 }

// waitQueued blocks until n fetches are queued at the proxy.
func waitQueued(t *testing.T, p *Proxy, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.PendingFetches() >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("fetches never queued")
}

// slotReads counts the slot reads of a recorded trace.
func slotReads(evs []storage.Event) map[storage.SlotRef]int {
	out := make(map[storage.SlotRef]int)
	for _, ev := range evs {
		if ev.Op == storage.OpReadSlot {
			out[storage.SlotRef{Bucket: ev.Bucket, Slot: ev.Slot}]++
		}
	}
	return out
}

// slotReadOrder lists the slot reads of a recorded trace in order.
func slotReadOrder(evs []storage.Event) []storage.SlotRef {
	var refs []storage.SlotRef
	for _, ev := range evs {
		if ev.Op == storage.OpReadSlot {
			refs = append(refs, storage.SlotRef{Bucket: ev.Bucket, Slot: ev.Slot})
		}
	}
	return refs
}

func TestRecoveryIdempotent(t *testing.T) {
	// Crashing during recovery and recovering again must work and preserve
	// data (the paper: "it is possible to crash while recovering").
	cfg := testConfig(34)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)

	p1, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"k": "v"})
	tx := p1.Begin()
	go func() { tx.Read("k") }()
	waitQueued(t, p1, 1)
	must(t, p1.StepReadBatch())
	// Crash 1. Recover, then "crash" again immediately (p2 never serves).
	p2, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = p2 // crash 2: p2 abandoned without Close
	p3, err := New(checker, cfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer p3.Close()
	got := readAll(t, p3, "k")
	if got["k"] != "v" {
		t.Fatalf("k = %q after double recovery", got["k"])
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

func TestRecoveryAcrossManyEpochs(t *testing.T) {
	cfg := testConfig(35)
	cfg.FullCheckpointEvery = 3
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	p1, err := New(checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for e := 0; e < 7; e++ {
		kv := map[string]string{}
		for i := 0; i < 3; i++ {
			k := fmt.Sprintf("k%d", (e*3+i)%10)
			v := fmt.Sprintf("v%d-%d", e, i)
			kv[k] = v
			want[k] = v
		}
		commitKV(t, p1, kv)
	}
	p2, err := New(checker, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	got := readAll(t, p2, keys...)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

func TestRecoveryWithoutDurabilityFails(t *testing.T) {
	cfg := testConfig(36)
	cfg.DisableDurability = true
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p1, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"k": "v"})
	// Without a recovery log, a restarted proxy reinitializes from scratch:
	// prior data is gone (fresh tree) — documenting the knob's semantics.
	p2, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := readAll(t, p2, "k")
	if _, ok := got["k"]; ok {
		t.Fatal("data survived without a durability log (tree should have been reinitialized)")
	}
}

// TestProxyTraceShapeIndependence is the system-level security test: two
// different transaction mixes with the same configuration must produce
// storage traces whose workload-visible shape is identical. The number of
// physical reads varies only with the ORAM's own randomness (reads whose
// random path crosses a buffered bucket are served locally), so the
// invariants are: identical deterministic write-back sets, identical commit
// counts, and an identical total of logical slot reads (remote + local).
func TestProxyTraceShapeIndependence(t *testing.T) {
	type traceShape struct {
		writes     []string // ordered bucket-write events
		commits    int
		totalReads int64 // remote + locally-served slot reads
	}
	shape := func(seed uint64, run func(p *Proxy)) traceShape {
		cfg := testConfig(seed)
		cfg.DisableDurability = true // isolate the data-path trace
		// Early reshuffles depend on random slot-consumption spikes, not on
		// the workload; with a large S none occur in a short run.
		cfg.Params.S = 48
		backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
		rec := storage.NewRecorder(backend)
		p, err := New(rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		rec.Reset()
		run(p)
		st := p.Stats()
		if st.Executor.Reshuffles != 0 {
			t.Fatalf("unexpected early reshuffles (%d) with S=%d", st.Executor.Reshuffles, cfg.Params.S)
		}
		var out traceShape
		for _, ev := range rec.Events() {
			switch ev.Op {
			case storage.OpWriteBucket:
				out.writes = append(out.writes, fmt.Sprintf("%d", ev.Bucket))
			case storage.OpCommit:
				out.commits++
			}
		}
		sort.Strings(out.writes)
		out.totalReads = st.Executor.RemoteReads + st.Executor.LocalReads
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
	a := shape(41, func(p *Proxy) {
		fullEpoch(p, []string{"x1", "x2", "x3"}, map[string]string{"w": "1"})
	})
	b := shape(42, func(p *Proxy) {
		fullEpoch(p, []string{"hot"}, map[string]string{"a": "1", "b": "2", "c": "3"})
	})
	if a.commits != b.commits {
		t.Fatalf("commit counts differ: %d vs %d", a.commits, b.commits)
	}
	if a.totalReads != b.totalReads {
		t.Fatalf("logical read totals differ: %d vs %d — batch padding broken", a.totalReads, b.totalReads)
	}
	if len(a.writes) != len(b.writes) {
		t.Fatalf("write-back sets differ in size: %d vs %d", len(a.writes), len(b.writes))
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			t.Fatalf("write-back bucket sets differ at %d: %s vs %s", i, a.writes[i], b.writes[i])
		}
	}
}

// waitQueuedOrDone waits briefly for fetches to enqueue (or the txn to
// finish enqueuing everything it will). The wait must be time-bounded, not
// iteration-bounded: with vectored storage I/O a batch completes in
// microseconds, so a fixed spin count can elapse before the just-woken
// client goroutine gets scheduled to queue its next read — and a fetch that
// misses the epoch's last batch waits for the next epoch, which a manually
// driven test never starts.
func waitQueuedOrDone(p *Proxy, done chan struct{}) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return
		default:
		}
		if p.PendingFetches() > 0 {
			return
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// commitGate wraps a backend and, when armed, fails every append of a
// committing checkpoint — freezing a boundary exactly at its commit point,
// after its prepare (batch records and flush durable). Record kinds are
// plaintext framing, so the "storage server" can target them precisely.
type commitGate struct {
	storage.Backend
	mu    sync.Mutex
	armed bool
}

var errCommitGate = errors.New("injected storage failure at the commit point")

func (g *commitGate) arm(on bool) {
	g.mu.Lock()
	g.armed = on
	g.mu.Unlock()
}

func (g *commitGate) Append(rec []byte) (uint64, error) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed && wal.IsCommitRecord(rec) {
		return 0, errCommitGate
	}
	return g.Backend.Append(rec)
}

// TestCrashBetweenSealAndCommit kills a pipelined boundary in its riskiest
// window: epoch e is sealed (write batch executed, buckets flushing,
// checkpoint prepared) and epoch e+1 is already open, but the coordinator's
// committing checkpoint never lands. The commit waiter must be woken with the
// failure (not acked, not stranded), and recovery must roll back to the last
// committed epoch, drop the sealed epoch's writes, and replay its logged
// reads.
func TestCrashBetweenSealAndCommit(t *testing.T) {
	cfg := testConfig(38)
	cfg.Boundary = BoundaryPipelined
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	checker := storage.NewInvariantChecker(backend)
	gate := &commitGate{Backend: checker}

	p1, err := New(gate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"stable": "committed"})

	// Doomed epoch: a logged read batch, two writes, then a boundary whose
	// asynchronous commit dies at the commit point.
	gate.arm(true)
	tx := p1.Begin()
	readDone := make(chan error, 1)
	go func() {
		_, rerr := tx.ReadMany([]string{"stable"})
		readDone <- rerr
	}()
	waitQueued(t, p1, 1)
	must(t, p1.StepReadBatch())
	must(t, <-readDone)
	must(t, tx.Write("stable", []byte("doomed")))
	must(t, tx.Write("fresh", []byte("doomed-too")))
	ch := tx.CommitAsync()
	// The seal succeeds and epoch e+1 opens immediately; the background
	// commit then hits the gate.
	must(t, p1.EndEpoch())
	// Reads of the next epoch may already be running when the commit dies;
	// either they work or the proxy has fail-stopped by then.
	if err := p1.StepReadBatch(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("read batch during async commit: %v", err)
	}
	select {
	case err := <-ch:
		if err == nil {
			t.Fatal("commit acknowledged although the commit record never landed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit waiter stranded after a mid-commit crash")
	}
	p1.Close()

	gate.arm(false)
	p2, err := New(gate, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	if p2.ReplayedReads() == 0 {
		t.Fatal("recovery replayed nothing despite logged batches")
	}
	got := readAll(t, p2, "stable", "fresh")
	if got["stable"] != "committed" {
		t.Fatalf("stable = %q after recovery, want the last committed value", got["stable"])
	}
	if _, leaked := got["fresh"]; leaked {
		t.Fatal("write of the sealed-but-uncommitted epoch survived the crash")
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
}

// TestRecoveryAfterBlindOverwrite is the reproducer of a known defect, found
// by the commit crash sweep and older than it: a sealed epoch that blind-wrote
// a key whose current copy sits in the tree, and then never committed, cannot
// be replayed. The dummiless write turned the stale copy into filler without
// reading it, so the epoch's logged evictions skip that slot; recovery does
// not re-apply the aborted write, finds a live block the logged schedule never
// reads, and refuses (ringoram.ErrReplay) — on every restart. Keeping the
// block needs its bytes, and fetching them is a read the adversary never saw:
// the fix belongs in how a dummiless write retires a tree copy, not in replay
// (ROADMAP, "End-to-end oracles").
func TestRecoveryAfterBlindOverwrite(t *testing.T) {
	t.Skip("known defect: replay of an aborted blind overwrite of a tree-resident key diverges (see ROADMAP)")
	cfg := testConfig(95)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	gate := &commitGate{Backend: backend}
	p1, err := New(gate, cfg)
	must(t, err)
	keys := keysForShard(0, 1, 2)
	for e := 1; e <= 3; e++ { // enough write batches to evict both keys into the tree
		commitKV(t, p1, map[string]string{keys[0]: fmt.Sprint(e), keys[1]: fmt.Sprint(e)})
	}
	gate.arm(true)
	tx := p1.Begin()
	must(t, tx.Write(keys[0], []byte("doomed")))
	must(t, tx.Write(keys[1], []byte("doomed")))
	tx.CommitAsync()
	if err := p1.EndEpoch(); !errors.Is(err, errCommitGate) {
		t.Fatalf("EndEpoch with the commit point gated: %v", err)
	}
	p1.Close()
	gate.arm(false)
	p2, err := New(gate, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	if got := readAll(t, p2, keys...); got[keys[0]] != "3" || got[keys[1]] != "3" {
		t.Fatalf("recovered %v, want the last committed values", got)
	}
}

func TestRecoveryStatsExposed(t *testing.T) {
	cfg := testConfig(37)
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p1, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, p1, map[string]string{"k": "v"})
	tx := p1.Begin()
	go func() { tx.Read("k") }()
	waitQueued(t, p1, 1)
	must(t, p1.StepReadBatch())

	p2, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Stats().RecoveryReplayed == 0 {
		t.Fatal("recovery stats not recorded")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("unexpected closed error")
	}
}
