package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// spyStore passes every storage round trip of one shard — reads, write-backs,
// log appends and truncations, barriers, epoch commits — through a hook
// before the store sees it. A hook error is returned in the call's place: the
// store never saw it, which is what a proxy that died just before the call
// leaves behind.
type spyStore struct {
	storage.Backend
	shard int
	hook  func(shard int, call string) error
}

func (s *spyStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	if err := s.hook(s.shard, "ReadSlots"); err != nil {
		return nil, err
	}
	return s.Backend.ReadSlots(refs)
}

func (s *spyStore) WriteBuckets(writes []storage.BucketWrite) error {
	if err := s.hook(s.shard, "WriteBuckets"); err != nil {
		return err
	}
	return s.Backend.WriteBuckets(writes)
}

func (s *spyStore) Append(rec []byte) (uint64, error) {
	if err := s.hook(s.shard, "Append"); err != nil {
		return 0, err
	}
	return s.Backend.Append(rec)
}

func (s *spyStore) Truncate(before uint64) error {
	if err := s.hook(s.shard, "Truncate"); err != nil {
		return err
	}
	return s.Backend.Truncate(before)
}

func (s *spyStore) CommitEpoch(epoch uint64) error {
	if err := s.hook(s.shard, "CommitEpoch"); err != nil {
		return err
	}
	return s.Backend.CommitEpoch(epoch)
}

// spyUnified is the spy over a logheap shard: it keeps the deferred-barrier
// capabilities visible, or the proxy would not take the single-flush commit.
type spyUnified struct {
	spyStore
	lb  storage.LogBatcher
	ecb storage.EpochCommitBatcher
}

func (s *spyUnified) AppendNoSync(rec []byte) (uint64, error) {
	if err := s.hook(s.shard, "AppendNoSync"); err != nil {
		return 0, err
	}
	return s.lb.AppendNoSync(rec)
}

func (s *spyUnified) SyncLog() error {
	if err := s.hook(s.shard, "SyncLog"); err != nil {
		return err
	}
	return s.lb.SyncLog()
}

func (s *spyUnified) CommitEpochNoSync(epoch uint64) error {
	if err := s.hook(s.shard, "CommitEpochNoSync"); err != nil {
		return err
	}
	return s.ecb.CommitEpochNoSync(epoch)
}

func (s *spyUnified) CommitStream() any { return s.ecb.CommitStream() }

// spyOn wraps every shard's store, mirroring its capability set.
func spyOn(stores []storage.Backend, hook func(shard int, call string) error) []storage.Backend {
	out := make([]storage.Backend, len(stores))
	for i, st := range stores {
		spy := spyStore{Backend: st, shard: i, hook: hook}
		if ecb, ok := st.(storage.EpochCommitBatcher); ok {
			out[i] = &spyUnified{spyStore: spy, lb: st.(storage.LogBatcher), ecb: ecb}
		} else {
			out[i] = &spy
		}
	}
	return out
}

// boundaryStores builds the stores of one deployment under test: in-memory
// backends, or a logheap disk group in a fresh directory.
func boundaryStores(t *testing.T, cfg Config, logheap bool, shards int) []storage.Backend {
	t.Helper()
	if logheap {
		g := openLogHeapGroup(t, t.TempDir(), shards, cfg)
		t.Cleanup(func() { g.Close() })
		return g.Backends()
	}
	stores := make([]storage.Backend, shards)
	for i := range stores {
		stores[i] = storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	}
	return stores
}

// TestBoundaryStorageCalls pins the storage round trips of a steady-state
// epoch, the counts the benchmark's gated storage_calls_per_commit and
// barriers_per_epoch are made of. On a store whose appends are durable
// inline: R+1 vectored reads (the read batches and the write batch's
// eviction reads), one write-back, R+2 appends (the batch schedules and the
// checkpoint — the commit point has no record of its own) and one epoch
// commit, the commit stage running write-back → checkpoint → epoch commit.
// On a two-shard logheap group: R+2 barrier rounds per shard, all appends
// deferred, the whole commit stage standing on its last round.
func TestBoundaryStorageCalls(t *testing.T) {
	const epochs = 6
	run := func(t *testing.T, stores []storage.Backend, steady func()) (perShard []map[string]int, lastEpoch [][]string) {
		cfg := testConfig(91)
		var mu sync.Mutex
		perShard = make([]map[string]int, len(stores))
		lastEpoch = make([][]string, len(stores))
		for i := range perShard {
			perShard[i] = map[string]int{}
		}
		p, err := NewSharded(spyOn(stores, func(shard int, call string) error {
			mu.Lock()
			perShard[shard][call]++
			lastEpoch[shard] = append(lastEpoch[shard], call)
			mu.Unlock()
			return nil
		}), cfg)
		must(t, err)
		defer p.Close()
		// A first cadence warms up; the counted epochs avoid its full
		// checkpoint, whose Truncate is the one call that is not per epoch.
		step := func(e int) {
			tx := p.Begin()
			f := tx.ReadAsync(fmt.Sprintf("calls-%d", e%5))
			must(t, p.StepReadBatch())
			if _, _, err := f.Value(); err != nil {
				t.Fatal(err)
			}
			must(t, tx.Write(fmt.Sprintf("calls-%d", (e+1)%5), []byte{byte(e)}))
			ack := tx.CommitAsync()
			for b := 1; b < cfg.ReadBatches; b++ {
				must(t, p.StepReadBatch())
			}
			must(t, p.EndEpoch())
			must(t, <-ack)
			must(t, p.WaitCommitted())
		}
		for e := 1; e <= 3; e++ {
			step(e)
		}
		mu.Lock()
		for i := range perShard {
			clear(perShard[i])
		}
		mu.Unlock()
		steady()
		for e := 4; e < 4+epochs; e++ {
			mu.Lock()
			for i := range lastEpoch {
				lastEpoch[i] = nil
			}
			mu.Unlock()
			step(e)
		}
		return perShard, lastEpoch
	}
	r := testConfig(91).ReadBatches

	t.Run("mem", func(t *testing.T) {
		cfg := testConfig(91)
		rec := storage.NewRecorder(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))
		perShard, last := run(t, []storage.Backend{rec}, rec.Reset)
		want := map[string]int{"ReadSlots": epochs * (r + 1), "WriteBuckets": epochs, "Append": epochs * (r + 2), "CommitEpoch": epochs}
		if !reflect.DeepEqual(perShard[0], want) {
			t.Fatalf("%d steady-state epochs made the calls %v, want %v", epochs, perShard[0], want)
		}
		// The trace recorder underneath agrees on the bucket-store side.
		if c, want := rec.Calls(), (storage.CallStats{ReadSlots: epochs * (r + 1), WriteBuckets: epochs, Commit: epochs}); c != want {
			t.Fatalf("the recorder saw the calls %+v, want %+v", c, want)
		}
		// One epoch, in order: R × (schedule, reads), the write batch's
		// schedule and reads, then the commit stage.
		var wantOrder []string
		for b := 0; b <= r; b++ {
			wantOrder = append(wantOrder, "Append", "ReadSlots")
		}
		wantOrder = append(wantOrder, "WriteBuckets", "Append", "CommitEpoch")
		if !slices.Equal(last[0], wantOrder) {
			t.Fatalf("an epoch's calls ran %v, want %v", last[0], wantOrder)
		}
	})

	t.Run("logheap", func(t *testing.T) {
		perShard, last := run(t, boundaryStores(t, testConfig(91), true, 2), func() {})
		for i, calls := range perShard {
			if calls["SyncLog"] != epochs*(r+2) || calls["AppendNoSync"] != epochs*(r+2) || calls["CommitEpochNoSync"] != epochs {
				t.Fatalf("shard %d: %d steady-state epochs made the calls %v; want %d barrier rounds, as many deferred appends and %d deferred epoch commits",
					i, epochs, calls, epochs*(r+2), epochs)
			}
			if calls["Append"] != 0 || calls["CommitEpoch"] != 0 {
				t.Fatalf("shard %d paid inline barriers: %v", i, calls)
			}
			// The commit stage: write-back, checkpoint, epoch commit, and only
			// then the one barrier round it stands on.
			if tail := last[i][len(last[i])-4:]; !slices.Equal(tail, []string{"WriteBuckets", "AppendNoSync", "CommitEpochNoSync", "SyncLog"}) {
				t.Fatalf("shard %d: the commit stage ran %v", i, tail)
			}
		}
	})
}

var errCrashed = errors.New("injected crash: the proxy is gone")

// TestCommitCrashSweep kills the proxy after every storage call of a commit
// stage, from the first shard's write-back to the truncation behind the last
// store commit, on in-memory stores (every ordering point a barrier) and on a
// logheap group (none but the last), with one shard and with two. The epoch
// under test writes every key, carries a full checkpoint and truncates the
// log. At each crash point the logs must recover — every follower through
// the coordinator's floor — to exactly the metadata of the epoch before or of
// the epoch itself, the same one on every shard; a restarted proxy must
// serve exactly that epoch's values; and an acknowledged epoch must be the
// recovered one. The sweep must cross the commit point — the first crash
// loses the epoch, the last keeps it — and with two shards pass through the
// state the floor exists for: a follower prepared, the coordinator not. Every
// crash point is followed by a second one inside the recovery it causes, in
// the load of the resident levels.
func TestCommitCrashSweep(t *testing.T) {
	for _, logheap := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("mem-%d", shards)
			if logheap {
				name = fmt.Sprintf("logheap-%d", shards)
			}
			t.Run(name, func(t *testing.T) {
				whole := crashAt(t, logheap, shards, math.MaxInt)
				if whole.calls < 3*shards || !whole.committed {
					t.Fatalf("the uninterrupted commit stage: %+v", whole)
				}
				var lost, kept, followerAhead int
				for k := 0; k < whole.calls; k++ {
					switch got := crashAt(t, logheap, shards, k); {
					case got.committed:
						kept++
					case kept > 0:
						t.Fatalf("crash after call %d lost the epoch that an earlier crash point kept", k)
					default:
						lost++
						if got.followerPrepared {
							followerAhead++
						}
					}
				}
				if lost == 0 || kept == 0 || (shards > 1) != (followerAhead > 0) {
					t.Fatalf("of %d crash points %d lost the epoch (%d with a follower prepared) and %d kept it", whole.calls, lost, followerAhead, kept)
				}
			})
		}
	}
}

// crashOutcome is what one crash point of the sweep came to.
type crashOutcome struct {
	calls            int  // storage calls the commit stage made, the failed one included
	committed        bool // recovery landed on the epoch under test
	followerPrepared bool // … did not, though a follower's log held the epoch's checkpoint
}

// crashAt runs a fresh deployment up to the epoch under test, lets its commit
// stage make k storage calls, fails every call after them, and checks what
// recovery makes of the remains.
func crashAt(t *testing.T, logheap bool, shards, k int) crashOutcome {
	t.Helper()
	const doomed = 4 // a full checkpoint at cadence 2, so its commit also truncates
	cfg := testConfig(95)
	cfg.FullCheckpointEvery = 2
	inner := boundaryStores(t, cfg, logheap, shards)
	var armed, counting bool
	var calls int
	var mu sync.Mutex
	p, err := NewSharded(spyOn(inner, func(_ int, call string) error {
		mu.Lock()
		defer mu.Unlock()
		// The commit stage opens with the first shard's write-back.
		counting = counting || armed && call == "WriteBuckets"
		if !counting {
			return nil
		}
		if calls++; calls > k {
			return errCrashed
		}
		return nil
	}), cfg)
	must(t, err)
	defer p.Close()
	var keys []string
	for s := 0; s < shards; s++ {
		keys = append(keys, keysForShard(s, shards, 2)...)
	}
	pre, post := map[string]string{}, map[string]string{}
	for e := 1; e < doomed; e++ {
		for _, key := range keys {
			pre[key] = fmt.Sprintf("e%d", e)
		}
		commitKV(t, p, pre)
	}
	for _, key := range keys {
		post[key] = "doomed?"
	}
	preState := recoverLogs(t, cfg, inner, fmt.Sprintf("before epoch %d", doomed))

	// Read-modify-write: an aborted blind overwrite of a key that sits in the
	// tree is a known recovery defect of its own (see
	// TestRecoveryAfterBlindOverwrite), not this protocol's.
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
		must(t, tx.Write(key, []byte(post[key])))
	}
	ack := tx.CommitAsync()
	mu.Lock()
	armed = true
	mu.Unlock()
	must(t, p.EndEpoch())
	ackErr := <-ack
	commitErr := p.WaitCommitted()
	mu.Lock()
	made := calls
	mu.Unlock()
	when := fmt.Sprintf("crash after call %d of %d", k, made)
	if made > k != (commitErr != nil) {
		t.Fatalf("%s: the boundary landed with %v", when, commitErr)
	}
	if commitErr != nil && !errors.Is(commitErr, errCrashed) {
		t.Fatalf("%s: the boundary failed with %v", when, commitErr)
	}
	// The seal snapshotted the epoch's metadata and nothing has touched the
	// live ORAMs since: they are what the epoch's checkpoints restore to.
	postState := make([][]byte, shards)
	for i, sh := range p.shards {
		postState[i], err = sh.exec.ORAM().Machine().EncodeCheckpoint(nil, true, meta.CheckpointPad{}, 0, 0)
		must(t, err)
	}
	must(t, p.Close())

	got := recoverLogs(t, cfg, inner, when)
	want, wantKV := preState.shards, pre
	if got.committed == doomed {
		want, wantKV = postState, post
	} else if got.committed != doomed-1 {
		t.Fatalf("%s: recovered to epoch %d, want %d or %d", when, got.committed, doomed-1, doomed)
	}
	if ackErr == nil && got.committed != doomed {
		t.Fatalf("%s: epoch %d was acknowledged and recovery lands on epoch %d", when, doomed, got.committed)
	}
	for i := range inner {
		if !slices.Equal(got.shards[i], want[i]) {
			t.Fatalf("%s: shard %d recovers to neither epoch's metadata (coordinator committed %d)", when, i, got.committed)
		}
	}
	// One more crash point, inside recovery: the restart dies in the last
	// shard's load of the resident levels, while the other shards load, replay
	// and flush. Recovery is re-runnable from there.
	var loads int
	_, err = NewSharded(spyOn(inner, func(shard int, call string) error {
		if shard != shards-1 || call != "ReadSlots" {
			return nil
		}
		mu.Lock()
		loads++
		mu.Unlock()
		return errCrashed
	}), cfg)
	if !errors.Is(err, errCrashed) || loads != 1 {
		t.Fatalf("%s: restart with the load failing (%d reads attempted): %v", when, loads, err)
	}
	p2, err := NewSharded(inner, cfg)
	if err != nil {
		t.Fatalf("%s: restart: %v", when, err)
	}
	defer p2.Close()
	if served := readAll(t, p2, keys...); !reflect.DeepEqual(served, wantKV) {
		t.Fatalf("%s: restarted proxy serves %v, want epoch %d's %v", when, served, got.committed, wantKV)
	}
	commitKV(t, p2, map[string]string{keys[0]: "alive"})
	return crashOutcome{calls: made, committed: got.committed == doomed, followerPrepared: got.preparedThrough == doomed}
}

// recoveredLogs is what the shards' logs recover to: the coordinator's
// committed epoch and every shard's metadata at it, in canonical form.
type recoveredLogs struct {
	committed uint64
	shards    [][]byte
	// preparedThrough is committed+1 if some follower's log would recover to
	// that epoch were the coordinator to say so, else committed.
	preparedThrough uint64
}

// recoverLogs recovers every shard's log as a restart would: the coordinator's
// on its own, each follower's with the coordinator's epoch as its floor.
func recoverLogs(t *testing.T, cfg Config, stores []storage.Backend, when string) recoveredLogs {
	t.Helper()
	var out recoveredLogs
	for i, store := range stores {
		l, err := wal.New(store, wal.Config{Key: cfg.Key, Shard: i, Shards: len(stores)})
		must(t, err)
		rec, err := l.RecoverWithFloor(out.committed)
		if err != nil {
			t.Fatalf("%s: shard %d recovery: %v", when, i, err)
		}
		if i == 0 {
			out.committed = rec.CommittedEpoch
		}
		if rec.CommittedEpoch != out.committed || rec.HasCommit != (i == 0) {
			t.Fatalf("%s: shard %d recovers to epoch %d (own commit: %v), the coordinator to %d", when, i, rec.CommittedEpoch, rec.HasCommit, out.committed)
		}
		out.shards = append(out.shards, recoveredState(t, cfg, i, rec))
		if i == 0 {
			out.preparedThrough = out.committed
		} else if _, err := l.RecoverWithFloor(out.committed + 1); err == nil {
			out.preparedThrough = out.committed + 1
		}
	}
	return out
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
	if p2.Stats().RecoveryReplayed == 0 {
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

// blockingCommit holds a store's CommitEpoch for one epoch until release is
// closed, and says so on entered.
type blockingCommit struct {
	storage.Backend
	epoch   uint64
	entered chan struct{}
	release chan struct{}
}

func (b *blockingCommit) CommitEpoch(epoch uint64) error {
	if epoch == b.epoch {
		close(b.entered)
		<-b.release
	}
	return b.Backend.CommitEpoch(epoch)
}

// TestEndEpochReturnsBeforeCommitLands pins the one boundary there is: a
// manually stepped EndEpoch returns once the epoch is sealed, the next
// epoch's read batches run while its commit stage is held, and WaitCommitted
// returns only after the commit stage has landed — the epoch's ack sent and
// its log prefix retired.
func TestEndEpochReturnsBeforeCommitLands(t *testing.T) {
	cfg := testConfig(97)
	cfg.FullCheckpointEvery = 1 // every boundary's retire truncates
	store := &blockingCommit{
		Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets),
		epoch:   1,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	p, err := New(store, cfg)
	must(t, err)
	defer p.Close()
	tx := p.Begin()
	must(t, tx.Write("k", []byte("v")))
	ack := tx.CommitAsync()
	truncations := p.Stats().Logs[0].Truncations

	ended := make(chan error, 1)
	go func() { ended <- p.EndEpoch() }()
	select {
	case err := <-ended:
		must(t, err)
	case <-time.After(5 * time.Second):
		close(store.release)
		t.Fatal("EndEpoch waited for the commit stage")
	}
	<-store.entered
	must(t, p.StepReadBatch()) // the next epoch runs while the commit is held
	waited := make(chan error, 1)
	go func() { waited <- p.WaitCommitted() }()
	select {
	case err := <-waited:
		t.Fatalf("WaitCommitted returned %v while the commit stage was held", err)
	case err := <-ack:
		t.Fatalf("epoch acknowledged (%v) while its storage commit was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := p.Stats().Logs[0].Truncations; got != truncations {
		t.Fatalf("log retired (%d truncations, was %d) before the epoch committed", got, truncations)
	}

	close(store.release)
	must(t, <-waited)
	select {
	case err := <-ack:
		must(t, err)
	default:
		t.Fatal("WaitCommitted returned before the epoch's ack was sent")
	}
	if got := p.Stats().Logs[0].Truncations; got != truncations+1 {
		t.Fatalf("%d truncations after the epoch landed, want %d", got, truncations+1)
	}
}

// callTrace records what one shard's store is asked, call by call: kind,
// the recorder's slot refs underneath (their buckets and slots, not the bytes
// their destinations hold from earlier reads), and the lengths of what is
// written.
type callTrace struct {
	*storage.Recorder
	mu    sync.Mutex
	calls []string
}

func (c *callTrace) add(format string, args ...any) {
	c.mu.Lock()
	c.calls = append(c.calls, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *callTrace) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	at := make([][2]int, len(refs))
	for i, r := range refs {
		at[i] = [2]int{r.Bucket, r.Slot}
	}
	c.add("ReadSlots %v", at)
	return c.Recorder.ReadSlots(refs)
}

func (c *callTrace) WriteBuckets(writes []storage.BucketWrite) error {
	lens := make([]int, len(writes))
	for i, w := range writes {
		for _, slot := range w.Slots {
			lens[i] += len(slot)
		}
	}
	c.add("WriteBuckets %d %v", len(writes), lens)
	return c.Recorder.WriteBuckets(writes)
}

func (c *callTrace) Append(rec []byte) (uint64, error) {
	c.add("Append %d", len(rec))
	return c.Recorder.Append(rec)
}

func (c *callTrace) Truncate(before uint64) error {
	c.add("Truncate %d", before)
	return c.Recorder.Truncate(before)
}

func (c *callTrace) CommitEpoch(epoch uint64) error {
	c.add("CommitEpoch %d", epoch)
	return c.Recorder.CommitEpoch(epoch)
}

func (c *callTrace) RollbackTo(epoch uint64) error {
	c.add("RollbackTo %d", epoch)
	return c.Recorder.RollbackTo(epoch)
}

func (c *callTrace) Scan(from uint64) ([][]byte, error) {
	c.add("Scan %d", from)
	return c.Recorder.Scan(from)
}

// TestSteppedTraceDeterministic runs the same seeded 2-shard workload twice,
// stepped by hand with WaitCommitted after every EndEpoch, and requires every
// shard's store to see the same calls in the same order both times, from
// NewSharded on: kinds, slot refs and lengths. The commit stage runs on the
// committer, and the wait is what orders it before the next epoch's first
// call. Both runs crash at the same point in the middle of an epoch, with two
// read batches logged, and restart over the same stores, so recovery's calls
// (log scans, rollback, the load of the resident levels, the replay and its
// commit) are compared too.
func TestSteppedTraceDeterministic(t *testing.T) {
	const shards, epochs, after = 2, 24, 4
	cfg := testConfig(99)
	cfg.FullCheckpointEvery = 4
	run := func() (calls [][]string, events [][]storage.Event, fates []string) {
		traces := make([]*callTrace, shards)
		stores := make([]storage.Backend, shards)
		for i := range stores {
			traces[i] = &callTrace{Recorder: storage.NewRecorder(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))}
			stores[i] = traces[i]
		}
		rng := rand.New(rand.NewPCG(99, 1))
		key := func() string { return fmt.Sprintf("det-%d", rng.IntN(32)) }
		// begin starts 1–4 transactions, each with a read of its own.
		begin := func(p *Proxy) ([]*Txn, []*Future) {
			txs := make([]*Txn, 1+rng.IntN(4))
			reads := make([]*Future, len(txs))
			for i := range txs {
				txs[i] = p.Begin()
				reads[i] = txs[i].ReadAsync(key())
			}
			return txs, reads
		}
		step := func(p *Proxy, e int) {
			txs, reads := begin(p)
			must(t, p.StepReadBatch())
			acks := make([]<-chan error, len(txs))
			for i, tx := range txs {
				if _, _, err := reads[i].Value(); err != nil {
					t.Fatalf("epoch %d: read: %v", e, err)
				}
				if err := tx.Write(key(), []byte(fmt.Sprint(e))); err != nil && !errors.Is(err, ErrAborted) {
					t.Fatal(err)
				}
				acks[i] = tx.CommitAsync()
			}
			for b := 1; b < cfg.ReadBatches; b++ {
				must(t, p.StepReadBatch())
			}
			must(t, p.EndEpoch())
			must(t, p.WaitCommitted())
			for _, ack := range acks {
				fates = append(fates, fmt.Sprint(<-ack))
			}
		}
		p, err := NewSharded(stores, cfg)
		must(t, err)
		for e := 0; e < epochs; e++ {
			step(p, e)
		}
		// The crash: two read batches of the next epoch are logged and served,
		// then the proxy is gone. No boundary is in flight, so Close issues no
		// storage call: the stores see exactly what a killed process leaves.
		_, reads := begin(p)
		must(t, p.StepReadBatch())
		for _, f := range reads {
			if _, _, err := f.Value(); err != nil {
				t.Fatalf("crashed epoch: read: %v", err)
			}
		}
		must(t, p.StepReadBatch())
		must(t, p.Close())
		p, err = NewSharded(stores, cfg)
		must(t, err)
		defer p.Close()
		if p.Stats().RecoveryReplayed == 0 {
			t.Fatal("the restart replayed nothing: the crashed epoch's batches were not logged")
		}
		for e := epochs; e < epochs+after; e++ {
			step(p, e)
		}
		for _, tr := range traces {
			tr.mu.Lock()
			calls = append(calls, tr.calls)
			tr.mu.Unlock()
			events = append(events, tr.Events())
		}
		return calls, events, fates
	}
	callsA, eventsA, fatesA := run()
	callsB, eventsB, fatesB := run()
	if !slices.Equal(fatesA, fatesB) {
		t.Fatalf("transaction fates differ between runs:\n%v\n%v", fatesA, fatesB)
	}
	n := cfg.Params.Geometry().NumBuckets
	for i := 0; i < shards; i++ {
		checkBootstrapTrace(t, i, n, callsA[i], eventsA[i])
		if len(callsA[i]) < (epochs+after)*(cfg.ReadBatches+4) {
			t.Fatalf("shard %d saw %d calls in %d epochs: the trace would prove nothing", i, len(callsA[i]), epochs+after)
		}
		for j := range min(len(callsA[i]), len(callsB[i])) {
			if callsA[i][j] != callsB[i][j] {
				t.Fatalf("shard %d call %d: %s, then %s", i, j, callsA[i][j], callsB[i][j])
			}
		}
		if len(callsA[i]) != len(callsB[i]) {
			t.Fatalf("shard %d: %d calls, then %d", i, len(callsA[i]), len(callsB[i]))
		}
		if !slices.Equal(eventsA[i], eventsB[i]) {
			t.Fatalf("shard %d: the recorders' slot traces differ", i)
		}
	}
}

// checkBootstrapTrace pins how bootstrap writes shard i's fresh tree of n
// buckets: one RollbackTo(0), then the buckets in ascending order in fewer
// WriteBuckets calls than there are buckets, then one CommitEpoch(0) — the
// first bucket-store calls the shard's store sees.
func checkBootstrapTrace(t *testing.T, i, n int, calls []string, events []storage.Event) {
	t.Helper()
	var tree []string
	for _, c := range calls {
		if !strings.HasPrefix(c, "Scan ") {
			tree = append(tree, c)
		}
		if c == "CommitEpoch 0" {
			break
		}
	}
	writes := len(tree) - 2
	if len(tree) < 3 || tree[0] != "RollbackTo 0" || tree[len(tree)-1] != "CommitEpoch 0" || writes >= n {
		t.Fatalf("shard %d: bootstrap made the calls %v; want RollbackTo 0, fewer than %d WriteBuckets, CommitEpoch 0", i, tree, n)
	}
	for _, c := range tree[1 : len(tree)-1] {
		if !strings.HasPrefix(c, "WriteBuckets ") {
			t.Fatalf("shard %d: bootstrap made the calls %v; want only WriteBuckets between its rollback and its commit", i, tree)
		}
	}
	want := []storage.Event{{Op: storage.OpRollback}}
	for b := 0; b < n; b++ {
		want = append(want, storage.Event{Op: storage.OpWriteBucket, Bucket: b})
	}
	want = append(want, storage.Event{Op: storage.OpCommit})
	if len(events) < len(want) || !slices.Equal(events[:len(want)], want) {
		t.Fatalf("shard %d: bootstrap's bucket trace does not write buckets 0..%d in order at epoch 0 between RollbackTo(0) and CommitEpoch(0)", i, n-1)
	}
}
