package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"obladi/internal/ringoram"
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
	endErr := p.EndEpoch()
	ackErr := <-ack
	mu.Lock()
	made := calls
	mu.Unlock()
	when := fmt.Sprintf("crash after call %d of %d", k, made)
	if made > k != (endErr != nil) {
		t.Fatalf("%s: EndEpoch returned %v", when, endErr)
	}
	if endErr != nil && !errors.Is(endErr, errCrashed) {
		t.Fatalf("%s: EndEpoch failed with %v", when, endErr)
	}
	// The seal snapshotted the epoch's metadata and nothing has touched the
	// live ORAMs since: they are what the epoch's checkpoints restore to.
	postState := make([][]byte, shards)
	for i, sh := range p.shards {
		postState[i], err = sh.exec.ORAM().EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
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
		wcfg, err := WALConfigFor(cfg, i, len(stores))
		must(t, err)
		l, err := wal.New(store, wcfg)
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
