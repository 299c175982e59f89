package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// conformanceCadence is the full-checkpoint cadence of every proxy built
// here: short, so a handful of commits already truncates the logs.
const conformanceCadence = 4

// conformanceLease is the standby lease of every pair built here.
const conformanceLease = 150 * time.Millisecond

// logBound is the most records one shard's log may retain under cfg.
func logBound(t *testing.T, cfg core.Config) int {
	t.Helper()
	pub, err := cfg.Public()
	if err != nil {
		t.Fatal(err)
	}
	return pub.LogRecordBound()
}

// conformanceConfig mirrors core's test configuration: a small ORAM so
// epochs are cheap, deterministic seeds, auto-scheduled batches.
func conformanceConfig(seed uint64) core.Config {
	return core.Config{
		Params: ringoram.Params{
			NumBlocks: 128,
			Z:         4,
			S:         6,
			A:         4,
			KeySize:   24,
			ValueSize: 64,
			Seed:      seed,
		},
		Key:            cryptoutil.KeyFromSeed([]byte("replica-conformance")),
		ReadBatches:    2,
		ReadBatchSize:  8,
		WriteBatchSize: 8,
		BatchInterval:  time.Millisecond,

		FullCheckpointEvery: conformanceCadence,
	}
}

// haPair is an in-process primary/standby deployment over shared in-memory
// backends — the same topology the binaries build, minus the client wire.
type haPair struct {
	raw     []storage.Backend // shared stores (what a real deployment's network reaches)
	views   []storage.Backend // the primary's fenced views
	cfg     core.Config
	sender  *Sender
	primary *core.Proxy
	standby *Standby
}

// haOptions shapes an haPair beyond the common case.
type haOptions struct {
	shards int
	// manual drops the Δ timer: the test steps the primary's schedule itself
	// (advanceEpoch, commitStepped), so a thousand epochs take milliseconds
	// and truncations land at known points.
	manual bool
	// noStandby leaves the standby to a later attachStandby call.
	noStandby bool
	// view, when set, wraps each of the primary's fenced views.
	view func(storage.Backend) storage.Backend
}

func newHAPair(t *testing.T, o haOptions) *haPair {
	t.Helper()
	cfg := conformanceConfig(7)
	if o.manual {
		cfg.BatchInterval = 0
	}
	raw := make([]storage.Backend, o.shards)
	for i := range raw {
		raw[i] = storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	}
	// The primary fences at startup (as obladi.Open does with a standby):
	// holding a generation is what lets promotion revoke it — a raw, token-0
	// handle could never be fenced out.
	views, err := storage.FenceAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	if o.view != nil {
		for i := range views {
			views[i] = o.view(views[i])
		}
	}
	primary, err := core.NewSharded(views, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewSender("127.0.0.1:0", SenderConfig{
		Shards: o.shards,
		Lease:  conformanceLease,
		Alive:  func() bool { return primary.Failed() == nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &haPair{raw: raw, views: views, cfg: cfg, sender: sender, primary: primary}
	t.Cleanup(func() {
		if h.standby != nil {
			h.standby.Stop()
		}
		h.sender.Close()
		h.primary.Close()
	})
	if !o.noStandby {
		h.attachStandby(t, h.sender.Addr(), raw)
		waitAttached(t, h.standby)
	}
	return h
}

// attachStandby starts the pair's standby over stores (the shared stores, or
// wrappers of them) against the sender at addr (the live sender, or a
// linkProxy in front of it).
func (h *haPair) attachStandby(t *testing.T, addr string, stores []storage.Backend) {
	t.Helper()
	var err error
	h.standby, err = NewStandby(addr, stores, StandbyConfig{LeaseTimeout: conformanceLease})
	if err != nil {
		t.Fatal(err)
	}
}

// kill simulates the primary host dying: the heartbeats stop (sender gone),
// and the proxy is abandoned un-shut-down — whatever it was doing mid-epoch
// is lost exactly as a SIGKILL would lose it.
func (h *haPair) kill() {
	h.sender.Close()
}

// promote waits out the lease and promotes the standby, returning the fenced
// views for the new primary.
func (h *haPair) promote(t *testing.T) []storage.Backend {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.standby.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	views, err := h.standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	return views
}

// newPrimary opens the promoted proxy over the fenced views: a restart.
func (h *haPair) newPrimary(t *testing.T, views []storage.Backend) *core.Proxy {
	t.Helper()
	p, err := core.NewSharded(views, h.cfg)
	if err != nil {
		t.Fatalf("opening the promoted proxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// failoverStepped kills a manually driven primary, promotes the standby into
// a manually driven proxy and checks that every acknowledged key reads back
// and that the new primary commits.
func (h *haPair) failoverStepped(t *testing.T, want map[string][]byte) {
	t.Helper()
	h.kill()
	p2 := h.newPrimary(t, h.promote(t))
	h.checkStepped(t, p2, want)
}

// checkStepped reads every wanted key on a manually driven proxy and commits
// one more.
func (h *haPair) checkStepped(t *testing.T, p *core.Proxy, want map[string][]byte) {
	t.Helper()
	for key, val := range want {
		v, found := readStepped(t, p, h.cfg, key)
		if !found || !bytes.Equal(v, val) {
			t.Fatalf("%s after failover: got %q found=%v, want %q", key, v, found, val)
		}
	}
	commitStepped(t, p, h.cfg, "post-failover", []byte("alive"))
}

// checkBounded asserts the lifecycle bound on every shard's log.
func (h *haPair) checkBounded(t *testing.T, when string) {
	t.Helper()
	bound := logBound(t, h.cfg)
	for i, l := range h.primary.Stats().Logs {
		if int(l.Records) > bound {
			t.Fatalf("%s: shard %d log retains %d records, bound %d", when, i, l.Records, bound)
		}
	}
}

// advanceEpoch steps a manually driven proxy through one whole epoch.
func advanceEpoch(t *testing.T, p *core.Proxy, cfg core.Config) {
	t.Helper()
	for i := 0; i <= cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

// commitStepped commits key=value on a manually driven proxy by stepping the
// epoch that carries it; it returns once the commit is acknowledged and the
// boundary has landed.
func commitStepped(t *testing.T, p *core.Proxy, cfg core.Config, key string, value []byte) {
	t.Helper()
	tx := p.Begin()
	if err := tx.Write(key, value); err != nil {
		t.Fatal(err)
	}
	ack := tx.CommitAsync()
	advanceEpoch(t, p, cfg)
	if err := <-ack; err != nil {
		t.Fatalf("commit %s: %v", key, err)
	}
	if err := p.WaitCommitted(); err != nil {
		t.Fatalf("commit %s: %v", key, err)
	}
}

// readStepped reads key on a manually driven proxy: the read rides the
// epoch's first batch, then the rest of the epoch is stepped out.
func readStepped(t *testing.T, p *core.Proxy, cfg core.Config, key string) ([]byte, bool) {
	t.Helper()
	tx := p.Begin()
	f := tx.ReadAsync(key)
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	v, found, err := f.Wait(context.Background())
	tx.Abort()
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	for i := 0; i < cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	return v, found
}

// commit writes key=value in one transaction and returns Commit's verdict.
func commit(p *core.Proxy, key string, value []byte) error {
	tx := p.Begin()
	if err := tx.Write(key, value); err != nil {
		return err
	}
	return tx.Commit()
}

// readKey reads key in its own transaction, retrying a retryable abort as a
// client must: a read that arrives after its epoch's last read batch is held
// until the next epoch opens and then refused (ErrEpochFull), and one whose
// epoch ends before it is performed is aborted with the epoch (fate sharing).
// Either retry can be immediate.
func readKey(t *testing.T, p *core.Proxy, key string) ([]byte, bool) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		tx := p.Begin()
		v, found, err := tx.Read(key)
		tx.Abort()
		if err == nil {
			return v, found
		}
		if retryable := errors.Is(err, core.ErrEpochFull) || errors.Is(err, core.ErrAborted); !retryable || attempt >= 50 {
			t.Fatalf("read %s: %v", key, err)
		}
	}
}

// errInjected is the commit-stage storage error checkFailStopReleasesLease
// injects.
var errInjected = errors.New("injected commit-stage storage error")

// failingCommits fails every CommitEpoch once armed.
type failingCommits struct {
	storage.Backend
	armed *atomic.Bool
}

func (f failingCommits) CommitEpoch(epoch uint64) error {
	if f.armed.Load() {
		return errInjected
	}
	return f.Backend.CommitEpoch(epoch)
}

// checkFailStopReleasesLease wedges the primary with a storage error in an
// epoch's commit stage. The process lives on, but a fail-stopped proxy must
// stop heartbeating: the standby's lease runs out within a few leases, and
// its promotion keeps every commit the primary acknowledged.
func checkFailStopReleasesLease(t *testing.T) {
	var armed atomic.Bool
	h := newHAPair(t, haOptions{shards: 2, manual: true, view: func(b storage.Backend) storage.Backend {
		return failingCommits{Backend: b, armed: &armed}
	}})
	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		key, val := fmt.Sprintf("before-%d", i), []byte{byte(i)}
		commitStepped(t, h.primary, h.cfg, key, val)
		want[key] = val
	}
	armed.Store(true)
	tx := h.primary.Begin()
	if err := tx.Write("doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ack := tx.CommitAsync()
	advanceEpoch(t, h.primary, h.cfg)
	if err := <-ack; !errors.Is(err, errInjected) {
		t.Fatalf("commit in the failing epoch: %v, want the injected error", err)
	}
	if err := h.primary.Failed(); !errors.Is(err, errInjected) {
		t.Fatalf("primary after the failing commit: %v, want fail-stopped", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*conformanceLease)
	defer cancel()
	if err := h.standby.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("a fail-stopped primary still holds the lease: %v", err)
	}
	views, err := h.standby.Promote()
	if err != nil {
		t.Fatal(err)
	}
	h.checkStepped(t, h.newPrimary(t, views), want)
}

func checkPromotionFencesZombie(t *testing.T) {
	h := newHAPair(t, haOptions{shards: 2})
	for i := 0; i < 4; i++ {
		if err := commit(h.primary, fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	h.kill()
	views := h.promote(t)
	// The zombie primary's handles predate the promotion fence: every
	// mutation — in particular extending the recovery log — must now fail.
	for i, v := range h.views {
		if _, err := v.Append([]byte("zombie append")); !errors.Is(err, storage.ErrFenced) {
			t.Fatalf("shard %d: zombie append: got %v, want ErrFenced", i, err)
		}
	}
	// And a transaction on the zombie proxy cannot be acknowledged: its
	// next boundary hits the fence and fails the commit loudly.
	tx := h.primary.Begin()
	err := tx.Write("zombie-key", []byte("z"))
	if err == nil {
		err = tx.Commit()
	}
	if err == nil {
		t.Fatal("zombie proxy acknowledged a commit after promotion")
	}
	// The new primary serves the full committed state.
	p2 := h.newPrimary(t, views)
	for i := 0; i < 4; i++ {
		v, found := readKey(t, p2, fmt.Sprintf("key-%d", i))
		if !found || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("key-%d after failover: v=%q found=%v", i, v, found)
		}
	}
}

// checkZeroAckedLoss is the contract the whole subsystem exists for: every
// transaction whose Commit returned nil on the primary is present after
// failover, because the ack stands on the durable log the promotion
// recovers from.
func checkZeroAckedLoss(t *testing.T) {
	h := newHAPair(t, haOptions{shards: 2})
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("acked-%02d", i)
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := commit(h.primary, key, val); err != nil {
			t.Fatalf("commit %s: %v", key, err)
		}
		want[key] = val // Commit acked: must survive the handoff
	}
	// A multi-key read-modify-write transaction, acked as a unit.
	for attempt := 0; ; attempt++ {
		tx := h.primary.Begin()
		_, _, err := tx.Read("acked-00")
		if err == nil {
			err = tx.Write("acked-00", []byte("rewritten"))
		}
		if err == nil {
			err = tx.Write("extra", []byte("pair"))
		}
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			break
		}
		tx.Abort()
		if retryable := errors.Is(err, core.ErrEpochFull) || errors.Is(err, core.ErrAborted); !retryable || attempt >= 50 {
			t.Fatalf("multi-key commit: %v", err)
		}
	}
	want["acked-00"], want["extra"] = []byte("rewritten"), []byte("pair")

	h.kill()
	p2 := h.newPrimary(t, h.promote(t))
	for key, val := range want {
		v, found := readKey(t, p2, key)
		if !found {
			t.Fatalf("acknowledged commit lost across failover: %s", key)
		}
		if !bytes.Equal(v, val) {
			t.Fatalf("%s after failover: got %q want %q", key, v, val)
		}
	}
	// And the new primary is live: it accepts and commits new transactions.
	if err := commit(p2, "post-failover", []byte("alive")); err != nil {
		t.Fatalf("commit on promoted primary: %v", err)
	}
}

// --- promotion is a restart ---

// callCounter counts every call made on one store and the most records a
// single Scan returned. The fenced views it hands out count into the same
// tallies, so promotion and the proxy behind it are measured together.
type callCounter struct {
	mu      sync.Mutex
	calls   map[string]int
	maxScan int
}

func (c *callCounter) note(op string) {
	c.mu.Lock()
	c.calls[op]++
	c.mu.Unlock()
}

// snapshot returns the call counts without AcquireFence.
func (c *callCounter) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := maps.Clone(c.calls)
	delete(out, "AcquireFence")
	return out
}

// countedStore wraps a Backend and counts into c.
type countedStore struct {
	storage.Backend
	c *callCounter
}

func countStores(stores []storage.Backend) ([]storage.Backend, []*callCounter) {
	out := make([]storage.Backend, len(stores))
	counters := make([]*callCounter, len(stores))
	for i, st := range stores {
		counters[i] = &callCounter{calls: map[string]int{}}
		out[i] = countedStore{Backend: st, c: counters[i]}
	}
	return out, counters
}

func (s countedStore) AcquireFence() (storage.Backend, uint64, error) {
	s.c.note("AcquireFence")
	view, token, err := s.Backend.(storage.Fenceable).AcquireFence()
	if err != nil {
		return nil, 0, err
	}
	return countedStore{Backend: view, c: s.c}, token, nil
}

func (s countedStore) Scan(from uint64) ([][]byte, error) {
	s.c.note("Scan")
	recs, err := s.Backend.Scan(from)
	s.c.mu.Lock()
	s.c.maxScan = max(s.c.maxScan, len(recs))
	s.c.mu.Unlock()
	return recs, err
}

func (s countedStore) ReadSlot(bucket, slot int) ([]byte, error) {
	s.c.note("ReadSlot")
	return s.Backend.ReadSlot(bucket, slot)
}

func (s countedStore) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	s.c.note("ReadSlots")
	return s.Backend.ReadSlots(refs)
}

func (s countedStore) ReadBucket(bucket int) ([][]byte, error) {
	s.c.note("ReadBucket")
	return s.Backend.ReadBucket(bucket)
}

func (s countedStore) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	s.c.note("WriteBucket")
	return s.Backend.WriteBucket(bucket, epoch, slots)
}

func (s countedStore) WriteBuckets(writes []storage.BucketWrite) error {
	s.c.note("WriteBuckets")
	return s.Backend.WriteBuckets(writes)
}

func (s countedStore) CommitEpoch(epoch uint64) error {
	s.c.note("CommitEpoch")
	return s.Backend.CommitEpoch(epoch)
}

func (s countedStore) RollbackTo(epoch uint64) error {
	s.c.note("RollbackTo")
	return s.Backend.RollbackTo(epoch)
}

func (s countedStore) NumBuckets() (int, error) {
	s.c.note("NumBuckets")
	return s.Backend.NumBuckets()
}

func (s countedStore) Get(key string) ([]byte, bool, error) {
	s.c.note("Get")
	return s.Backend.Get(key)
}

func (s countedStore) Put(key string, value []byte) error {
	s.c.note("Put")
	return s.Backend.Put(key, value)
}

func (s countedStore) Delete(key string) error {
	s.c.note("Delete")
	return s.Backend.Delete(key)
}

func (s countedStore) Append(record []byte) (uint64, error) {
	s.c.note("Append")
	return s.Backend.Append(record)
}

func (s countedStore) Truncate(before uint64) error {
	s.c.note("Truncate")
	return s.Backend.Truncate(before)
}

func (s countedStore) LastSeq() (uint64, error) {
	s.c.note("LastSeq")
	return s.Backend.LastSeq()
}

// longRun is runLongPrimary's epoch count: over a thousand, and not a
// multiple of the cadence, so the log it leaves holds more than the full
// checkpoint at its head.
const longRun = 1043

// runLongPrimary steps h's primary through longRun epochs, committing a key
// every 40th and checking the log bound as it goes, then leaves a read batch
// of one more epoch logged — a crash's replay schedule — and returns the
// acknowledged keys. The run is deterministic: two pairs built alike and run
// through it hold the same logs.
func runLongPrimary(t *testing.T, h *haPair) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for e := 0; e < longRun; e++ {
		if e%40 != 0 {
			advanceEpoch(t, h.primary, h.cfg)
			continue
		}
		key, val := fmt.Sprintf("late-%04d", e), []byte(fmt.Sprintf("v%d", e))
		commitStepped(t, h.primary, h.cfg, key, val)
		want[key] = val
		h.checkBounded(t, fmt.Sprintf("epoch %d", e))
	}
	for i, l := range h.primary.Stats().Logs {
		if l.Truncations < 1000/conformanceCadence {
			t.Fatalf("shard %d: %d truncations over %d epochs at cadence %d", i, l.Truncations, longRun, conformanceCadence)
		}
	}
	// Land the last boundary: a commit stage still running when the caller
	// restarts over the stores would race the recovery.
	if err := h.primary.WaitCommitted(); err != nil {
		t.Fatal(err)
	}
	tx := h.primary.Begin()
	tx.ReadAsync("late-0000")
	if err := h.primary.Advance(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkLateAttachAfterTruncation runs a two-shard primary alone for over a
// thousand epochs, attaches a standby, kills the primary and promotes.
// Promotion is measured by counts on the stores: one AcquireFence per shard,
// no Scan longer than the log bound, and — against a twin pair run through
// the same schedule and restarted with a plain core.NewSharded — exactly a
// restart's storage calls. Every acknowledged key reads back.
func checkLateAttachAfterTruncation(t *testing.T) {
	h := newHAPair(t, haOptions{shards: 2, manual: true, noStandby: true})
	want := runLongPrimary(t, h)
	counted, promoted := countStores(h.raw)
	h.attachStandby(t, h.sender.Addr(), counted)
	waitAttached(t, h.standby)
	h.kill()
	p2 := h.newPrimary(t, h.promote(t))

	twin := newHAPair(t, haOptions{shards: 2, manual: true, noStandby: true})
	runLongPrimary(t, twin)
	twin.kill()
	counted, restarted := countStores(twin.raw)
	twin.newPrimary(t, counted)

	bound := logBound(t, h.cfg)
	for i, c := range promoted {
		if n := c.calls["AcquireFence"]; n != 1 {
			t.Fatalf("shard %d: promotion made %d AcquireFence calls, want 1", i, n)
		}
		if c.calls["Scan"] == 0 || c.maxScan > bound {
			t.Fatalf("shard %d: promotion scanned %d records in %d calls, want 1..%d per call", i, c.maxScan, c.calls["Scan"], bound)
		}
		got := c.snapshot()
		if want := restarted[i].snapshot(); !maps.Equal(got, want) {
			t.Fatalf("shard %d: promotion's storage calls %v, a restart's %v", i, got, want)
		}
		t.Logf("shard %d: one fence, then a restart's calls %v; longest scan %d records (bound %d)", i, got, c.maxScan, bound)
	}
	h.checkStepped(t, p2, want)
}

// checkReconnectAcrossTruncation blackholes the lease link while the
// primary goes on committing and truncating: the standby gives up on the
// silent link, redials and reattaches, and a later promotion loses no
// acknowledged commit.
func checkReconnectAcrossTruncation(t *testing.T) {
	h := newHAPair(t, haOptions{shards: 2, manual: true, noStandby: true})
	link := newLinkProxy(t, h.sender.Addr())
	h.attachStandby(t, link.addr(), h.raw)
	waitAttached(t, h.standby)
	want := map[string][]byte{"before-drop": []byte("b")}
	commitStepped(t, h.primary, h.cfg, "before-drop", want["before-drop"])
	cuts := h.primary.Stats().Logs[1].Truncations

	link.blackhole()
	for e := 0; e < 3*conformanceCadence; e++ {
		key := fmt.Sprintf("during-drop-%d", e)
		commitStepped(t, h.primary, h.cfg, key, []byte{byte(e)})
		want[key] = []byte{byte(e)}
	}
	if h.primary.Stats().Logs[1].Truncations == cuts {
		t.Fatal("no truncation since the link dropped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for link.accepts.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("standby never redialed the dropped link")
		}
		time.Sleep(time.Millisecond)
	}
	waitAttached(t, h.standby)
	h.checkBounded(t, "after reconnect")
	h.failoverStepped(t, want)
}

// checkPromoteRightAfterTruncation kills the primary in the very epoch whose
// commit stage truncated the logs: promotion must find a full checkpoint at
// the head of what the store retains and lose nothing acknowledged.
func checkPromoteRightAfterTruncation(t *testing.T) {
	h := newHAPair(t, haOptions{shards: 2, manual: true})
	want := map[string][]byte{}
	cuts := func() uint64 { return h.primary.Stats().Logs[1].Truncations }
	for e, start := 0, cuts(); cuts() < start+3; e++ {
		if e > 10*conformanceCadence {
			t.Fatal("no truncation in ten cadences of epochs")
		}
		key := fmt.Sprintf("cut-%d", e)
		commitStepped(t, h.primary, h.cfg, key, []byte{byte(e)})
		want[key] = []byte{byte(e)}
	}
	h.failoverStepped(t, want)
}
