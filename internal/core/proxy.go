// Package core implements the Obladi proxy — the paper's primary
// contribution (§5–§8): a trusted coordinator that runs serializable
// transactions over an oblivious store while revealing nothing about the
// workload beyond a fixed, deterministic batch schedule.
//
// Time is partitioned into epochs. Each epoch issues R fixed-size read
// batches at a fixed interval Δ followed by one fixed-size write batch;
// batches are padded with dummy requests and deduplicated, so the storage
// server observes the same request pattern whatever the transactions do.
// Transactions execute under MVTSO against a version cache; commit decisions
// are delayed to the epoch boundary (delayed visibility), where the epoch's
// final write set is flushed to the ORAM, metadata is checkpointed to the
// recovery unit, and clients are notified.
//
// # Pipelined epoch boundary
//
// The boundary is split into a cheap synchronous seal (decide fates, execute
// the write batch, detach each shard's buffered write-back set, snapshot the
// checkpoint) and a commit stage (flush, durable appends, storage epoch
// commit, client acks) that runs on a background committer, overlapping
// epoch e's write-back and durability round trips with epoch e+1's read
// batches. Delayed visibility makes the overlap safe: clients were only ever
// acknowledged at the boundary, so acknowledging them when the asynchronous
// commit lands changes nothing they can observe, and reads of e+1 that land
// on a not-yet-flushed bucket are served from the sealed buffer. At most one
// boundary is in flight; a stepped caller waits for it with WaitCommitted.
//
// # Sharding
//
// The proxy can partition its key space by hash across N independent Ring
// ORAM instances ("shards"), each with its own position map, stash, batch
// scheduler quota, recovery log, and storage backend. MVTSO timestamps stay
// global, so a transaction spanning shards is still serialized once and
// commits (or aborts) atomically at the global epoch boundary. Every shard
// issues exactly R read batches of bread slots and one write batch of bwrite
// slots per epoch regardless of where keys hash, so each shard's observable
// schedule remains workload independent and the shard-selection hash leaks
// nothing beyond what the single-ORAM design already leaked.
//
// Cross-shard durability uses a coordinator-commit protocol: at the epoch
// boundary every shard flushes and every shard but shard 0 appends its
// checkpoint (prepare); only then does shard 0 append its own, a committing
// checkpoint. That record is the global commit point; recovery reads shard 0's
// committed epoch and recovers every other shard with that epoch as a floor
// (its checkpoint for the committed epoch is already durable, and the ones
// above it are ignored).
package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/cryptoutil"
	"obladi/internal/mvtso"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/slab"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// Public errors.
var (
	// ErrAborted is returned when a transaction aborts (conflict, cascading
	// abort, epoch boundary, or proxy shutdown).
	ErrAborted = errors.New("obladi: transaction aborted")
	// ErrEpochFull is returned when an epoch ran out of read-batch slots or
	// write-batch capacity for this transaction.
	ErrEpochFull = errors.New("obladi: epoch capacity exhausted")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("obladi: proxy closed")
	// ErrValueTooLarge is returned for values exceeding the ORAM block size.
	ErrValueTooLarge = errors.New("obladi: value exceeds configured ValueSize")
)

// Config assembles a proxy. The batching parameters mirror Table 1 of the
// paper (reproduced in DESIGN.md): R read batches of size bread issued every
// Δ, one write batch of size bwrite. In a sharded proxy every parameter is
// per shard: each shard issues R batches of bread and one write batch of
// bwrite per epoch.
type Config struct {
	// Params configures the underlying Ring ORAM. In a sharded proxy every
	// shard uses this geometry (NumBlocks is per-shard capacity); a non-zero
	// Seed is decorrelated per shard.
	Params ringoram.Params
	// Key encrypts ORAM slots and recovery records. Required unless
	// Params.DisableEncryption is set.
	Key *cryptoutil.Key

	// ReadBatches is R, the number of read batches per epoch (default 4).
	ReadBatches int
	// ReadBatchSize is bread (default 32).
	ReadBatchSize int
	// WriteBatchSize is bwrite (default 32).
	WriteBatchSize int
	// BatchInterval is Δ. Zero selects manual mode: the caller drives
	// batches with StepReadBatch/EndEpoch (tests, deterministic examples).
	BatchInterval time.Duration
	// EagerBatches fires a read batch as soon as one shard's batch fills
	// instead of waiting out Δ. The batch schedule then tracks offered load,
	// which is observable; the paper keeps the schedule fixed, so this knob
	// exists for throughput experiments only.
	EagerBatches bool

	// Boundary has no effect: every epoch boundary is pipelined (see
	// EndEpoch). It remains so configurations that name BoundaryPipelined
	// still compile.
	Boundary BoundaryMode

	// DisableDurability skips the recovery unit entirely (microbenchmarks
	// that isolate ORAM throughput; Figure 10 runs without durability).
	DisableDurability bool
	// FullCheckpointEvery is the full-checkpoint cadence (Figure 11a).
	FullCheckpointEvery int
}

// BoundaryMode is the type of Config.Boundary, which has no effect.
type BoundaryMode int

// BoundaryPipelined, the zero value, names the one boundary there is:
// EndEpoch's commit stage runs on a background committer and overlaps the
// next epoch's read batches.
const BoundaryPipelined BoundaryMode = 0

func (c *Config) setDefaults() error {
	if c.ReadBatches <= 0 {
		c.ReadBatches = 4
	}
	if c.ReadBatchSize <= 0 {
		c.ReadBatchSize = 32
	}
	if c.WriteBatchSize <= 0 {
		c.WriteBatchSize = 32
	}
	if c.Key == nil && !c.Params.DisableEncryption {
		return errors.New("core: nil key with encryption enabled")
	}
	return nil
}

// Stats is a snapshot of proxy counters, the public view of the trusted
// proxy's bookkeeping: epochs and transaction fates, batch-slot utilization
// (how much of the fixed schedule carried real work), and the storage calls
// the vectored I/O plane made. Executor counters are summed across shards;
// StashPeak is the maximum over shards.
type Stats struct {
	// Shards is the number of key-space partitions.
	Shards int
	// Epochs counts committed epoch boundaries.
	Epochs uint64
	// Committed and Aborted count transaction fates.
	Committed uint64
	Aborted   uint64
	// ReadBatchSlots counts read-batch slots issued across all shards;
	// RealReads the slots that carried real requests (the rest is padding).
	ReadBatchSlots uint64
	RealReads      uint64
	// CacheHits counts reads of a key already resident this epoch, served
	// from the version cache without a slot.
	CacheHits uint64
	// WriteSlots and RealWrites are the write-batch equivalents.
	WriteSlots uint64
	RealWrites uint64
	// ConflictAborts and CascadingAborts break down MVTSO aborts.
	ConflictAborts  int64
	CascadingAborts int64
	// Executor sums the shards' executor counters. Its ReadCalls and
	// WriteCalls count storage calls; their ratio to the slot counters is
	// the vectored I/O batching factor.
	Executor oramexec.Stats
	// StashPeak is the maximum Ring ORAM stash occupancy over shards.
	StashPeak int
	// RecoveryReplayed counts logged reads replayed by crash recovery.
	RecoveryReplayed int

	// Overload-control counters (admission.go). ShedReads counts fetches
	// refused by the admission gate because the epoch's remaining slot
	// budget was spoken for; BoundaryReads counts fetches that arrived after
	// the epoch's last read batch and were held for the next epoch (not
	// overload); AdmittedSessions counts sessions that were granted at least
	// one batch slot; ReadQueueDepth is the current number of
	// admitted-but-unscheduled fetch keys across shards (a gauge, bounded by
	// the gate at shards × R × bread).
	ShedReads        uint64
	BoundaryReads    uint64
	AdmittedSessions uint64
	ReadQueueDepth   int

	// Logs is each shard's recovery-log lifecycle: records retained, the
	// truncation floor, how many truncations have run, and the sizes of the
	// checkpoint records appended (nil without durability). Retained records
	// are bounded by two full-checkpoint cadences whatever the uptime.
	Logs []wal.Stats
}

// shard is one key-space partition: an independent Ring ORAM with its own
// executor, recovery log, storage backend, and per-epoch batch bookkeeping.
type shard struct {
	id    int
	store storage.Backend
	exec  *oramexec.Executor
	rlog  *wal.Log

	// The fields below are guarded by Proxy.mu.

	// Admitted fetch scheduling (admission.go): sessQ/ring hold each
	// session's queued keys in arrival order for round-robin draining,
	// pending dedups keys already scheduled for a fetch this epoch, and
	// queuedKeys counts admitted-but-unscheduled keys (the quantity the
	// admission gate bounds). Waiters live in queued — per key, the head of
	// a list linked through the waiters themselves — and are woken when the
	// key's base version installs. Session queues never leave the proxy, so
	// sessSlab takes them back at every boundary.
	sessQ      map[mvtso.Timestamp]*sessionFetchQueue
	sessSlab   slab.Reused[sessionFetchQueue]
	ring       []*sessionFetchQueue
	rr         int
	pending    map[string]bool
	queuedKeys int
	queued     map[string]*fetchWaiter
	fetched    map[string]bool // keys whose base version is resident
}

// shardOf routes a key to one of n shards by FNV-1a hash. The mapping is
// public (the adversary may know it); it leaks nothing because every shard's
// request schedule is fixed regardless of routing.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Proxy is the Obladi trusted proxy.
type Proxy struct {
	cfg    Config
	shards []*shard
	ccu    *mvtso.Manager
	// unified, when non-nil, holds every shard's EpochCommitBatcher face:
	// the stores retire epochs with records on the SAME physical append
	// stream as the recovery log, so record order carries the boundary
	// commit's ordering points and the whole commit stands on a single flush
	// wave (see runCommit). nil: each ordering point is a barrier.
	unified []storage.EpochCommitBatcher
	// deferredLogs reports that some shard's log store splits appends from
	// their barrier (storage.LogBatcher). Without one, every append was
	// durable inline and a Sync round has nothing to flush.
	deferredLogs bool

	mu     sync.Mutex
	closed bool
	// failed is the error that fail-stopped the proxy (nil until one does;
	// Close alone leaves it nil).
	failed   error
	draining bool // Shutdown in progress: the epoch loop stops driving
	epoch    uint64
	batchIdx int // read batches already issued this epoch

	// commit waiters, by transaction timestamp.
	waiters map[mvtso.Timestamp]chan error
	// parked lists the reads that arrived after the epoch's last read batch
	// (admission.go); the seal releases them when it opens the next epoch.
	parked *fetchWaiter
	// wake is the channel (a chan struct{}) whose close announces every read
	// outcome published since the previous close; wakeDue says some are
	// waiting for it (async.go, "One wake-up per batch").
	wake    atomic.Value
	wakeDue bool
	// Client handles come from chunks that are never reused (async.go, "Stale
	// handles").
	txnSlab    slab.Chunked[Txn]
	futureSlab slab.Chunked[Future]

	// inflight is the sealed boundary whose commit stage has not landed
	// (guarded by mu; at most one). boundaryDone is signaled whenever it
	// clears or the proxy closes, waking a boundary blocked on
	// back-pressure. committers tracks background commit goroutines so
	// Close can drain them.
	inflight     *boundaryJob
	boundaryDone *sync.Cond
	committers   sync.WaitGroup
	// retiring is held from just before a boundary's acks are sent until the
	// log truncation behind them has landed. Stats takes it: whoever has seen
	// an epoch's acks reads lifecycle counters from after that epoch's
	// truncation, never from the middle of it.
	retiring sync.Mutex

	kick chan struct{} // wakes the epoch loop (eager batches, close)
	loop sync.WaitGroup

	// Overload-control counters. Atomics (the PR 2 Stats-race pattern):
	// sheds are counted on the client-facing fast path and read by Stats
	// snapshots concurrently with batch execution.
	shedReads        atomic.Uint64
	boundaryReads    atomic.Uint64
	admittedSessions atomic.Uint64

	stats        Stats
	replayedLast int

	// step is the schedule goroutine's per-step scratch and commitErrs the
	// commit stage's: one goroutine drives the schedule and at most one
	// boundary commits at a time, so both are reused, cleared, every step.
	step       stepScratch
	commitErrs []error

	// testCommitHook, when set (tests only), runs at the commit point: the
	// coordinator's committing checkpoint is durable, nothing after it has
	// happened. Returning an error simulates a crash there.
	testCommitHook func() error
}

// stepScratch holds one entry per shard of everything a read batch or a seal
// builds and drops again.
type stepScratch struct {
	batches  []shardReadBatch
	ops      [][]oramexec.ReadOp
	results  [][]oramexec.ReadResult
	plans    []*oramexec.BatchPlan
	errs     []error
	shardOps [][]oramexec.WriteOp
}

// New creates a single-shard proxy over the given backend, initializing (or
// recovering) the ORAM. If the backend's recovery log already holds a
// committed checkpoint, New recovers from it instead of reinitializing — so
// restarting a crashed proxy against the same storage is exactly Obladi's §8
// recovery.
func New(store storage.Backend, cfg Config) (*Proxy, error) {
	return NewSharded([]storage.Backend{store}, cfg)
}

// NewSharded creates a proxy whose key space is hash-partitioned across
// len(stores) shards, one Ring ORAM per backend. Every shard runs the same
// per-shard configuration (geometry, batch quotas, recovery cadence). Like
// New, it recovers instead of reinitializing when the coordinator shard's
// recovery log holds a committed checkpoint. It is also how a standby
// promotes (internal/replica): over the views it fenced, a promotion is a
// restart.
func NewSharded(stores []storage.Backend, cfg Config) (*Proxy, error) {
	p, err := newProxy(stores, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.bootstrap(); err != nil {
		return nil, err
	}
	if p.cfg.BatchInterval > 0 {
		p.loop.Add(1)
		go p.epochLoop()
	}
	return p, nil
}

// WALConfigFor returns the recovery-unit configuration NewSharded gives
// shard's log under cfg, for tools and tests that open a proxy's log
// themselves.
func WALConfigFor(cfg Config, shard, shards int) (wal.Config, error) {
	if err := cfg.setDefaults(); err != nil {
		return wal.Config{}, err
	}
	return wal.Config{
		Key:                 cfg.Key,
		Shard:               shard,
		Shards:              shards,
		PadPosEntries:       cfg.ReadBatches*cfg.ReadBatchSize + cfg.WriteBatchSize,
		PadStashEntries:     cfg.Params.StashLimit,
		FullCheckpointEvery: cfg.FullCheckpointEvery,
	}, nil
}

// newProxy validates cfg and assembles the shards, their recovery units and
// the unified-commit probe; NewSharded then bootstraps or recovers.
func newProxy(stores []storage.Backend, cfg Config) (*Proxy, error) {
	if len(stores) == 0 {
		return nil, errors.New("core: at least one storage backend required")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:     cfg,
		ccu:     mvtso.NewManager(),
		waiters: make(map[mvtso.Timestamp]chan error),
		kick:    make(chan struct{}, 1),
	}
	p.wake.Store(make(chan struct{}))
	p.boundaryDone = sync.NewCond(&p.mu)
	n := len(stores)
	p.commitErrs = make([]error, n)
	p.step = stepScratch{
		batches:  make([]shardReadBatch, n),
		ops:      make([][]oramexec.ReadOp, n),
		results:  make([][]oramexec.ReadResult, n),
		plans:    make([]*oramexec.BatchPlan, n),
		errs:     make([]error, n),
		shardOps: make([][]oramexec.WriteOp, n),
	}
	for i, st := range stores {
		sh := &shard{
			id:      i,
			store:   st,
			sessQ:   make(map[mvtso.Timestamp]*sessionFetchQueue),
			pending: make(map[string]bool),
			queued:  make(map[string]*fetchWaiter),
			fetched: make(map[string]bool),
		}
		if !cfg.DisableDurability {
			if _, ok := st.(storage.LogBatcher); ok {
				p.deferredLogs = true
			}
			wcfg, err := WALConfigFor(cfg, i, len(stores))
			if err != nil {
				return nil, err
			}
			l, err := wal.New(st, wcfg)
			if err != nil {
				return nil, err
			}
			sh.rlog = l
		}
		p.shards = append(p.shards, sh)
		p.step.batches[i] = shardReadBatch{sh: sh}
		p.step.ops[i] = make([]oramexec.ReadOp, cfg.ReadBatchSize)
		p.step.shardOps[i] = make([]oramexec.WriteOp, 0, cfg.WriteBatchSize)
	}
	if !cfg.DisableDurability {
		p.unified = unifiedCommitStores(stores)
	}
	// Write-batch capacity is enforced inside the CCU, under the lock that
	// also finalizes epochs: a write admitted into a CCU generation is
	// charged against that generation's budget, so boundary races cannot
	// oversubscribe the write batch (see mvtso.SetWriteBudget).
	nshards := len(p.shards)
	p.ccu.SetWriteBudget(nshards, cfg.WriteBatchSize, func(key string) int {
		return shardOf(key, nshards)
	})
	return p, nil
}

// Shards reports the number of key-space partitions.
func (p *Proxy) Shards() int { return len(p.shards) }

// shardParams returns shard i's ORAM parameters: the shared geometry with a
// decorrelated deterministic seed (tests only; a zero seed stays random).
func (p *Proxy) shardParams(i int) ringoram.Params {
	sp := p.cfg.Params
	if sp.Seed != 0 {
		sp.Seed += uint64(i)
	}
	return sp
}

// beginEpochAllLocked opens p.epoch on every shard's executor.
func (p *Proxy) beginEpochAllLocked() {
	for _, sh := range p.shards {
		sh.exec.BeginEpoch(p.epoch)
	}
}

// syncLogs runs one Sync round: every shard without an earlier error flushes
// its recovery log's deferred appends. On a shared physical log the first
// Sync's fsync covers every shard and the rest return without touching the
// disk; on independent stores the barriers overlap. With nothing deferred (no
// LogBatcher store: every append was durable inline) or a single shard there
// is nothing to overlap and the round runs on the caller's goroutine. Errors
// land in errs[i].
func (p *Proxy) syncLogs(shs []*shard, errs []error) {
	if !p.deferredLogs {
		return
	}
	oramexec.RunStages(len(shs), func(i int) {
		if errs[i] == nil && shs[i].rlog != nil {
			errs[i] = shs[i].rlog.Sync()
		}
	})
}

// unifiedCommitStores probes for the single-barrier boundary commit: every
// store must batch epoch commits onto its recovery-log stream
// (EpochCommitBatcher), and in a sharded proxy all shards must share ONE
// physical stream — prefix durability, which is what orders a shard's heap
// commit after the coordinator's committing checkpoint without a barrier
// between them, only exists within one physical log. Anything else returns nil
// and the boundary commit places an explicit barrier at each ordering point,
// which provides the same guarantees at more fsync waves.
func unifiedCommitStores(stores []storage.Backend) []storage.EpochCommitBatcher {
	out := make([]storage.EpochCommitBatcher, len(stores))
	var stream any
	for i, st := range stores {
		ecb, ok := st.(storage.EpochCommitBatcher)
		if !ok {
			return nil
		}
		if i == 0 {
			stream = ecb.CommitStream()
		} else if ecb.CommitStream() != stream {
			return nil
		}
		out[i] = ecb
	}
	return out
}

// firstError returns the first non-nil error of a per-shard round.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplayedReads reports how many logged entries the last recovery replayed.
func (p *Proxy) ReplayedReads() int { return p.replayedLast }

// Epoch returns the current epoch number.
func (p *Proxy) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// PendingFetches reports how many keys are queued for the next read batches
// across all shards.
func (p *Proxy) PendingFetches() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, sh := range p.shards {
		n += sh.queuedKeys
	}
	return n
}

// Stats returns a snapshot of proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	s.Shards = len(p.shards)
	s.ConflictAborts, s.CascadingAborts = p.ccu.Stats()
	s.ShedReads = p.shedReads.Load()
	s.BoundaryReads = p.boundaryReads.Load()
	s.AdmittedSessions = p.admittedSessions.Load()
	for _, sh := range p.shards {
		s.ReadQueueDepth += sh.queuedKeys
	}
	for _, sh := range p.shards {
		es := sh.exec.Stats()
		s.Executor.RemoteReads += es.RemoteReads
		s.Executor.LocalReads += es.LocalReads
		s.Executor.BucketWrites += es.BucketWrites
		s.Executor.WritesBuffered += es.WritesBuffered
		s.Executor.Evictions += es.Evictions
		s.Executor.Reshuffles += es.Reshuffles
		s.Executor.ReadCalls += es.ReadCalls
		s.Executor.WriteCalls += es.WriteCalls
		s.Executor.ResidentBytes += es.ResidentBytes
		if peak := sh.exec.ORAM().StashPeak(); peak > s.StashPeak {
			s.StashPeak = peak
		}
	}
	p.mu.Unlock()
	// Outside p.mu: a log's counters sit behind the lock its batch appends
	// hold across the store call, and clients must not queue behind that.
	p.retiring.Lock()
	for _, sh := range p.shards {
		if sh.rlog != nil {
			s.Logs = append(s.Logs, sh.rlog.Stats())
		}
	}
	p.retiring.Unlock()
	return s
}

// Close shuts the proxy down. In-flight transactions abort (fate sharing:
// no transaction of the unfinished epoch survives). A boundary whose commit
// stage is already in flight is allowed to land first: its transactions are
// durable and their acknowledgements truthful.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.loop.Wait()
		p.committers.Wait()
		return nil
	}
	p.closed = true
	// Wake a boundary blocked on back-pressure so the epoch loop can exit.
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
	p.loop.Wait()
	p.committers.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failAllLocked(ErrClosed)
	p.ccu.AbortAll()
	return nil
}

// Shutdown drains the proxy: the epoch loop stops driving new slots, the
// current epoch is sealed and committed so every already-accepted commit
// request resolves truthfully, and then the proxy closes. Unlike Close,
// which fate-shares the unfinished epoch (its transactions abort), Shutdown
// is the graceful SIGTERM path — clients that got past Commit's admission
// get a durable epoch, not ErrClosed.
func (p *Proxy) Shutdown() error {
	p.mu.Lock()
	if p.closed || p.draining {
		p.mu.Unlock()
		return p.Close()
	}
	p.draining = true
	p.mu.Unlock()
	// Wake the epoch loop so it observes draining and stops scheduling.
	select {
	case p.kick <- struct{}{}:
	default:
	}
	p.loop.Wait()
	// Seal and commit whatever the final epoch holds. EndEpoch seals (write
	// batch, WAL records) and WaitCommitted waits out the commit stage
	// (storage commit, acks), so transactions admitted before draining
	// commit durably. Errors fail-stop the proxy like any boundary error and
	// are returned; Close below still reaps the wreckage.
	err := p.EndEpoch()
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	if werr := p.WaitCommitted(); err == nil {
		err = werr
	}
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	return err
}

// failAllLocked wakes every fetch and commit waiter with err.
func (p *Proxy) failAllLocked(err error) {
	p.failQueuedLocked(err)
	for _, ch := range p.waiters {
		ch <- err
	}
	clear(p.waiters)
	p.releaseParkedLocked(err)
	p.wakeLocked()
}

// failQueuedLocked decides every queued read with err and empties the fetch
// queues. The caller holds p.mu and calls wakeLocked.
func (p *Proxy) failQueuedLocked(err error) {
	for _, sh := range p.shards {
		for _, w := range sh.queued {
			p.publishLocked(w, err)
		}
		clear(sh.queued)
		sh.resetFetchQueuesLocked()
	}
}
