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
// commit, client acks) that can run on a background committer, overlapping
// epoch e's write-back and durability round trips with epoch e+1's read
// batches. Delayed visibility makes the overlap safe: clients were only ever
// acknowledged at the boundary, so acknowledging them when the asynchronous
// commit lands changes nothing they can observe, and reads of e+1 that land
// on a not-yet-flushed bucket are served from the sealed buffer. At most one
// boundary is in flight; see BoundaryMode.
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
	"fmt"
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

	// Parallelism caps concurrent storage operations on the scalar I/O
	// path (per shard); the vectored path issues one call per stage.
	Parallelism int
	// ScalarStorageIO disables the executor's scatter-gather storage calls:
	// every slot read and write-back bucket becomes its own storage call,
	// as before vectorization. Baseline knob for the `vector` benchmark.
	ScalarStorageIO bool
	// WriteThrough disables delayed write-back (Figure 10d ablation). It
	// cannot recover a store a proxy without it has written to: that proxy
	// stores the resident levels' buckets without their dummies.
	WriteThrough bool
	// DisableReadCache makes repeat reads of an epoch-resident key consume
	// a fresh batch slot instead of being served from the version cache
	// (§6.3 ablation).
	DisableReadCache bool

	// Boundary controls epoch-boundary pipelining: whether EndEpoch's
	// commit stage (buffered-bucket flush, checkpoint appends, storage
	// epoch commit) overlaps the next epoch's read batches or runs inline.
	// Default BoundaryAuto.
	Boundary BoundaryMode

	// DisableDurability skips the recovery unit entirely (microbenchmarks
	// that isolate ORAM throughput; Figure 10 runs without durability).
	DisableDurability bool
	// FullCheckpointEvery is the full-checkpoint cadence (Figure 11a).
	FullCheckpointEvery int

	// Replicator, when set, mirrors every recovery-log append to a hot
	// standby and gates boundary acks on its Barrier (see Replicator).
	// Ignored with DisableDurability — the WAL is the replication stream,
	// so no WAL means nothing to replicate.
	Replicator Replicator
}

// BoundaryMode selects how an epoch boundary's commit stage runs relative
// to the next epoch's read batches. The boundary is always split into a
// cheap synchronous seal (fate decisions, write batch, buffer detach,
// checkpoint snapshot) and a commit (flush, durable appends, storage epoch
// commit, client acks); the mode decides where the commit executes.
type BoundaryMode int

const (
	// BoundaryAuto pipelines boundaries in timer-driven mode
	// (BatchInterval > 0) and keeps them synchronous under manual driving,
	// where single-stepped determinism is the point.
	BoundaryAuto BoundaryMode = iota
	// BoundarySync runs the commit stage inline: EndEpoch returns only
	// after the epoch is durable and its clients are notified. This is the
	// paper's synchronous boundary and the `pipeline` benchmark baseline.
	BoundarySync
	// BoundaryPipelined hands the commit stage to a background committer
	// even under manual driving, so epoch e's write-back and durability
	// round trips overlap epoch e+1's read batches. At most one boundary
	// is in flight: the next EndEpoch waits for the previous commit to
	// land (back-pressure).
	BoundaryPipelined
)

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

// Stats is a snapshot of proxy counters. Executor counters are summed across
// shards; StashPeak is the maximum over shards.
type Stats struct {
	Shards           int
	Epochs           uint64
	Committed        uint64
	Aborted          uint64
	ReadBatchSlots   uint64 // total read-batch slots issued (all shards)
	RealReads        uint64 // slots carrying real requests
	CacheHits        uint64 // reads served from the version cache
	WriteSlots       uint64
	RealWrites       uint64
	ConflictAborts   int64
	CascadingAborts  int64
	Executor         oramexec.Stats
	StashPeak        int
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
	// checkpoint records appended (nil without durability).
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

	// tees are the per-shard replication taps on the recovery logs (nil
	// without a Replicator); armed once primeReplicator has seeded history.
	tees []*replTee

	mu       sync.Mutex
	closed   bool
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

	kick      chan struct{} // wakes the epoch loop (eager batches, close)
	loop      sync.WaitGroup
	ablateSeq uint64 // unique tokens for the DisableReadCache ablation

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
// recovery log holds a committed checkpoint.
func NewSharded(stores []storage.Backend, cfg Config) (*Proxy, error) {
	p, err := newProxy(stores, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.bootstrap(); err != nil {
		return nil, err
	}
	return p.start()
}

// NewShardedFromRecoveries builds a proxy from pre-built recovery states
// instead of scanning the stores' logs: the promotion path of hot-standby
// failover (internal/replica), where the standby has already run
// wal.Recover/RecoverWithFloor over its warm, locally replicated copy of
// every shard's log. recs must be per-shard and coordinator-first, exactly
// what the cold path's phase 1 would have produced; phase 2 (rollback,
// state rebuild, deterministic replay, recovery-epoch commit) then runs
// unchanged against the given stores, so a promoted standby and a
// cold-restarted proxy reach identical state by construction.
func NewShardedFromRecoveries(stores []storage.Backend, cfg Config, recs []*wal.Recovery) (*Proxy, error) {
	p, err := newProxy(stores, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DisableDurability {
		return nil, errors.New("core: recovery injection needs durability enabled")
	}
	if len(recs) != len(stores) {
		return nil, fmt.Errorf("core: %d recoveries for %d stores", len(recs), len(stores))
	}
	if !recs[0].HasCommit {
		return nil, errors.New("core: coordinator recovery has no committing checkpoint")
	}
	if err := p.recoverFromRecoveries(recs); err != nil {
		return nil, err
	}
	return p.start()
}

// newProxy runs the construction shared by every entry point: validation,
// shard assembly, recovery-unit creation (tee-wrapped when replicating), and
// the unified-commit probe. The caller then bootstraps or injects recovery
// state and calls start.
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
			var logStore storage.LogStore = st
			if cfg.Replicator != nil {
				tapped, tee := newReplTee(st, i, cfg.Replicator)
				logStore = tapped
				p.tees = append(p.tees, tee)
			}
			if _, ok := logStore.(storage.LogBatcher); ok {
				p.deferredLogs = true
			}
			wcfg, err := WALConfigFor(cfg, i, len(stores))
			if err != nil {
				return nil, err
			}
			l, err := wal.New(logStore, wcfg)
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

// start arms replication and launches the epoch loop once the proxy's state
// is built (bootstrap or injected recovery).
func (p *Proxy) start() (*Proxy, error) {
	if err := p.primeReplicator(); err != nil {
		return nil, err
	}
	if p.cfg.BatchInterval > 0 {
		p.loop.Add(1)
		go p.epochLoop()
	}
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

// bootstrap initializes fresh ORAMs or recovers from the durability logs.
func (p *Proxy) bootstrap() error {
	coord := p.shards[0]
	if coord.rlog != nil {
		rec, err := coord.rlog.Recover()
		switch {
		case err == nil && rec.HasCommit:
			return p.recover(rec)
		case err == nil, errors.Is(err, wal.ErrNoCheckpoint):
			// Nothing ever committed: a fresh deployment, or a first boot that
			// died before the coordinator's baseline checkpoint. Reinitialize;
			// a follower's stale baseline is superseded by the fresh one.
		default:
			return err
		}
	}
	for i, sh := range p.shards {
		oram, err := oramexec.InitORAM(sh.store, p.cfg.Key, p.shardParams(i))
		if err != nil {
			return err
		}
		sh.exec = oramexec.New(oram, sh.store, oramexec.Config{
			Parallelism:  p.cfg.Parallelism,
			WriteThrough: p.cfg.WriteThrough,
			ScalarIO:     p.cfg.ScalarStorageIO,
		})
	}
	p.epoch = 1
	p.beginEpochAllLocked()
	if coord.rlog != nil {
		// Baseline checkpoints, committed like any epoch, so a crash before
		// the first epoch commits recovers to an empty store.
		return p.commitSnapshot(0)
	}
	return nil
}

// commitSnapshot checkpoints every shard's ORAM metadata as it stands and
// commits it as epoch through the boundary's own commit sequence: bootstrap's
// baseline and recovery's replay epoch are epochs with nothing to flush.
func (p *Proxy) commitSnapshot(epoch uint64) error {
	job := &boundaryJob{epoch: epoch, ckpts: make([]*wal.PendingCheckpoint, len(p.shards))}
	errs := p.commitErrs
	clear(errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		job.ckpts[i], errs[i] = sh.rlog.PrepareCheckpoint(epoch, sh.exec.ORAM())
	})
	if err := firstError(errs); err != nil {
		return err
	}
	return p.runCommit(job)
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

// recover implements §8 across all shards: roll each shadow-paged tree back
// to the last globally committed epoch (the coordinator's), rebuild proxy
// metadata from per-shard checkpoints, deterministically replay each shard's
// logged reads from the aborted epoch, and commit the replay as a recovery
// epoch under the same coordinator-commit protocol.
func (p *Proxy) recover(coordRec *wal.Recovery) error {
	committed := coordRec.CommittedEpoch
	// Phase 1: per-shard log reconstruction. No cross-shard dependency once
	// the committed epoch is known, so it runs concurrently.
	recs := make([]*wal.Recovery, len(p.shards))
	recs[0] = coordRec
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(p.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := p.shards[i].rlog.RecoverWithFloor(committed)
			if err != nil {
				errs[i] = fmt.Errorf("core: recovering shard %d: %w", i, err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return p.recoverFromRecoveries(recs)
}

// recoverFromRecoveries is recovery phase 2, shared by the cold path above
// and the hot-standby promotion path (NewShardedFromRecoveries, which built
// recs from its replicated log copies instead of scanning storage): rollback,
// state rebuild, deterministic replay, and the recovery-epoch commit.
func (p *Proxy) recoverFromRecoveries(recs []*wal.Recovery) error {
	committed := recs[0].CommittedEpoch
	errs := make([]error, len(p.shards))
	var wg sync.WaitGroup
	// The recovery epoch must cover every logged epoch of the dead
	// generation: the pipelined boundary can leave batch records of
	// committed+1 AND committed+2 behind, and the next generation reuses
	// epoch numbers starting after the recovery epoch. Committing the
	// replay under the highest aborted epoch seen on ANY shard pushes the
	// stale records at or below the committed floor, so a later crash can
	// never replay this generation again.
	recoveryEpoch := committed + 1
	for _, rec := range recs {
		if rec.MaxAbortedEpoch > recoveryEpoch {
			recoveryEpoch = rec.MaxAbortedEpoch
		}
	}
	// Phase 2: rollback, state rebuild, deterministic replay (concurrent);
	// only the recovery epoch's commit below needs ordering.
	replayed := make([]int, len(p.shards))
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := p.shards[i]
			rec := recs[i]
			if err := sh.store.RollbackTo(committed); err != nil {
				errs[i] = err
				return
			}
			oram, err := ringoram.Restore(p.cfg.Key, p.shardParams(i), rec.Full, rec.Deltas...)
			if err != nil {
				errs[i] = err
				return
			}
			sh.exec = oramexec.New(oram, sh.store, oramexec.Config{
				Parallelism:  p.cfg.Parallelism,
				WriteThrough: p.cfg.WriteThrough,
				ScalarIO:     p.cfg.ScalarStorageIO,
			})
			// The upper levels live in the proxy and storage holds only their
			// blocks: fetch them before anything reads a path.
			if err := sh.exec.LoadResident(); err != nil {
				errs[i] = fmt.Errorf("core: shard %d: %w", i, err)
				return
			}
			sh.exec.BeginEpoch(recoveryEpoch)
			for _, batch := range rec.AbortedBatches {
				if err := sh.exec.ReplayBatch(batch); err != nil {
					errs[i] = fmt.Errorf("core: shard %d replaying aborted epoch: %w", i, err)
					return
				}
				replayed[i] += len(batch)
			}
			if len(rec.AbortedBatches) > 0 {
				if _, err := sh.exec.Flush(); err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, n := range replayed {
		p.replayedLast += n
	}
	p.stats.RecoveryReplayed += p.replayedLast
	if err := p.commitSnapshot(recoveryEpoch); err != nil {
		return err
	}
	// The recovery checkpoint is full and now durably committed everywhere:
	// it re-anchors the log floor, so a crash loop cannot grow the log.
	if err := p.retireLogs(recoveryEpoch); err != nil {
		return err
	}
	p.epoch = recoveryEpoch + 1
	p.beginEpochAllLocked()
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
	// Seal and commit whatever the final epoch holds. EndEpoch runs the full
	// boundary (write batch, WAL records, storage commit), so transactions
	// admitted before draining commit durably. Errors fail-stop the proxy
	// like any boundary error; Close below still reaps the wreckage.
	err := p.EndEpoch()
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	p.committers.Wait()
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

// epochLoop drives the fixed batch schedule in auto mode.
func (p *Proxy) epochLoop() {
	defer p.loop.Done()
	timer := time.NewTimer(p.cfg.BatchInterval)
	defer timer.Stop()
	for {
		p.mu.Lock()
		closed := p.closed || p.draining
		p.mu.Unlock()
		if closed {
			return
		}
		step := p.stepScheduled
		select {
		case <-timer.C:
		case <-p.kick:
			p.mu.Lock()
			closed = p.closed || p.draining
			fire := false
			// An eager kick may only accelerate a read-batch slot. The
			// epoch boundary stays on the Δ timer: routing a full-queue
			// kick into EndEpoch would make the boundary's timing depend
			// on how many keys clients queued — a trace-shape leak (and,
			// pipelined, a premature seal).
			if p.cfg.EagerBatches && p.batchIdx < p.cfg.ReadBatches {
				for _, sh := range p.shards {
					if sh.queuedKeys >= p.cfg.ReadBatchSize {
						fire = true
						break
					}
				}
			}
			p.mu.Unlock()
			if closed {
				return
			}
			if !fire {
				continue
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			step = p.StepReadBatch
		}
		if err := step(); err != nil {
			// StepReadBatch and EndEpoch fail-stop the proxy themselves on
			// execution errors; the loop only stops driving the schedule.
			if !errors.Is(err, ErrClosed) {
				p.failBoundary(err)
			}
			return
		}
		timer.Reset(p.cfg.BatchInterval)
	}
}

// Advance moves the fixed schedule forward by one slot: the next read batch,
// or the epoch boundary once all R read batches have fired. It is the manual
// counterpart of the Δ timer (tests, deterministic examples).
func (p *Proxy) Advance() error { return p.stepScheduled() }

// stepScheduled advances the schedule by one slot: a read batch, or the
// epoch boundary once all R read batches have fired.
func (p *Proxy) stepScheduled() error {
	p.mu.Lock()
	last := p.batchIdx >= p.cfg.ReadBatches
	p.mu.Unlock()
	if last {
		return p.EndEpoch()
	}
	return p.StepReadBatch()
}

// shardReadBatch is one shard's share of a read-batch slot: the real keys it
// serves this round and, parallel to them, their blocked transactions
// (Proxy.step keeps one per shard across rounds).
type shardReadBatch struct {
	sh      *shard
	keys    []string
	waiters []*fetchWaiter
}

// StepReadBatch issues the epoch's next read batch on every shard: up to
// bread queued fetches per shard, padded with dummies, executed in parallel
// across shards. Exported for manual mode and tests.
func (p *Proxy) StepReadBatch() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.batchIdx >= p.cfg.ReadBatches {
		p.mu.Unlock()
		return fmt.Errorf("core: epoch %d already issued all %d read batches", p.epoch, p.cfg.ReadBatches)
	}
	st := &p.step
	batches, results, plans, errs := st.batches, st.results, st.plans, st.errs
	clear(errs)
	for i, sh := range p.shards {
		// Fair drain: one key per session per pass (admission.go), up to
		// bread slots.
		b := &batches[i]
		b.keys = sh.takeBatchLocked(b.keys, p.cfg.ReadBatchSize)
		b.waiters = b.waiters[:0]
		for _, k := range b.keys {
			b.waiters = append(b.waiters, sh.queued[k])
			delete(sh.queued, k)
		}
		p.stats.ReadBatchSlots += uint64(p.cfg.ReadBatchSize)
		p.stats.RealReads += uint64(len(b.keys))
	}
	p.batchIdx++
	batchIdx := p.batchIdx - 1
	epoch := p.epoch
	p.mu.Unlock()

	// Per shard: plan, write-ahead log, execute. The write-ahead rule (§8:
	// the read schedule must be durable before its reads are issued) only
	// orders a shard's own log against its own reads, so planning and
	// execution run concurrently across shards. The log appends, though,
	// are split from their barrier: every shard's schedule record is
	// appended first (deferred), then one Sync round makes them all durable
	// before any read issues. On a shared physical log the round is ONE
	// fsync for all shards — barrier placement, not barrier count, is what
	// the write-ahead rule fixes.
	oramexec.RunStages(len(batches), func(i int) {
		ops := st.ops[i]
		clear(ops)
		for j, k := range batches[i].keys {
			ops[j].Key = k
		}
		plans[i], errs[i] = batches[i].sh.exec.PlanReadBatch(ops)
	})
	for i, sh := range p.shards {
		if errs[i] != nil || sh.rlog == nil {
			continue
		}
		if err := sh.rlog.AppendBatchDeferred(epoch, batchIdx, plans[i].Log()); err != nil {
			errs[i] = err
		}
	}
	p.syncLogs(p.shards, errs)
	oramexec.RunStages(len(batches), func(i int) {
		if errs[i] != nil {
			return
		}
		results[i], errs[i] = batches[i].sh.exec.Execute(plans[i])
	})

	p.mu.Lock()
	for i, b := range batches {
		if errs[i] != nil {
			continue
		}
		// Result j answers op j, which carried key j.
		for j := range b.keys {
			r := &results[i][j]
			p.ccu.InstallBase(r.Key, r.Value, r.Found)
			b.sh.fetched[r.Key] = true
			p.publishLocked(b.waiters[j], nil)
			b.waiters[j] = nil
		}
	}
	firstErr := firstError(errs)
	if firstErr != nil {
		// Waiters were already dequeued from sh.queued into the batches, so
		// failAllLocked can no longer reach them: wake every one still
		// unserved (all shards — the batch failed as a unit) or their
		// transactions would block forever.
		for _, b := range batches {
			for _, w := range b.waiters {
				p.publishLocked(w, firstErr)
			}
		}
		// A failed batch leaves planned ORAM metadata with no matching
		// storage reads: the executor state has diverged from the tree, so
		// the proxy fail-stops (crash-and-recover is §8's answer) instead
		// of continuing on a broken schedule.
		p.closed = true
		p.failAllLocked(firstErr)
		p.boundaryDone.Broadcast()
	}
	// One close wakes the batch's readers.
	p.wakeLocked()
	p.mu.Unlock()
	// The scratch outlives the step; what it pointed at must not.
	for i := range batches {
		clear(batches[i].keys)
		clear(batches[i].waiters)
	}
	clear(results)
	clear(plans)
	if firstErr != nil {
		p.ccu.AbortAll()
	}
	return firstErr
}

// boundaryJob carries one sealed epoch from its seal to its commit.
type boundaryJob struct {
	epoch     uint64
	sealed    []*oramexec.SealedEpoch  // per-shard detached write-back sets
	ckpts     []*wal.PendingCheckpoint // per-shard checkpoint snapshots (nil without durability)
	commitAck []chan error             // the committed transactions' waiters
	committed uint64
}

// pipelined reports whether boundary commit stages run on the background
// committer (see BoundaryMode).
func (p *Proxy) pipelined() bool {
	switch p.cfg.Boundary {
	case BoundarySync:
		return false
	case BoundaryPipelined:
		return true
	default:
		return p.cfg.BatchInterval > 0
	}
}

// EndEpoch finalizes the current epoch in two stages. The synchronous SEAL
// decides transaction fates, partitions and executes the write batch,
// detaches every shard's buffered write-back set under a sealed-epoch
// handle, snapshots the checkpoints, and immediately opens the next epoch so
// read batches resume. The COMMIT stage flushes the sealed buckets, appends
// the per-shard checkpoints — the coordinator's last: it commits the epoch —
// commits the storage epoch, and only then acknowledges the epoch's commit
// waiters — delayed visibility already deferred acks to the boundary, so
// deferring them to the commit's completion changes no client-visible
// semantics. Pipelined, the commit runs on a background committer and
// EndEpoch returns right after the seal, with at most one boundary in
// flight (the next seal waits for the previous commit to land). A boundary
// error in either stage fail-stops the proxy: every fetch and commit waiter
// is woken, in manual mode as much as in auto mode. Exported for manual
// mode and tests.
func (p *Proxy) EndEpoch() error {
	job, err := p.sealEpoch()
	if err != nil {
		return err
	}
	if p.pipelined() {
		p.committers.Add(1)
		go func() {
			defer p.committers.Done()
			p.commitBoundary(job)
		}()
		return nil
	}
	return p.commitBoundary(job)
}

// sealEpoch runs the boundary's synchronous stage and opens the next epoch.
// On return the write batch has executed, every shard's write-back set is
// sealed, the checkpoints are snapshotted, and read batches may resume; the
// returned job is registered as the (single) in-flight boundary.
func (p *Proxy) sealEpoch() (*boundaryJob, error) {
	p.mu.Lock()
	// Back-pressure: at most one boundary in flight. If the previous
	// epoch's commit has not landed yet, this boundary waits here — the
	// current epoch's read batches already ran, so only the seal stalls.
	for p.inflight != nil && !p.closed {
		p.boundaryDone.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	epoch := p.epoch
	// Reads that never got a batch slot: their transactions abort with the
	// epoch (fate sharing); wake them now so they observe the abort. The
	// admission gate guarantees every admitted fetch a slot, so these can only
	// be DisableReadCache ablation tokens.
	p.failQueuedLocked(errReadBatchesExhausted)
	p.wakeLocked()
	p.mu.Unlock()

	// Decide fates. Every transaction that did not request commit aborts.
	out := p.ccu.FinalizeEpoch()

	// Partition the deduplicated write set across shards.
	shardOps, wplans, errs := p.step.shardOps, p.step.plans, p.step.errs
	for i := range shardOps {
		shardOps[i] = shardOps[i][:0]
	}
	clear(errs)
	for _, w := range out.Writes {
		i := shardOf(w.Key, len(p.shards))
		if len(shardOps[i]) == p.cfg.WriteBatchSize {
			// Unreachable: the CCU charges every admitted write against the
			// epoch generation's budget under its own lock (SetWriteBudget),
			// so the finalized write set cannot exceed it. Fail-stop if the
			// invariant ever breaks — the epoch cannot commit these writes.
			return nil, p.failBoundary(fmt.Errorf("core: shard %d write set exceeds write batch (%d)", i, p.cfg.WriteBatchSize))
		}
		shardOps[i] = append(shardOps[i], oramexec.WriteOp{Key: w.Key, Value: w.Value, Tombstone: w.Tombstone})
	}
	p.mu.Lock()
	p.stats.WriteSlots += uint64(p.cfg.WriteBatchSize * len(p.shards))
	p.stats.RealWrites += uint64(len(out.Writes))
	p.mu.Unlock()

	// Per-shard seal pipeline (pad, plan, log, execute, seal, checkpoint
	// snapshot) runs concurrently across shards; each stage orders
	// correctly within its shard. The checkpoint must be snapshotted here,
	// before the next epoch mutates the ORAM metadata; its durable append
	// is the commit stage's job.
	job := &boundaryJob{
		epoch:  epoch,
		sealed: make([]*oramexec.SealedEpoch, len(p.shards)),
		ckpts:  make([]*wal.PendingCheckpoint, len(p.shards)),
	}
	// Same staging as StepReadBatch: plan everywhere, append every shard's
	// write-batch schedule deferred, one Sync round (one fsync on a shared
	// log), then execute — the write-ahead rule holds per shard, with the
	// barrier placed once per round instead of once per record.
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		ops := shardOps[i]
		for len(ops) < p.cfg.WriteBatchSize {
			ops = append(ops, oramexec.WriteOp{})
		}
		wplans[i], errs[i] = sh.exec.PlanWriteBatch(ops)
	})
	for i, sh := range p.shards {
		if errs[i] != nil || sh.rlog == nil {
			continue
		}
		if err := sh.rlog.AppendBatchDeferred(epoch, p.cfg.ReadBatches, wplans[i].Log()); err != nil {
			errs[i] = err
		}
	}
	p.syncLogs(p.shards, errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		if errs[i] != nil {
			return
		}
		sh := p.shards[i]
		if _, err := sh.exec.Execute(wplans[i]); err != nil {
			errs[i] = err
			return
		}
		// Detach the epoch's write-back set. The next epoch's reads
		// that land on a sealed bucket are served from it locally, so
		// they stay correct while the flush is still in flight.
		var err error
		if job.sealed[i], err = sh.exec.SealEpoch(); err != nil {
			errs[i] = err
			return
		}
		if sh.rlog != nil {
			job.ckpts[i], errs[i] = sh.rlog.PrepareCheckpoint(epoch, sh.exec.ORAM())
		}
	})
	clear(wplans)
	if err := firstError(errs); err != nil {
		return nil, p.failBoundary(err)
	}

	// Collect the epoch's commit waiters for the commit stage, ack its
	// aborts (no durability obligation), and open the next epoch.
	p.mu.Lock()
	job.commitAck = make([]chan error, 0, len(out.Committed))
	job.committed = uint64(len(out.Committed))
	for _, ts := range out.Committed {
		if ch, ok := p.waiters[ts]; ok {
			job.commitAck = append(job.commitAck, ch)
			delete(p.waiters, ts)
		}
	}
	p.stats.Aborted += uint64(len(out.Aborted))
	for _, ts := range out.Aborted {
		if ch, ok := p.waiters[ts]; ok {
			ch <- ErrAborted
			delete(p.waiters, ts)
		}
	}
	// Any waiter left belongs either to a transaction the CCU no longer
	// tracks (abort it now) or to one that began while this boundary was
	// already finalizing: that transaction lives in the next epoch's CCU
	// generation, so its waiter stays registered and the next boundary
	// decides it. Acking such a transaction as aborted here would lie —
	// its writes would still commit next epoch.
	for ts, ch := range p.waiters {
		if st := p.ccu.Status(ts); st == mvtso.StatusActive || st == mvtso.StatusFinished {
			continue
		}
		ch <- ErrAborted
		delete(p.waiters, ts)
	}
	for _, sh := range p.shards {
		clear(sh.fetched)
	}
	p.txnSlab.EndEpoch()
	p.futureSlab.EndEpoch()
	p.batchIdx = 0
	p.epoch++
	p.beginEpochAllLocked()
	p.inflight = job
	// The next epoch is open: reads held through the boundary window fail
	// now, so their retry begins in an epoch with a full slot budget.
	p.releaseParkedLocked(errBoundaryWindow)
	p.wakeLocked()
	p.mu.Unlock()
	return job, nil
}

// commitBoundary runs a sealed boundary's commit stage and publishes its
// outcome: on success the epoch's commit waiters are acknowledged; on
// failure they receive the error and the proxy fail-stops (a half-committed
// boundary leaves proxy metadata ahead of storage — §8's answer is to crash
// and recover). Either way the boundary slot is freed for the next seal.
func (p *Proxy) commitBoundary(job *boundaryJob) error {
	err := p.runCommit(job)
	if err == nil && p.cfg.Replicator != nil {
		// Replication barrier: in replica-acked mode the acks below addition-
		// ally stand on the standby holding every record of this epoch. The
		// epoch is already durably committed locally, so Barrier degrades
		// rather than fails (see Replicator) — a non-nil error here means the
		// replicator itself is broken, and fail-stop is the honest outcome.
		err = p.cfg.Replicator.Barrier()
	}
	if err == nil {
		p.retiring.Lock()
		p.mu.Lock()
		p.stats.Epochs++
		p.stats.Committed += job.committed
		for _, ch := range job.commitAck {
			ch <- nil
		}
		p.mu.Unlock()
		job.commitAck = nil
		// The epoch is durable on every shard (checkpoints, the commit point,
		// store commit, replica barrier), so its log prefix can go — after
		// the acks, which have no reason to wait for a truncation, and before
		// the boundary slot is freed, so no later commit's appends overlap it.
		err = p.retireLogs(job.epoch)
		p.retiring.Unlock()
	}
	p.mu.Lock()
	p.inflight = nil
	if err != nil {
		for _, ch := range job.commitAck {
			ch <- err
		}
		p.closed = true
		p.failAllLocked(err)
	}
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	if err != nil {
		p.ccu.AbortAll()
	}
	return err
}

// retireLogs tells every shard's log that epoch is durably committed
// everywhere (see wal.Log.Retire): a function of the epoch counter alone,
// one Truncate per shard per full checkpoint.
func (p *Proxy) retireLogs(epoch uint64) error {
	errs := p.commitErrs
	clear(errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		if rlog := p.shards[i].rlog; rlog != nil {
			errs[i] = rlog.Retire(epoch)
		}
	})
	return firstError(errs)
}

// runCommit makes an epoch durable and decides it, in the one sequence every
// commit takes — a sealed boundary's, bootstrap's baseline, recovery's epoch:
//
//	every shard's write-back, the followers' prepared checkpoints
//	  · ordering point ·
//	the coordinator's committing checkpoint — the global commit point
//	  · ordering point ·
//	every store's epoch commit
//
// An ordering point is a Sync round on independent stores. When every shard
// appends to one physical stream (p.unified: write-back buckets, checkpoints
// and store commits are all records of it) an ordering point is nothing at
// all: record order carries the protocol, crash recovery keeps a prefix of
// the stream — so a lost suffix always falls between two steps, never inside
// an inverted one — and the whole boundary stands on the one flush that ends
// it. Per-shard work runs concurrently; only the commit point is ordered
// across shards.
func (p *Proxy) runCommit(job *boundaryJob) error {
	shared := p.unified != nil
	errs := p.commitErrs
	clear(errs)
	oramexec.RunStages(len(p.shards), func(i int) {
		sh := p.shards[i]
		if job.sealed != nil {
			if _, err := sh.exec.FlushSealed(job.sealed[i]); err != nil {
				errs[i] = err
				return
			}
			if !p.pipelined() {
				// A synchronous boundary has no overlap to serve: retire
				// the sealed set so the next epoch reads storage directly,
				// keeping the observable trace (and its crash replay)
				// identical to the unpipelined design.
				sh.exec.ReleaseSealed(job.sealed[i])
			}
		}
		if i > 0 && job.ckpts[i] != nil {
			_, errs[i] = sh.rlog.AppendPreparedDeferred(job.ckpts[i])
		}
	})
	if !shared {
		p.syncLogs(p.shards[1:], errs[1:])
	}
	if err := firstError(errs); err != nil {
		return err
	}
	// Commit point: every shard has flushed and every follower is prepared.
	if cp := job.ckpts[0]; cp != nil {
		coord := p.shards[0].rlog
		if _, err := coord.AppendPreparedDeferred(cp); err != nil {
			return err
		}
		// The hook's contract is a durable commit point with nothing after
		// it, so a hooked run flushes here even on a shared stream.
		if !shared || p.testCommitHook != nil {
			if err := coord.Sync(); err != nil {
				return err
			}
		}
		if p.testCommitHook != nil {
			if err := p.testCommitHook(); err != nil {
				return err
			}
		}
	}
	if shared {
		for i := range p.shards {
			if err := p.unified[i].CommitEpochNoSync(job.epoch); err != nil {
				return err
			}
		}
		p.syncLogs(p.shards, errs)
	} else {
		// Each CommitEpoch stands on its own barrier; issued together,
		// backends sharing a commit-group data dir coalesce the round into
		// one fsync wave instead of paying one barrier per shard.
		oramexec.RunStages(len(p.shards), func(i int) {
			errs[i] = p.shards[i].store.CommitEpoch(job.epoch)
		})
	}
	return firstError(errs)
}

// failBoundary fail-stops the proxy after a boundary error: every fetch and
// commit waiter is woken with err regardless of mode, so manual-mode
// Advance() callers are never stranded.
func (p *Proxy) failBoundary(err error) error {
	p.mu.Lock()
	p.closed = true
	p.failAllLocked(err)
	p.boundaryDone.Broadcast()
	p.mu.Unlock()
	p.ccu.AbortAll()
	return err
}
