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
// checkpoint) and a commit stage (seal and flush the write-back, durable
// appends, storage epoch commit, client acks) that runs on a background
// committer, overlapping epoch e's bucket seals, write-back and durability
// round trips with epoch e+1's read batches. Delayed visibility makes the overlap safe: clients were only ever
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
	"obladi/internal/ringoram/meta"
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
	// This and the next two, like FullCheckpointEvery, select their default
	// when 0 and are refused when negative (see Public).
	ReadBatches int
	// ReadBatchSize is bread (default 32).
	ReadBatchSize int
	// WriteBatchSize is bwrite (default 32).
	WriteBatchSize int
	// BatchInterval is Δ, the fixed cadence: the epoch loop steps the
	// schedule once per Δ whatever the load, so a full queue waits out its
	// slot. Zero selects manual mode: the caller drives batches with
	// Advance or StepReadBatch/EndEpoch (tests, deterministic examples).
	BatchInterval time.Duration

	// Boundary has no effect: every epoch boundary is pipelined (see
	// EndEpoch). It remains so configurations that name BoundaryPipelined
	// still compile.
	Boundary BoundaryMode

	// DisableDurability skips the recovery unit entirely (microbenchmarks
	// that isolate ORAM throughput; Figure 10 runs without durability).
	DisableDurability bool
	// FullCheckpointEvery is the full-checkpoint cadence (Figure 11a;
	// default 16).
	FullCheckpointEvery int
}

// BoundaryMode is the type of Config.Boundary, which has no effect.
type BoundaryMode int

// BoundaryPipelined, the zero value, names the one boundary there is:
// EndEpoch's commit stage runs on a background committer and overlaps the
// next epoch's read batches.
const BoundaryPipelined BoundaryMode = 0

// Public validates c's public parameters — the ORAM geometry, the epoch
// schedule and the checkpoint cadence — and returns them as one value: the one
// mapping from a Config to what the adversary may learn, and where every
// shard's recovery log takes its pads from. A zero schedule value or cadence
// selects its default, and a negative one is refused.
func (c Config) Public() (*meta.Public, error) {
	return meta.NewPublic(c.Params, c.ReadBatches, c.ReadBatchSize, c.WriteBatchSize, c.FullCheckpointEvery)
}

// Stats is a snapshot of proxy counters, the public view of the trusted
// proxy's bookkeeping: epochs and transaction fates, batch-slot utilization
// (how much of the fixed schedule carried real work), and the storage calls
// the vectored I/O plane made. Executor counters are summed across shards but
// the stash peak, which is the maximum over shards there and in StashPeak.
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
	// Executor sums the shards' executor counters, but for StashPeak, the
	// maximum over shards. Its ReadCalls and WriteCalls count storage calls;
	// their ratio to the slot counters is the vectored I/O batching factor.
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
	// session's queued keys in arrival order for round-robin draining.
	// queued holds one entry per admitted-but-unscheduled key, so its length
	// is what the admission gate bounds: the head of the key's waiter list,
	// linked through the waiters themselves, woken when the key's base
	// version installs. Whether a base is resident is the CCU's to say
	// (mvtso.Manager.HasBase). Session queues never leave the proxy, so
	// sessSlab takes them back at every boundary.
	sessQ    map[mvtso.Timestamp]*sessionFetchQueue
	sessSlab slab.Reused[sessionFetchQueue]
	ring     []*sessionFetchQueue
	rr       int
	queued   map[string]*Future
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
	cfg Config
	// pub is cfg's public parameters, validated: the geometry and schedule
	// every shard runs, read from here rather than from cfg.
	pub    *meta.Public
	shards []*shard
	ccu    *mvtso.Manager
	// unified, when non-nil, holds every shard's EpochCommitBatcher face:
	// the stores retire epochs with records on the SAME physical append
	// stream as the recovery log, so record order carries the boundary
	// commit's ordering points and the whole commit stands on a single flush
	// wave (see runCommit). nil: each ordering point is a barrier.
	unified []storage.EpochCommitBatcher

	mu     sync.Mutex
	closed bool
	// failed is the error that fail-stopped the proxy (nil until one does;
	// Close alone leaves it nil).
	failed   error
	draining bool // Shutdown in progress: the epoch loop stops driving
	epoch    uint64
	batchIdx int // read batches already issued this epoch

	// committing lists the commit requests no seal has decided yet (txn.go).
	committing *Txn
	// parked lists the reads that arrived after the epoch's last read batch
	// (admission.go); the seal releases them when it opens the next epoch.
	parked *Future
	// readWake announces read outcomes, commitWake commit outcomes (async.go,
	// "One handshake, two wakes").
	readWake, commitWake wake
	// Client handles come from chunks that are never reused (async.go, "Stale
	// handles").
	txnSlab    slab.Chunked[Txn]
	futureSlab slab.Chunked[Future]

	// inflight is the sealed boundary whose commit stage has not landed
	// (guarded by mu; at most one, so it is always &job or nil).
	// boundaryDone is signaled whenever it clears or the proxy closes, waking
	// a boundary blocked on back-pressure.
	inflight     *boundaryJob
	boundaryDone *sync.Cond
	// job is the one boundary job: a seal fills it only once the previous
	// epoch's commit has landed, and bootstrap and recovery commit through it
	// before any seal.
	job boundaryJob
	// commitQ hands a sealed job to the committer goroutine (nil once
	// stopped). sealMu is held across EndEpoch, so Close never stops the
	// committer between a seal and its hand-off.
	commitQ   chan *boundaryJob
	committer sync.WaitGroup
	sealMu    sync.Mutex
	// sched runs the schedule's per-shard stages (read batches, the seal)
	// and commits the committer's, so a commit stage's flush overlaps the
	// next epoch's read batches.
	sched, commits *oramexec.Fanout[stage]
	// retiring is held from just before a boundary's acks are sent until the
	// log truncation behind them has landed. Stats takes it: whoever has seen
	// an epoch's acks reads lifecycle counters from after that epoch's
	// truncation, never from the middle of it.
	retiring sync.Mutex

	kick chan struct{} // stops the epoch loop (Close, Shutdown)
	loop sync.WaitGroup

	// Overload-control counters. Atomics (the PR 2 Stats-race pattern):
	// sheds are counted on the client-facing fast path and read by Stats
	// snapshots concurrently with batch execution.
	shedReads        atomic.Uint64
	boundaryReads    atomic.Uint64
	admittedSessions atomic.Uint64

	stats Stats
	// rec is recovery's per-shard scratch while NewSharded recovers; nil
	// otherwise.
	rec *recovery

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
		p.stopWorkers()
		return nil, err
	}
	if p.cfg.BatchInterval > 0 {
		p.loop.Add(1)
		go p.epochLoop()
	}
	return p, nil
}

// newProxy validates cfg and assembles the shards, their recovery units and
// the unified-commit probe; NewSharded then bootstraps or recovers.
func newProxy(stores []storage.Backend, cfg Config) (*Proxy, error) {
	if len(stores) == 0 {
		return nil, errors.New("core: at least one storage backend required")
	}
	if cfg.Key == nil && !cfg.Params.DisableEncryption {
		return nil, errors.New("core: nil key with encryption enabled")
	}
	pub, err := cfg.Public()
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:  cfg,
		pub:  pub,
		ccu:  mvtso.NewManager(),
		kick: make(chan struct{}, 1),
	}
	p.readWake.ch.Store(make(chan struct{}))
	p.commitWake.ch.Store(make(chan struct{}))
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
			id:     i,
			store:  st,
			sessQ:  make(map[mvtso.Timestamp]*sessionFetchQueue),
			queued: make(map[string]*Future),
		}
		if !cfg.DisableDurability {
			l, err := wal.New(st, wal.Config{Key: cfg.Key, Shard: i, Shards: len(stores), Public: pub})
			if err != nil {
				return nil, err
			}
			sh.rlog = l
		}
		p.shards = append(p.shards, sh)
		p.step.batches[i] = shardReadBatch{sh: sh}
		p.step.ops[i] = make([]oramexec.ReadOp, pub.ReadBatchSize())
		p.step.shardOps[i] = make([]oramexec.WriteOp, 0, pub.WriteBatchSize())
	}
	if !cfg.DisableDurability {
		p.unified = unifiedCommitStores(stores)
	}
	// Write-batch capacity is enforced inside the CCU, under the lock that
	// also finalizes epochs: a write admitted into a CCU generation is
	// charged against that generation's budget, so boundary races cannot
	// oversubscribe the write batch (see mvtso.SetWriteBudget).
	nshards := len(p.shards)
	p.ccu.SetWriteBudget(nshards, pub.WriteBatchSize(), func(key string) int {
		return shardOf(key, nshards)
	})
	p.job.sealed = make([]*oramexec.SealedEpoch, n)
	p.job.ckpts = make([]*wal.PendingCheckpoint, n)
	p.sched = oramexec.NewFanout(n, p.runStage)
	p.commits = oramexec.NewFanout(n, p.runStage)
	p.commitQ = make(chan *boundaryJob, 1)
	p.committer.Add(1)
	go p.commitLoop(p.commitQ)
	return p, nil
}

// Shards reports the number of key-space partitions.
func (p *Proxy) Shards() int { return len(p.shards) }

// shardParams returns shard i's ORAM parameters: the shared geometry with a
// decorrelated deterministic seed (tests only; a zero seed stays random).
func (p *Proxy) shardParams(i int) ringoram.Params {
	sp := p.pub.Params()
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

// syncLog is one shard's part of a Sync round; the error lands in *err.
func syncLog(sh *shard, err *error) {
	if *err == nil && sh.rlog != nil {
		*err = sh.rlog.Sync()
	}
}

// stage names one per-shard step, run by a fan-out through runStage. A
// schedule stage's inputs and results live in p.step, a commit stage's in
// p.job (or p.rec) and p.commitErrs.
type stage uint8

const (
	// Schedule stages, on p.sched.
	stagePlanReads  stage = iota // plan the shard's share of a read batch
	stageExecReads               // execute it
	stagePlanWrites              // pad and plan the write batch
	stageSeal                    // execute it, seal the write-back, snapshot the checkpoint
	stageSyncStep                // the round's Sync
	// Commit stages, on p.commits.
	stagePrepare       // snapshot the checkpoint (commitSnapshot)
	stageFlush         // seal and flush the sealed write-back, append a follower's checkpoint
	stageSyncFollowers // the prepare round's Sync, shards 1..n-1
	stageSyncAll       // the commit's Sync on a shared stream
	stageCommitEpoch   // each store's own epoch commit
	stageRetire        // retire the committed log prefix
	// Bootstrap and recovery stages, on p.commits before the first epoch.
	stageInit    // write the shard's fresh tree and build its executor
	stageScan    // recover a follower's log above the committed floor
	stageRestore // roll back, restore, load the resident levels, replay, flush
)

// runStage runs shard i's part of stage s.
func (p *Proxy) runStage(s stage, i int) {
	sh, st, job, cerr := p.shards[i], &p.step, &p.job, &p.commitErrs[i]
	switch s {
	case stagePlanReads:
		ops := st.ops[i]
		clear(ops)
		for j, k := range st.batches[i].keys {
			ops[j].Key = k
		}
		st.plans[i], st.errs[i] = sh.exec.PlanReadBatch(ops)
	case stageExecReads:
		if st.errs[i] == nil {
			st.results[i], st.errs[i] = sh.exec.Execute(st.plans[i])
		}
	case stagePlanWrites:
		ops := st.shardOps[i]
		for len(ops) < p.pub.WriteBatchSize() {
			ops = append(ops, oramexec.WriteOp{})
		}
		st.plans[i], st.errs[i] = sh.exec.PlanWriteBatch(ops)
	case stageSeal:
		if st.errs[i] == nil {
			st.errs[i] = p.sealShard(sh, st.plans[i])
		}
	case stageSyncStep:
		syncLog(sh, &st.errs[i])
	case stagePrepare:
		job.ckpts[i], *cerr = sh.rlog.PrepareCheckpoint(job.epoch, sh.exec.ORAM().Machine())
	case stageFlush:
		*cerr = p.flushShard(sh)
	case stageSyncFollowers:
		if i > 0 {
			syncLog(sh, cerr)
		}
	case stageSyncAll:
		syncLog(sh, cerr)
	case stageCommitEpoch:
		*cerr = sh.store.CommitEpoch(job.epoch)
	case stageRetire:
		if sh.rlog != nil {
			*cerr = sh.rlog.Retire(job.epoch)
		}
	case stageInit:
		*cerr = p.initShard(sh)
	case stageScan:
		*cerr = p.scanShard(sh)
	case stageRestore:
		*cerr = p.restoreShard(sh)
	}
}

// commitRound runs stage s on every shard through the committer's fan-out
// and returns the first error in shard order.
func (p *Proxy) commitRound(s stage) error {
	clear(p.commitErrs)
	p.commits.Run(s)
	return firstError(p.commitErrs)
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
		n += len(sh.queued)
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
		s.ReadQueueDepth += len(sh.queued)
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
		s.Executor.SealedSlots += es.SealedSlots
		s.Executor.FilledSlots += es.FilledSlots
		s.Executor.OpenedSlots += es.OpenedSlots
		s.Executor.CopiedSlots += es.CopiedSlots
		s.Executor.StashPeak = max(s.Executor.StashPeak, es.StashPeak)
	}
	s.StashPeak = s.Executor.StashPeak
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
		p.stopWorkers()
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
	p.stopWorkers()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failAllLocked(ErrClosed)
	p.ccu.AbortAll()
	return nil
}

// stopWorkers lets the boundary in flight land, then stops the committer and
// both fan-outs' helpers. It is idempotent.
func (p *Proxy) stopWorkers() {
	p.sealMu.Lock()
	p.mu.Lock()
	for p.inflight != nil {
		p.boundaryDone.Wait()
	}
	if p.commitQ != nil {
		close(p.commitQ)
		p.commitQ = nil
	}
	p.mu.Unlock()
	p.sealMu.Unlock()
	p.committer.Wait()
	p.sched.Close()
	p.commits.Close()
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
	p.releaseParkedLocked(err)
	p.readWake.announce()
	decideAll(&p.committing, err)
	p.commitWake.announce()
}

// failQueuedLocked decides every queued read with err and empties the fetch
// queues. The caller holds p.mu and announces p.readWake.
func (p *Proxy) failQueuedLocked(err error) {
	for _, sh := range p.shards {
		for _, f := range sh.queued {
			p.publishReadsLocked(f, err)
		}
		clear(sh.queued)
		sh.resetFetchQueuesLocked()
	}
}
