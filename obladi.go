// Package obladi is a transactional key-value store that hides access
// patterns from its storage backend, implementing the system described in
// "Obladi: Oblivious Serializable Transactions in the Cloud" (OSDI 2018).
//
// A DB runs a trusted proxy: transactions execute under multiversioned
// timestamp ordering, commit decisions are delayed to the end of fixed
// epochs, and all storage traffic flows through a parallel Ring ORAM whose
// request pattern is independent of the workload. The key space can be
// hash-partitioned across multiple independent ORAM shards (Options.Shards),
// coordinated so cross-shard transactions still commit atomically while
// aggregate epoch capacity scales with the shard count. Storage can be
// embedded (in-memory) or remote obladi-storage servers reached over TCP
// (one per shard); either way the storage side never learns which keys are
// accessed, when, or how often — only the fixed batch schedule.
//
// Basic usage:
//
//	db, err := obladi.Open(obladi.Options{MaxKeys: 10000})
//	...
//	err = db.Update(func(tx *obladi.Txn) error {
//		v, _, err := tx.Read("balance/alice")
//		...
//		return tx.Write("balance/alice", newValue)
//	})
package obladi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/replica"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// Errors surfaced by transactions.
var (
	// ErrAborted reports that a transaction aborted (conflict, cascading
	// abort, epoch boundary, or shutdown). Retrying is usually appropriate.
	ErrAborted = core.ErrAborted
	// ErrEpochFull reports that an epoch ran out of batch capacity.
	ErrEpochFull = core.ErrEpochFull
	// ErrClosed reports use after Close.
	ErrClosed = core.ErrClosed
	// ErrValueTooLarge reports a value exceeding MaxValueSize.
	ErrValueTooLarge = core.ErrValueTooLarge
	// ErrShed reports that admission control refused an operation because
	// the current epoch's batch-slot budget is spoken for. It also matches
	// ErrAborted and ErrEpochFull, so generic retry loops handle it; shed-
	// aware clients can match it specifically to back off for an epoch.
	ErrShed = core.ErrShed
)

// Options configures a DB. The zero value is usable for small embedded
// stores; see DESIGN.md for how the batching parameters (Table 1 of the
// paper) should track the application's transaction shapes.
type Options struct {
	// MaxKeys bounds the number of distinct keys (ORAM capacity).
	// Default 8192.
	MaxKeys int
	// Shards partitions the key space by hash across this many independent
	// Ring ORAM instances, each with its own position map, stash, batch
	// quotas, recovery log, and storage backend. Transactions may span
	// shards and still commit atomically at the global epoch boundary; the
	// batching parameters below apply per shard, so aggregate epoch capacity
	// grows with the shard count. Default 1. See DESIGN.md ("Sharding").
	Shards int
	// MaxValueSize bounds value length in bytes. Default 256.
	MaxValueSize int
	// MaxKeySize bounds key length in bytes. Default 64.
	MaxKeySize int

	// ReadBatches (R), ReadBatchSize (bread) and WriteBatchSize (bwrite)
	// fix the epoch's observable shape. Defaults: 4, 32, 32.
	ReadBatches    int
	ReadBatchSize  int
	WriteBatchSize int
	// BatchInterval is Δ, the fixed batch cadence. Zero selects manual
	// mode, where the caller drives the schedule with Advance (useful for
	// tests and deterministic tools). Either way an epoch's write-back and
	// durability round trips overlap the next epoch's read batches.
	BatchInterval time.Duration
	// EagerBatches fires a read batch as soon as it fills rather than
	// waiting out Δ. This makes the schedule load-dependent (observable);
	// use only for throughput experiments. Eager firing never moves the
	// epoch boundary, which always waits out its Δ slot.
	EagerBatches bool

	// Z, S, A tune the Ring ORAM (reals/dummies per bucket, eviction
	// rate). Zero selects 8/12/8, suitable for small stores; the paper's
	// cloud configuration is 100/196/168.
	Z, S, A int

	// RemoteAddr connects to obladi-storage servers instead of using
	// embedded in-memory storage. With Shards > 1 it must hold one
	// comma-separated address per shard; each server stores exactly one
	// shard's bucket tree and recovery log.
	RemoteAddr string

	// DisableDurability turns off the recovery unit (no crash recovery).
	DisableDurability bool
	// FullCheckpointEvery sets the full-checkpoint cadence (default 16).
	FullCheckpointEvery int

	// KeySeed derives the encryption key deterministically. Required
	// to reopen an existing store after a restart; nil generates a random
	// key (suitable only for stores that die with the process).
	KeySeed []byte

	// ReplicaListen, when non-empty, lets a standby take over from this
	// proxy: it fences the storage backends under its own proxy generation,
	// so a standby that later promotes revokes its write authority, and
	// listens on this address to hold the standby's lease with heartbeats
	// for as long as the proxy has not fail-stopped. See DESIGN.md ("Proxy
	// failover"). Requires durability: a promotion recovers from the log.
	ReplicaListen string
	// LeaseTimeout is the failover detector's patience: a standby promotes
	// after this long without a heartbeat from the primary. Default 750ms.
	LeaseTimeout time.Duration
}

// DB is an oblivious transactional key-value store.
type DB struct {
	proxy    *core.Proxy
	backends []storage.Backend
	sender   *replica.Sender // non-nil when ReplicaListen is set
}

// normalize applies Options defaults and derives the crypto key and
// per-shard ORAM parameters shared by Open and OpenStandby.
func normalize(opt Options) (Options, ringoram.Params, *cryptoutil.Key, error) {
	if opt.MaxKeys <= 0 {
		opt.MaxKeys = 8192
	}
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	if opt.MaxValueSize <= 0 {
		opt.MaxValueSize = 256
	}
	if opt.MaxKeySize <= 0 {
		opt.MaxKeySize = 64
	}
	if opt.Z <= 0 {
		opt.Z = 8
	}
	if opt.S <= 0 {
		opt.S = 12
	}
	if opt.A <= 0 {
		opt.A = 8
	}
	var key *cryptoutil.Key
	var err error
	if opt.KeySeed != nil {
		key = cryptoutil.KeyFromSeed(opt.KeySeed)
	} else {
		key, err = cryptoutil.NewKey()
		if err != nil {
			return opt, ringoram.Params{}, nil, err
		}
	}
	// Each shard gets its own ORAM sized for its slice of the key space.
	// Hash partitioning is only near-uniform, so shards are provisioned with
	// headroom against realistic skew.
	perShard := (opt.MaxKeys + opt.Shards - 1) / opt.Shards
	if opt.Shards > 1 {
		perShard += perShard/4 + 16
	}
	params := ringoram.Params{
		NumBlocks: perShard,
		Z:         opt.Z,
		S:         opt.S,
		A:         opt.A,
		KeySize:   opt.MaxKeySize,
		ValueSize: opt.MaxValueSize,
	}
	if err := params.Validate(); err != nil {
		return opt, params, nil, err
	}
	return opt, params, key, nil
}

// openBackends builds the per-shard storage backends (remote or embedded).
func openBackends(opt Options, params ringoram.Params) ([]storage.Backend, error) {
	if opt.RemoteAddr != "" {
		addrs, err := splitAddrs(opt.RemoteAddr)
		if err != nil {
			return nil, err
		}
		if len(addrs) != opt.Shards {
			return nil, fmt.Errorf("obladi: %d shards need %d comma-separated storage addresses in RemoteAddr, got %d", opt.Shards, opt.Shards, len(addrs))
		}
		return storage.DialMulti(addrs)
	}
	var backends []storage.Backend
	for i := 0; i < opt.Shards; i++ {
		backends = append(backends, storage.NewMemBackend(params.Geometry().NumBuckets))
	}
	return backends, nil
}

// coreConfig maps Options onto the proxy configuration.
func coreConfig(opt Options, params ringoram.Params, key *cryptoutil.Key) core.Config {
	return core.Config{
		Params:              params,
		Key:                 key,
		ReadBatches:         opt.ReadBatches,
		ReadBatchSize:       opt.ReadBatchSize,
		WriteBatchSize:      opt.WriteBatchSize,
		BatchInterval:       opt.BatchInterval,
		EagerBatches:        opt.EagerBatches,
		DisableDurability:   opt.DisableDurability,
		FullCheckpointEvery: opt.FullCheckpointEvery,
	}
}

// Open creates (or, when the backends' recovery logs hold a committed
// checkpoint, recovers) a DB.
func Open(opt Options) (*DB, error) {
	opt, params, key, err := normalize(opt)
	if err != nil {
		return nil, err
	}
	backends, err := openBackends(opt, params)
	if err != nil {
		return nil, err
	}
	db, err := openOn(opt, coreConfig(opt, params, key), backends)
	if err != nil {
		storage.CloseAll(backends)
		return nil, err
	}
	return db, nil
}

// openOn runs Open over backends it does not close on failure. With
// ReplicaListen it fences them first and fails if it cannot: a primary
// running on raw token-0 handles could never be revoked by a promotion.
func openOn(opt Options, cfg core.Config, backends []storage.Backend) (*DB, error) {
	if opt.ReplicaListen != "" {
		if opt.DisableDurability {
			return nil, errors.New("obladi: ReplicaListen requires durability (a promotion recovers from the log)")
		}
		views, err := storage.FenceAll(backends)
		if err != nil {
			return nil, err
		}
		backends = views
	}
	return start(opt, cfg, backends)
}

// start runs the proxy over backends and, with ReplicaListen, holds a
// standby's lease for as long as the proxy has not fail-stopped.
func start(opt Options, cfg core.Config, backends []storage.Backend) (*DB, error) {
	proxy, err := core.NewSharded(backends, cfg)
	if err != nil {
		return nil, err
	}
	db := &DB{proxy: proxy, backends: backends}
	if opt.ReplicaListen != "" {
		db.sender, err = replica.NewSender(opt.ReplicaListen, replica.SenderConfig{
			Shards: opt.Shards,
			Alive:  func() bool { return proxy.Failed() == nil },
		})
		if err != nil {
			proxy.Close()
			return nil, err
		}
	}
	return db, nil
}

// OpenStandby runs as the standby of the primary whose ReplicaListen address
// is primaryAddr. It blocks until the primary's lease expires (or ctx is
// done, which aborts with ctx's error), then promotes: it fences the storage
// backends, revoking the dead (or zombie) primary's write authority, and
// opens the DB over the fenced views — a restart, recovering from the
// durable log. Options must match the primary's (same KeySeed, shards,
// batching and storage addresses); KeySeed is required since recovery opens
// the primary's sealed records. Every transaction the primary acknowledged
// is visible in the returned DB: acknowledgements stand on that log.
func OpenStandby(ctx context.Context, primaryAddr string, opt Options) (*DB, error) {
	opt, params, key, err := normalize(opt)
	if err != nil {
		return nil, err
	}
	if opt.KeySeed == nil {
		return nil, errors.New("obladi: OpenStandby requires KeySeed (must match the primary's)")
	}
	if opt.DisableDurability {
		return nil, errors.New("obladi: OpenStandby requires durability")
	}
	backends, err := openBackends(opt, params)
	if err != nil {
		return nil, err
	}
	sb, err := replica.NewStandby(primaryAddr, backends, replica.StandbyConfig{LeaseTimeout: opt.LeaseTimeout})
	if err != nil {
		storage.CloseAll(backends)
		return nil, err
	}
	if err := sb.WaitPrimaryDown(ctx); err != nil {
		sb.Stop()
		storage.CloseAll(backends)
		return nil, err
	}
	views, err := sb.Promote()
	if err != nil {
		storage.CloseAll(backends)
		return nil, err
	}
	db, err := start(opt, coreConfig(opt, params, key), views)
	if err != nil {
		storage.CloseAll(backends)
		return nil, err
	}
	return db, nil
}

// splitAddrs parses a comma-separated address list, trimming surrounding
// whitespace ("a, b" means "a" and "b", not " b") and rejecting empty
// entries, which would otherwise surface as a confusing dial error.
func splitAddrs(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	addrs := make([]string, 0, len(parts))
	for i, p := range parts {
		a := strings.TrimSpace(p)
		if a == "" {
			return nil, fmt.Errorf("obladi: RemoteAddr %q: empty address at position %d", s, i+1)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	return db.BeginCtx(context.Background())
}

// BeginCtx starts a transaction bound to ctx: cancellation or deadline
// expiry aborts it, and unblocks any operation waiting on a batch or on the
// epoch's commit decision. The oblivious schedule is unaffected — batch
// slots a cancelled transaction queued still execute as dummies.
func (db *DB) BeginCtx(ctx context.Context) *Txn {
	return &Txn{t: db.proxy.BeginCtx(ctx)}
}

// Update runs fn in a transaction and commits, retrying up to 10 times on
// aborts. fn must be idempotent.
func (db *DB) Update(fn func(*Txn) error) error {
	return db.UpdateCtx(context.Background(), fn)
}

// UpdateCtx is Update bound to ctx: each attempt's transaction carries ctx,
// and retries stop once ctx is done.
func (db *DB) UpdateCtx(ctx context.Context, fn func(*Txn) error) error {
	var last error
	for attempt := 0; attempt < 10; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		tx := db.BeginCtx(ctx)
		if err := fn(tx); err != nil {
			tx.Abort()
			if errors.Is(err, ErrAborted) || errors.Is(err, ErrEpochFull) {
				last = err
				continue
			}
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrEpochFull) {
			return err
		}
		last = err
	}
	return last
}

// View runs fn in a transaction that is aborted afterwards (reads only take
// effect); retries like Update.
func (db *DB) View(fn func(*Txn) error) error {
	return db.ViewCtx(context.Background(), fn)
}

// ViewCtx is View bound to ctx, with UpdateCtx's retry semantics.
func (db *DB) ViewCtx(ctx context.Context, fn func(*Txn) error) error {
	var last error
	for attempt := 0; attempt < 10; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		tx := db.BeginCtx(ctx)
		err := fn(tx)
		tx.Abort()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrEpochFull) {
			return err
		}
		last = err
	}
	return last
}

// Advance drives the batch schedule by one step in manual mode
// (BatchInterval == 0): the next read batch, or the epoch boundary. At the
// boundary it returns once the epoch is sealed and the next one open; the
// epoch's commit lands in the background, and its transactions' Commit calls
// return when it has.
func (db *DB) Advance() error { return db.proxy.Advance() }

// Epoch returns the current epoch number.
func (db *DB) Epoch() uint64 { return db.proxy.Epoch() }

// Shards returns the number of key-space partitions.
func (db *DB) Shards() int { return db.proxy.Shards() }

// ReplicaAddr returns the bound address of the lease link a standby attaches
// to (Options.ReplicaListen), "" without one. With a ":0" listen spec this
// is how a standby learns the actual port.
func (db *DB) ReplicaAddr() string {
	if db.sender == nil {
		return ""
	}
	return db.sender.Addr()
}

// Stats is a snapshot of proxy counters, the public view of the trusted
// proxy's bookkeeping: epochs and transaction fates, batch-slot utilization
// (how much of the fixed schedule carried real work), and the storage wire
// call counters the vectorized I/O plane exposes. Benchmarks and operators
// read these instead of reaching into internal packages.
type Stats struct {
	// Shards is the number of key-space partitions.
	Shards int
	// Epochs counts committed epoch boundaries.
	Epochs uint64
	// Committed and Aborted count transaction fates.
	Committed uint64
	Aborted   uint64
	// ConflictAborts and CascadingAborts break down MVTSO aborts.
	ConflictAborts  int64
	CascadingAborts int64
	// ReadBatchSlots counts read-batch slots issued across all shards;
	// RealReads the slots that carried real requests (the rest is padding).
	ReadBatchSlots uint64
	RealReads      uint64
	// WriteSlots and RealWrites are the write-batch equivalents.
	WriteSlots uint64
	RealWrites uint64
	// StorageReadCalls and StorageWriteCalls count storage wire calls; their
	// ratio to the slot counters is the vectored I/O batching factor.
	StorageReadCalls  int64
	StorageWriteCalls int64
	// StashPeak is the maximum Ring ORAM stash occupancy over shards.
	StashPeak int
	// RecoveryReplayed counts logged reads replayed by crash recovery.
	RecoveryReplayed int
	// ShedReads counts reads refused by the admission gate (overload).
	ShedReads uint64
	// BoundaryReads counts reads that arrived after their epoch's last read
	// batch and were held until the next epoch opened (not overload).
	BoundaryReads uint64
	// AdmittedSessions counts sessions that got at least one fetch admitted.
	AdmittedSessions uint64
	// ReadQueueDepth is the current admitted-but-unscheduled fetch count
	// across shards (instantaneous, not cumulative).
	ReadQueueDepth int
	// Logs is each shard's recovery-log lifecycle: records retained, the
	// truncation floor and truncations run. Retained records are bounded by
	// two full-checkpoint cadences whatever the uptime.
	Logs []LogStats
}

// LogStats is one shard's recovery-log lifecycle snapshot: Records retained,
// the FloorSeq of the oldest one, Truncations run, and the checkpoint record
// sizes (LastDeltaBytes, LastFullBytes, CheckpointBytes in all).
type LogStats = wal.Stats

// Stats returns a snapshot of proxy counters.
func (db *DB) Stats() Stats {
	s := db.proxy.Stats()
	return Stats{
		Shards:            s.Shards,
		Epochs:            s.Epochs,
		Committed:         s.Committed,
		Aborted:           s.Aborted,
		ConflictAborts:    s.ConflictAborts,
		CascadingAborts:   s.CascadingAborts,
		ReadBatchSlots:    s.ReadBatchSlots,
		RealReads:         s.RealReads,
		WriteSlots:        s.WriteSlots,
		RealWrites:        s.RealWrites,
		StorageReadCalls:  s.Executor.ReadCalls,
		StorageWriteCalls: s.Executor.WriteCalls,
		StashPeak:         s.StashPeak,
		RecoveryReplayed:  s.RecoveryReplayed,
		ShedReads:         s.ShedReads,
		BoundaryReads:     s.BoundaryReads,
		Logs:              s.Logs,
		AdmittedSessions:  s.AdmittedSessions,
		ReadQueueDepth:    s.ReadQueueDepth,
	}
}

// Close shuts the proxy down; in-flight transactions abort.
func (db *DB) Close() error {
	err := db.proxy.Close()
	if db.sender != nil {
		db.sender.Close()
	}
	if cerr := storage.CloseAll(db.backends); err == nil {
		err = cerr
	}
	return err
}

// Shutdown drains the DB gracefully (the SIGTERM path): the epoch schedule
// stops, the current epoch seals and commits so every accepted transaction
// resolves truthfully, and only then does the proxy close. Prefer it over
// Close when the process is being retired rather than killed.
func (db *DB) Shutdown() error {
	err := db.proxy.Shutdown()
	if db.sender != nil {
		db.sender.Close()
	}
	if cerr := storage.CloseAll(db.backends); err == nil {
		err = cerr
	}
	return err
}

// Txn is a transaction handle. Operations must not be called concurrently,
// but Futures returned by ReadAsync may be resolved from other goroutines.
type Txn struct {
	t *core.Txn
}

// Read returns the value visible to this transaction.
func (tx *Txn) Read(key string) (value []byte, found bool, err error) {
	return tx.t.Read(key)
}

// Future is the pending result of a ReadAsync; it resolves when the read's
// batch executes.
type Future struct {
	f *core.Future
}

// Wait blocks until the Future resolves or ctx is done (nil means the
// transaction's own context). Cancellation aborts the transaction; the
// queued batch slot still executes as a dummy, so the oblivious schedule is
// unaffected.
func (f *Future) Wait(ctx context.Context) (value []byte, found bool, err error) {
	return f.f.Wait(ctx)
}

// Value resolves the Future under the transaction's own context.
func (f *Future) Value() (value []byte, found bool, err error) { return f.f.Value() }

// ReadAsync registers a read of key and returns a Future immediately, so one
// goroutine can issue a transaction's whole read set before the first batch
// fires — every independent read then lands in the same batch:
//
//	a, b := tx.ReadAsync("alice"), tx.ReadAsync("bob")
//	av, _, err := a.Value()
//	bv, _, err := b.Value()
func (tx *Txn) ReadAsync(key string) *Future {
	return &Future{f: tx.t.ReadAsync(key)}
}

// OpFuture is the result of an enqueue-style mutation (WriteAsync,
// DeleteAsync).
type OpFuture struct {
	err error
}

// Wait reports the operation's outcome. Embedded mutations are pure
// enqueues (delayed write-back: nothing reaches storage before the epoch
// boundary), so the future is always already resolved; the ctx parameter
// exists for signature symmetry with the wire client, where WriteAsync
// genuinely pipelines.
func (f *OpFuture) Wait(ctx context.Context) error { return f.err }

// Err is Wait without a context.
func (f *OpFuture) Err() error { return f.err }

// WriteAsync enqueues a write and returns its outcome as an OpFuture.
func (tx *Txn) WriteAsync(key string, value []byte) *OpFuture {
	return &OpFuture{err: tx.t.Write(key, value)}
}

// DeleteAsync enqueues a delete and returns its outcome as an OpFuture.
func (tx *Txn) DeleteAsync(key string) *OpFuture {
	return &OpFuture{err: tx.t.Delete(key)}
}

// ReadMany reads independent keys in one batch round; results are parallel
// to keys. Prefer it over sequential Reads: each chain of dependent reads
// costs one read batch.
func (tx *Txn) ReadMany(keys []string) ([]KV, error) {
	res, err := tx.t.ReadMany(keys)
	if err != nil {
		return nil, err
	}
	out := make([]KV, len(res))
	for i, r := range res {
		out[i] = KV{Key: r.Key, Value: r.Value, Found: r.Found}
	}
	return out, nil
}

// KV is one ReadMany result.
type KV struct {
	Key   string
	Value []byte
	Found bool
}

// Write stores value under key.
func (tx *Txn) Write(key string, value []byte) error { return tx.t.Write(key, value) }

// Delete removes key.
func (tx *Txn) Delete(key string) error { return tx.t.Delete(key) }

// Commit requests commit and blocks until the epoch decides; nil means the
// transaction is durably committed.
func (tx *Txn) Commit() error { return tx.t.Commit() }

// CommitAsync requests commit and returns the decision channel.
func (tx *Txn) CommitAsync() <-chan error { return tx.t.CommitAsync() }

// Abort discards the transaction.
func (tx *Txn) Abort() { tx.t.Abort() }
