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
	// fix the epoch's observable shape. Defaults: 4, 32, 32; a negative
	// value is refused.
	ReadBatches    int
	ReadBatchSize  int
	WriteBatchSize int
	// BatchInterval is Δ, the fixed batch cadence: one read batch or
	// boundary per Δ whatever the load, so a full batch waits out its slot.
	// Zero selects manual mode, where the caller drives the schedule with
	// Advance (useful for tests and deterministic tools). Either way an
	// epoch's write-back and durability round trips overlap the next
	// epoch's read batches.
	BatchInterval time.Duration

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
	// FullCheckpointEvery sets the full-checkpoint cadence (default 16; a
	// negative value is refused).
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
	// after this long without a heartbeat from the primary, which heartbeats
	// every LeaseTimeout/8. It must match on primary and standby: the
	// standby refuses a primary whose lease differs. Default 750ms.
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
			Lease:  opt.LeaseTimeout,
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
// LeaseTimeout, batching and storage addresses); KeySeed is required since recovery opens
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

// Txn is a transaction handle; see core.Txn for its methods.
type Txn = core.Txn

// Future is the pending result of a ReadAsync; it resolves when the read's
// batch executes.
type Future = core.Future

// KV is one ReadMany result.
type KV = core.ReadResult

// Begin starts a transaction.
func (db *DB) Begin() *Txn { return db.proxy.Begin() }

// BeginCtx starts a transaction bound to ctx: cancellation or deadline
// expiry aborts it, and unblocks any operation waiting on a batch or on the
// epoch's commit decision. The oblivious schedule is unaffected — batch
// slots a cancelled transaction queued still execute as dummies.
func (db *DB) BeginCtx(ctx context.Context) *Txn { return db.proxy.BeginCtx(ctx) }

// Update runs fn in a transaction and commits, retrying up to 10 times on
// aborts. fn must be idempotent.
func (db *DB) Update(fn func(*Txn) error) error {
	return db.UpdateCtx(context.Background(), fn)
}

// UpdateCtx is Update bound to ctx: each attempt's transaction carries ctx,
// and retries stop once ctx is done.
func (db *DB) UpdateCtx(ctx context.Context, fn func(*Txn) error) error {
	return db.retry(ctx, func(tx *Txn) error {
		if err := fn(tx); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// View runs fn in a transaction that is aborted afterwards (reads only take
// effect); retries like Update.
func (db *DB) View(fn func(*Txn) error) error {
	return db.ViewCtx(context.Background(), fn)
}

// ViewCtx is View bound to ctx, with UpdateCtx's retry semantics.
func (db *DB) ViewCtx(ctx context.Context, fn func(*Txn) error) error {
	return db.retry(ctx, fn)
}

// retry runs attempt in up to 10 transactions bound to ctx, aborting each
// afterwards (a no-op once it committed), until an attempt returns nil or an
// error that is not a retryable abort. A load-shed (ErrShed) means the
// epoch's read slots are spoken for, and an immediate replay would land in
// the same exhausted epoch: a shed attempt is retried after a jittered,
// doubling backoff, cut short when ctx is done.
func (db *DB) retry(ctx context.Context, attempt func(*Txn) error) error {
	var last error
	backoff := core.ShedBackoff
	for i := 0; i < 10; i++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		tx := db.BeginCtx(ctx)
		err := attempt(tx)
		tx.Abort()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrEpochFull) {
			return err
		}
		last = err
		if errors.Is(err, ErrShed) {
			backoff = core.WaitShedBackoff(ctx, backoff)
		}
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

// Stats is a snapshot of proxy counters; see core.Stats for the fields.
// Executor.ReadCalls and Executor.WriteCalls count storage wire calls.
type Stats = core.Stats

// LogStats is one shard's recovery-log lifecycle snapshot: Records retained,
// the FloorSeq of the oldest one, Truncations run, and the checkpoint record
// sizes (LastDeltaBytes, LastFullBytes, CheckpointBytes in all).
type LogStats = wal.Stats

// Stats returns a snapshot of proxy counters.
func (db *DB) Stats() Stats { return db.proxy.Stats() }

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
