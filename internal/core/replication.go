package core

import (
	"sync"
	"sync/atomic"

	"obladi/internal/storage"
	"obladi/internal/wal"
)

// WALConfigFor returns the recovery-unit configuration NewSharded gives
// shard's log under cfg. The replication standby needs an identical config
// over its warm log copies: promotion must open records and verify shard
// pinning exactly as the primary sealed them.
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

// Replicator is the proxy's hot-standby replication hook (implemented by
// internal/replica.Sender; core deliberately knows nothing about the wire).
// The recovery log IS the replication stream: every record the proxy appends
// — batch schedules and checkpoints, the committing ones among them — is
// mirrored to the replicator in exactly store order, and so is every
// truncation, so a standby replaying the stream holds the same bounded log
// the store does and wal.Recover over it reconstructs the state cold recovery
// would read back from storage.
//
// Structural typing keeps the dependency one-way: replica.Sender implements
// these methods without importing core, and core never imports replica.
type Replicator interface {
	// Prime seeds the replicator with everything shard's log retains
	// (records holding seqs firstSeq..firstSeq+len(recs)-1; firstSeq is the
	// store's truncation floor). Called once per shard after
	// bootstrap/recovery and before any traffic, so a standby that attaches
	// later can be sent the history a fresh wal.Recover needs (a full
	// checkpoint is always inside it).
	Prime(shard int, recs [][]byte, firstSeq uint64) error
	// Mirror reports one appended record. Called with the shard's append
	// lock held: invocation order IS store order per shard. It must not
	// block on the network (buffer and return).
	Mirror(shard int, seq uint64, rec []byte)
	// Truncate reports that the store dropped shard's records below
	// before. Same calling discipline as Mirror: under the shard's append
	// lock, in store order, never blocking on the network. The replicator
	// may forget the dropped records and must tell the standby to.
	Truncate(shard int, before uint64)
	// Barrier is called on the boundary commit path after the epoch is
	// locally durable and before its clients are acknowledged. In
	// replica-acked mode it waits (bounded) until the attached standby has
	// received every record mirrored so far, degrading to local-durable
	// with loud logging when no standby keeps up — it never fails the
	// boundary, because the epoch it gates is already durably committed
	// and an error here would be reported to clients as an abort, which
	// would be a lie.
	Barrier() error
}

// replTee wraps one shard's LogStore so every successful append and
// truncation is mirrored to the replicator. The mutex serializes each store
// call with its mirror: the pipelined boundary's committer (the checkpoint of
// epoch e, the truncation behind it) races the next epoch's batch appends on
// the same shard log, and the standby must see them in the order the store did. The tee starts disarmed — bootstrap's
// appends and recovery's truncation are covered by Prime's scan of what the
// log retains — and arms before traffic starts.
type replTee struct {
	storage.LogStore
	shard int
	repl  Replicator
	mu    sync.Mutex
	armed atomic.Bool
}

func (t *replTee) arm() { t.armed.Store(true) }

func (t *replTee) Append(rec []byte) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq, err := t.LogStore.Append(rec)
	if err == nil && t.armed.Load() {
		t.repl.Mirror(t.shard, seq, rec)
	}
	return seq, err
}

func (t *replTee) Truncate(before uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.LogStore.Truncate(before)
	if err == nil && t.armed.Load() {
		t.repl.Truncate(t.shard, before)
	}
	return err
}

// replTeeBatcher is the tee for stores with the LogBatcher capability. A
// plain replTee would hide AppendNoSync from the wal's type probe and
// silently revert every deferred append to an inline fsync; this variant
// forwards the capability, mirroring at append time (the record reaches the
// standby no later than it becomes locally durable — replica-acked mode is
// an additional guarantee on top of the local barrier, not a replacement).
type replTeeBatcher struct {
	replTee
	lb storage.LogBatcher
}

func (t *replTeeBatcher) AppendNoSync(rec []byte) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq, err := t.lb.AppendNoSync(rec)
	if err == nil && t.armed.Load() {
		t.repl.Mirror(t.shard, seq, rec)
	}
	return seq, err
}

func (t *replTeeBatcher) SyncLog() error { return t.lb.SyncLog() }

// newReplTee builds the capability-preserving tee for one shard's store.
func newReplTee(st storage.LogStore, shard int, repl Replicator) (storage.LogStore, *replTee) {
	if lb, ok := st.(storage.LogBatcher); ok {
		t := &replTeeBatcher{replTee: replTee{LogStore: st, shard: shard, repl: repl}, lb: lb}
		return t, &t.replTee
	}
	t := &replTee{LogStore: st, shard: shard, repl: repl}
	return t, t
}

// primeReplicator hands the replicator everything each shard's log retains
// and arms the tees. Runs after bootstrap/recovery and before NewSharded
// returns, so no append races the scan: everything before this point is in
// the scan, everything after goes through an armed tee. Seq alignment
// (standby seq i == store seq i) holds from here on because both sides apply
// the same appends and the same truncations in the same order.
func (p *Proxy) primeReplicator() error {
	if p.cfg.Replicator == nil || p.cfg.DisableDurability {
		return nil
	}
	for _, sh := range p.shards {
		recs, err := sh.store.Scan(0)
		if err != nil {
			return err
		}
		last, err := sh.store.LastSeq()
		if err != nil {
			return err
		}
		first := last - uint64(len(recs)) + 1
		if err := p.cfg.Replicator.Prime(sh.id, recs, first); err != nil {
			return err
		}
	}
	for _, t := range p.tees {
		t.arm()
	}
	return nil
}
