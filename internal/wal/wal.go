// Package wal implements Obladi's recovery unit (§8 of the paper): an
// encrypted write-ahead log kept on untrusted cloud storage.
//
// Three record kinds are logged:
//
//   - batch records: the physical read schedule (paths, slot indices) of
//     every read batch, written BEFORE the reads execute, so a recovering
//     proxy can replay exactly the accesses the adversary already observed;
//   - checkpoint records: the proxy metadata needed to resume — position
//     map, per-bucket permutation/valid maps, counters, and the stash.
//     Checkpoints are deltas, with a periodic full checkpoint; deltas pad
//     the position-map to the maximum number of entries an epoch can touch
//     and the stash to its configured maximum, so record sizes leak nothing;
//   - commit records: the epoch-boundary durability point.
//
// All payloads are sealed with the proxy's key and bound to (kind, epoch,
// seq) so the storage server can neither forge nor replay stale records
// (Appendix A).
package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Record kinds (plaintext framing byte; timing/kind of records is public).
const (
	kindBatch      = 1
	kindCheckpoint = 2
	kindCommit     = 3
)

// padKeyPrefix marks padding entries injected into checkpoint maps; the
// NUL byte cannot appear in real keys written through the public API.
const padKeyPrefix = "\x00pad"

// Config tunes the recovery unit.
type Config struct {
	// Key seals all log payloads. Required.
	Key *cryptoutil.Key
	// Shard and Shards identify this log's key-space partition (shard index
	// and total shard count). They are recorded in every checkpoint and
	// verified on recovery, so a deployment restarted with reordered storage
	// addresses or a different shard count fails loudly instead of silently
	// mis-routing the key space. Shards == 0 disables the check (unsharded
	// tools and tests).
	Shard, Shards int
	// PadPosEntries pads every checkpoint's position-map delta to this
	// many entries: the maximum number of keys an epoch can touch
	// (R*bread + bwrite). 0 disables padding (tests only).
	PadPosEntries int
	// PadStashEntries pads the logged stash to this many blocks
	// (the ORAM's stash limit). 0 disables padding (tests only).
	PadStashEntries int
	// PadValueSize sizes stash padding blocks. Defaults to 0 (empty pad
	// values); set to the ORAM value size for full-fidelity padding.
	PadValueSize int
	// FullCheckpointEvery forces a full (non-delta) checkpoint every N
	// epochs; 1 means every checkpoint is full. Default 16.
	FullCheckpointEvery int
}

func (c *Config) setDefaults() error {
	if c.Key == nil {
		return errors.New("wal: nil key")
	}
	if c.FullCheckpointEvery <= 0 {
		c.FullCheckpointEvery = 16
	}
	return nil
}

// Log is the recovery unit client.
//
// # Lifecycle
//
// The log is bounded: Retire(e), called once epoch e is durable everywhere,
// cuts the store log at the newest full checkpoint at or below e. The cut
// is computed from the sequence numbers the store handed back at append
// time — nothing is scanned or decrypted. Under the pipelined boundary the
// next epoch's batch records can precede e's checkpoint in the log; they are
// a crash's replay schedule, so the cut never passes the first batch record
// of an epoch above e. The bookkeeping is per process: after a restart it is
// empty and the first full checkpoint appended (recovery's own) re-anchors it.
type Log struct {
	store     storage.LogStore
	cfg       Config
	sinceFull int

	// mu guards the lifecycle bookkeeping below. Batch appends run on the
	// schedule goroutine, checkpoint/commit appends and Retire on the
	// committer.
	mu          sync.Mutex
	full        logMark   // newest full checkpoint appended (seq 0: none yet)
	batches     []logMark // first batch record of each epoch not yet retired, in epoch order
	lastSeq     uint64    // highest sequence number an append returned
	retained    uint64    // records the store holds, as far as this process knows
	truncations uint64
}

// logMark locates one record: the epoch it belongs to and its store seq.
type logMark struct {
	epoch, seq uint64
}

// Stats is a snapshot of a log's lifecycle counters.
type Stats struct {
	// Records counts the records the store retains: what recovery scanned
	// plus what this process appended, exact from the first truncation on.
	Records uint64
	// FloorSeq is the sequence number of the oldest retained record; 0
	// until this process has appended (sequence numbers are only learned
	// from appends).
	FloorSeq uint64
	// Truncations counts Retire calls that cut the log.
	Truncations uint64
}

// Stats snapshots the log's lifecycle counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Records: l.retained, Truncations: l.truncations}
	if l.lastSeq >= l.retained {
		st.FloorSeq = l.lastSeq + 1 - l.retained
	}
	return st
}

// New creates a recovery unit over a durable log store.
func New(store storage.LogStore, cfg Config) (*Log, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Log{store: store, cfg: cfg, sinceFull: cfg.FullCheckpointEvery}, nil
}

// batchRecord is the gob payload of a batch record.
type batchRecord struct {
	Epoch   uint64
	Batch   int
	Entries []oramexec.LogEntry
}

// checkpointRecord is the gob payload of a checkpoint record.
type checkpointRecord struct {
	Epoch uint64
	// Shard and ShardCount pin the checkpoint to its key-space partition.
	Shard, ShardCount int
	State             ringoram.State
}

// commitRecord is the gob payload of a commit record.
type commitRecord struct {
	Epoch uint64
}

// seal encrypts and authenticates a record. The binding covers the record
// kind; epoch ordering is carried (authenticated) inside the payload, and
// log-suffix freshness is the trusted counter's job (Appendix A), modeled
// here by the append-only LogStore.
func (l *Log) seal(kind byte, payload interface{}) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(0) // reserved/version
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("wal: encoding record: %w", err)
	}
	sealed, err := l.cfg.Key.Seal(buf.Bytes(), cryptoutil.Binding(uint64(kind), 0, 0))
	if err != nil {
		return nil, err
	}
	return append([]byte{kind}, sealed...), nil
}

func (l *Log) open(rec []byte, payload interface{}) error {
	if len(rec) < 1 {
		return errors.New("wal: empty record")
	}
	plain, err := l.cfg.Key.Open(rec[1:], cryptoutil.Binding(uint64(rec[0]), 0, 0))
	if err != nil {
		return fmt.Errorf("wal: record failed authentication: %w", err)
	}
	if len(plain) < 1 {
		return errors.New("wal: short record")
	}
	return gob.NewDecoder(bytes.NewReader(plain[1:])).Decode(payload)
}

// AppendBatch durably logs a batch's physical read schedule. Must complete
// before the batch's reads are issued (write-ahead rule).
func (l *Log) AppendBatch(epoch uint64, batch int, entries []oramexec.LogEntry) error {
	return l.appendBatch(epoch, batch, entries, true)
}

// AppendBatchDeferred logs a batch's read schedule without waiting for its
// durability barrier: the record rides the next Sync. The write-ahead rule
// is then the CALLER's to restore — Sync must return before the batch's
// reads are issued. The split lets several shards' schedule records (and,
// on a shared physical log, several records per shard) stand on one flush
// instead of one fsync per record.
func (l *Log) AppendBatchDeferred(epoch uint64, batch int, entries []oramexec.LogEntry) error {
	return l.appendBatch(epoch, batch, entries, false)
}

// appendBatch appends a batch record and remembers where its epoch's batch
// records start. The append and the note share one critical section: a
// batch record that reaches the store ahead of a checkpoint is then always
// noted before a Retire standing on that checkpoint can read the marks.
func (l *Log) appendBatch(epoch uint64, batch int, entries []oramexec.LogEntry, sync bool) error {
	rec, err := l.seal(kindBatch, batchRecord{Epoch: epoch, Batch: batch, Entries: entries})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.appendStore(rec, sync)
	if err != nil {
		return err
	}
	l.noteAppendLocked(seq)
	if n := len(l.batches); n == 0 || l.batches[n-1].epoch < epoch {
		l.batches = append(l.batches, logMark{epoch: epoch, seq: seq})
	}
	return nil
}

func (l *Log) noteAppendLocked(seq uint64) {
	if seq > l.lastSeq {
		l.lastSeq = seq
	}
	l.retained++
}

// Sync makes every deferred append durable. A no-op when the store lacks
// the LogBatcher capability — its Appends were durable inline.
func (l *Log) Sync() error {
	if lb, ok := l.store.(storage.LogBatcher); ok {
		return lb.SyncLog()
	}
	return nil
}

// appendStore appends a sealed record: durably, or — when sync is false and
// the store supports deferred barriers — riding a later Sync. Stores
// without the capability always append durably, so every caller of the
// deferred variants degrades to the stricter behavior.
func (l *Log) appendStore(rec []byte, sync bool) (uint64, error) {
	if !sync {
		if lb, ok := l.store.(storage.LogBatcher); ok {
			return lb.AppendNoSync(rec)
		}
	}
	return l.store.Append(rec)
}

// PendingCheckpoint is an epoch-end metadata snapshot whose log append has
// been deferred. The pipelined epoch boundary snapshots at seal time (the
// metadata must be captured before the next epoch mutates it) and appends
// from the background committer, taking the expensive durable write off the
// batch schedule's hot path.
type PendingCheckpoint struct {
	epoch uint64
	state *ringoram.State
}

// Epoch returns the epoch the pending checkpoint belongs to.
func (c *PendingCheckpoint) Epoch() uint64 { return c.epoch }

// PrepareCheckpoint snapshots the epoch-end metadata without appending it.
// It decides full-vs-delta per the configured cadence, pads the delta so its
// size is workload independent, and resets the ORAM's dirty tracking (the
// snapshot owns those changes now; if the later append fails the proxy
// fail-stops, so no subsequent checkpoint can miss them).
func (l *Log) PrepareCheckpoint(epoch uint64, oram *ringoram.ORAM) (*PendingCheckpoint, error) {
	full := l.sinceFull >= l.cfg.FullCheckpointEvery
	st, err := oram.Snapshot(full)
	if err != nil {
		return nil, err
	}
	l.pad(st)
	oram.ClearDirty()
	if full {
		l.sinceFull = 1
	} else {
		l.sinceFull++
	}
	return &PendingCheckpoint{epoch: epoch, state: st}, nil
}

// AppendPrepared seals and durably appends a prepared checkpoint. Returns
// whether it was a full checkpoint.
func (l *Log) AppendPrepared(cp *PendingCheckpoint) (bool, error) {
	return l.appendPrepared(cp, true)
}

// AppendPreparedDeferred appends a prepared checkpoint without its barrier;
// the caller must Sync before treating the epoch as prepared (in the
// coordinator-commit protocol: before the coordinator's commit record may
// be written).
func (l *Log) AppendPreparedDeferred(cp *PendingCheckpoint) (bool, error) {
	return l.appendPrepared(cp, false)
}

func (l *Log) appendPrepared(cp *PendingCheckpoint, sync bool) (bool, error) {
	rec, err := l.seal(kindCheckpoint, checkpointRecord{Epoch: cp.epoch, Shard: l.cfg.Shard, ShardCount: l.cfg.Shards, State: *cp.state})
	if err != nil {
		return false, err
	}
	seq, err := l.appendStore(rec, sync)
	if err != nil {
		return false, err
	}
	l.mu.Lock()
	l.noteAppendLocked(seq)
	if cp.state.Full {
		l.full = logMark{epoch: cp.epoch, seq: seq}
	}
	l.mu.Unlock()
	return cp.state.Full, nil
}

// AppendCheckpoint logs the epoch-end metadata snapshot synchronously:
// PrepareCheckpoint immediately followed by AppendPrepared. Returns whether
// a full checkpoint was written.
func (l *Log) AppendCheckpoint(epoch uint64, oram *ringoram.ORAM) (bool, error) {
	cp, err := l.PrepareCheckpoint(epoch, oram)
	if err != nil {
		return false, err
	}
	return l.AppendPrepared(cp)
}

// pad injects dummy entries so a delta's position-map size and the stash
// size are constants (§8 "Optimizations": "pads the map delta to the maximum
// number of entries that could have changed in an epoch").
func (l *Log) pad(st *ringoram.State) {
	if !st.Full && l.cfg.PadPosEntries > 0 {
		for i := 0; len(st.Pos) < l.cfg.PadPosEntries; i++ {
			st.Pos[fmt.Sprintf("%s-%d", padKeyPrefix, i)] = 0
		}
	}
	if l.cfg.PadStashEntries > 0 {
		for i := len(st.Stash); i < l.cfg.PadStashEntries; i++ {
			st.Stash = append(st.Stash, ringoram.StashBlock{
				Key:   fmt.Sprintf("%s-s%d", padKeyPrefix, i),
				Value: make([]byte, l.cfg.PadValueSize),
			})
		}
	}
}

// unpad strips padding entries from a decoded state.
func unpad(st *ringoram.State) {
	for k := range st.Pos {
		if len(k) >= len(padKeyPrefix) && k[:len(padKeyPrefix)] == padKeyPrefix {
			delete(st.Pos, k)
		}
	}
	kept := st.Stash[:0]
	for _, b := range st.Stash {
		if len(b.Key) >= len(padKeyPrefix) && b.Key[:len(padKeyPrefix)] == padKeyPrefix {
			continue
		}
		kept = append(kept, b)
	}
	st.Stash = kept
}

// IsCommitRecord reports whether a raw log record is a commit record.
// Record kinds are plaintext framing (their timing is public information);
// crash-injection tests use this to fail storage exactly between an epoch's
// prepare (checkpoints durable) and its commit point.
func IsCommitRecord(rec []byte) bool {
	return len(rec) > 0 && rec[0] == kindCommit
}

// DecodeCommitEpoch opens a raw log record and, when it is a commit record,
// returns the epoch it commits. ok is false (with no error) for other record
// kinds. The replication standby uses this to track the primary's committed
// epoch from the mirrored stream without running a full recovery per record.
func (l *Log) DecodeCommitEpoch(rec []byte) (epoch uint64, ok bool, err error) {
	if !IsCommitRecord(rec) {
		return 0, false, nil
	}
	var cr commitRecord
	if err := l.open(rec, &cr); err != nil {
		return 0, false, err
	}
	return cr.Epoch, true, nil
}

// AppendCommit durably marks epoch as committed. After this record is
// persisted the epoch's transactions may be acknowledged to clients.
func (l *Log) AppendCommit(epoch uint64) error {
	return l.appendCommit(epoch, true)
}

// AppendCommitDeferred appends a commit record without waiting for its
// barrier. Only sound for records whose durability is OPTIONAL — in the
// coordinator-commit protocol, the non-coordinator shards' commit records
// are a recovery fast path (a shard that lost one recovers by consulting
// the coordinator's committed floor), so they may ride whatever flush comes
// next instead of each paying an fsync. The coordinator's own commit record
// is the global commit point and must use AppendCommit.
func (l *Log) AppendCommitDeferred(epoch uint64) error {
	return l.appendCommit(epoch, false)
}

func (l *Log) appendCommit(epoch uint64, sync bool) error {
	rec, err := l.seal(kindCommit, commitRecord{Epoch: epoch})
	if err != nil {
		return err
	}
	seq, err := l.appendStore(rec, sync)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.noteAppendLocked(seq)
	l.mu.Unlock()
	return nil
}

// Retire tells the log that every epoch up to and including epoch is durably
// committed on every shard — checkpoints, the coordinator's commit record
// and the storage epoch commit — so nothing at or below it will ever be
// replayed. If a full checkpoint at or below epoch has been appended since
// the last cut, Retire issues exactly one store Truncate, at that checkpoint
// or at the first batch record of a later epoch, whichever comes first in
// the log; otherwise it touches nothing. The caller owns the ordering: on a
// non-coordinator shard the coordinator's commit of epoch must already be
// durable, because recovery with that floor needs the checkpoint the cut
// keeps at the head of the log.
func (l *Log) Retire(epoch uint64) error {
	l.mu.Lock()
	cut := uint64(0)
	if l.full.seq != 0 && l.full.epoch <= epoch {
		cut = l.full.seq
	}
	live := l.batches[:0]
	for _, m := range l.batches {
		if m.epoch <= epoch {
			continue
		}
		live = append(live, m)
		if m.seq < cut {
			cut = m.seq
		}
	}
	l.batches = live
	if cut <= 1 { // no full checkpoint to stand on, or nothing precedes it
		l.mu.Unlock()
		return nil
	}
	l.full = logMark{} // one cut per full checkpoint
	l.mu.Unlock()
	// Outside the lock: the store call can be a round trip or an fsync, and
	// batch appends on the schedule goroutine must not wait behind it.
	// Records appended meanwhile sit above the cut.
	if err := l.store.Truncate(cut); err != nil {
		return fmt.Errorf("wal: truncating log below seq %d: %w", cut, err)
	}
	l.mu.Lock()
	l.retained = l.lastSeq + 1 - cut
	l.truncations++
	l.mu.Unlock()
	return nil
}

// RecoveryStats breaks down recovery cost for Table 11b.
type RecoveryStats struct {
	BytesRead     int
	PosEntries    int
	PermBuckets   int
	PathEntries   int
	DecodePosPerm time.Duration
	DecodePaths   time.Duration
}

// Recovery is the reconstructed durable state after a crash.
type Recovery struct {
	// CommittedEpoch is the last epoch whose commit record is durable; the
	// storage tree must be rolled back to it.
	CommittedEpoch uint64
	// HasCommit reports whether any commit record exists at all. A log with
	// checkpoints but no commit record is a first boot that died mid-prepare:
	// nothing ever committed, and callers should reinitialize instead of
	// recovering "epoch 0".
	HasCommit bool
	// Full and Deltas reconstruct the ORAM client metadata.
	Full   *ringoram.State
	Deltas []*ringoram.State
	// AbortedBatches holds the logged read schedules of every epoch that
	// was still uncommitted when the proxy crashed, in log (= schedule)
	// order; recovery replays them. With the pipelined epoch boundary up to
	// two uncommitted epochs can be in flight at once: the sealed epoch
	// whose commit had not landed, and its successor that was already
	// issuing read batches.
	AbortedBatches [][]oramexec.LogEntry
	// MaxAbortedEpoch is the highest epoch appearing in AbortedBatches (0
	// when none). Recovery commits its replay under this epoch so a later
	// crash can never replay the dead generation's records again.
	MaxAbortedEpoch uint64
	Stats           RecoveryStats
}

// ErrNoCheckpoint indicates the log holds no usable full checkpoint.
var ErrNoCheckpoint = errors.New("wal: no full checkpoint in log")

// Recover scans the log and reconstructs the latest committed state plus
// the aborted epoch's read schedule.
func (l *Log) Recover() (*Recovery, error) { return l.RecoverWithFloor(0) }

// RecoverWithFloor recovers like Recover but treats `floor` as committed even
// if this log's own newest commit record is older. The cross-shard epoch
// coordinator relies on this: every shard's checkpoint for an epoch is durable
// before the coordinator appends the epoch's global commit record (prepare
// precedes commit), so a crash between the coordinator's commit record and
// this shard's own leaves the shard exactly one commit record behind; the
// floor restores the coordinator's decision. A floor above this log's own
// commit requires the floor epoch's checkpoint to be present, otherwise
// recovery fails rather than silently resurrecting older state.
func (l *Log) RecoverWithFloor(floor uint64) (*Recovery, error) {
	recs, err := l.store.Scan(0)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.retained = uint64(len(recs))
	l.mu.Unlock()
	r := &Recovery{}
	for _, rec := range recs {
		r.Stats.BytesRead += len(rec)
	}
	// Pass 1: newest committed epoch.
	type parsed struct {
		kind  byte
		cp    *checkpointRecord
		batch *batchRecord
	}
	items := make([]parsed, len(recs))
	for i, rec := range recs {
		if len(rec) == 0 {
			return nil, fmt.Errorf("wal: empty record %d", i)
		}
		items[i].kind = rec[0]
		if rec[0] == kindCommit {
			var cr commitRecord
			if err := l.open(rec, &cr); err != nil {
				return nil, fmt.Errorf("wal: commit record %d: %w", i, err)
			}
			if cr.Epoch > r.CommittedEpoch {
				r.CommittedEpoch = cr.Epoch
			}
			r.HasCommit = true
		}
	}
	raised := floor > r.CommittedEpoch
	if raised {
		r.CommittedEpoch = floor
	}
	// Pass 2: decode checkpoints up to the committed epoch; find the newest
	// full one, then collect subsequent deltas. Also decode batch records
	// of the aborted epoch (committed+1).
	start := time.Now()
	var fullIdx = -1
	haveFloorCp := false
	cps := make([]*checkpointRecord, len(recs))
	for i, rec := range recs {
		if items[i].kind != kindCheckpoint {
			continue
		}
		var cp checkpointRecord
		if err := l.openCheckpoint(rec, &cp); err != nil {
			return nil, fmt.Errorf("wal: checkpoint record %d: %w", i, err)
		}
		if l.cfg.Shards != 0 && (cp.ShardCount != l.cfg.Shards || cp.Shard != l.cfg.Shard) {
			return nil, fmt.Errorf("wal: log belongs to shard %d of %d, configured as shard %d of %d — storage addresses reordered or shard count changed?",
				cp.Shard, cp.ShardCount, l.cfg.Shard, l.cfg.Shards)
		}
		if cp.Epoch > r.CommittedEpoch {
			continue // checkpoint of an epoch that never committed
		}
		if cp.Epoch == floor {
			haveFloorCp = true
		}
		cps[i] = &cp
		if cp.State.Full {
			fullIdx = i
		}
	}
	if raised && !haveFloorCp {
		return nil, fmt.Errorf("wal: coordinator committed epoch %d but no local checkpoint for it", floor)
	}
	if fullIdx < 0 {
		return nil, ErrNoCheckpoint
	}
	unpad(&cps[fullIdx].State)
	r.Full = &cps[fullIdx].State
	r.Stats.PosEntries += len(r.Full.Pos)
	r.Stats.PermBuckets += len(r.Full.Buckets)
	for i := fullIdx + 1; i < len(recs); i++ {
		if cps[i] == nil {
			continue
		}
		unpad(&cps[i].State)
		r.Deltas = append(r.Deltas, &cps[i].State)
		r.Stats.PosEntries += len(cps[i].State.Pos)
		r.Stats.PermBuckets += len(cps[i].State.Buckets)
	}
	r.Stats.DecodePosPerm = time.Since(start)

	start = time.Now()
	for i, rec := range recs {
		if items[i].kind != kindBatch {
			continue
		}
		var br batchRecord
		if err := l.openBatch(rec, &br); err != nil {
			return nil, fmt.Errorf("wal: batch record %d: %w", i, err)
		}
		if br.Epoch <= r.CommittedEpoch {
			continue // batch of a committed (already durable) epoch
		}
		// Epochs > committed: the sealed-but-uncommitted epoch plus, under
		// the pipelined boundary, its successor's already-issued batches.
		// Per-shard appends happen in schedule order (a batch record is
		// durable before its reads execute, and every record of epoch e
		// precedes epoch e+1's), so log order is replay order.
		r.AbortedBatches = append(r.AbortedBatches, br.Entries)
		if br.Epoch > r.MaxAbortedEpoch {
			r.MaxAbortedEpoch = br.Epoch
		}
		r.Stats.PathEntries += len(br.Entries)
	}
	r.Stats.DecodePaths = time.Since(start)
	return r, nil
}

func (l *Log) openCheckpoint(rec []byte, cp *checkpointRecord) error {
	return l.open(rec, cp)
}

func (l *Log) openBatch(rec []byte, br *batchRecord) error {
	return l.open(rec, br)
}
