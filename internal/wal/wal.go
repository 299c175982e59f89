// Package wal implements Obladi's recovery unit (§8 of the paper): an
// encrypted write-ahead log kept on untrusted cloud storage.
//
// Two record kinds are logged:
//
//   - batch records: the physical read schedule (paths, slot indices) of
//     every read batch, written BEFORE the reads execute, so a recovering
//     proxy can replay exactly the accesses the adversary already observed;
//   - checkpoint records: the proxy metadata needed to resume — position
//     map, per-bucket permutation/valid maps, counters, and the stash.
//     Checkpoints are deltas, with a periodic full checkpoint; deltas pad
//     the position-map to the maximum number of entries an epoch can touch
//     and the stash to its bound (Config.Public's CheckpointPad), so record
//     sizes leak nothing.
//
// A checkpoint is also the epoch-boundary durability point. The coordinator's
// log (Config.Shard == 0) writes every checkpoint as a COMMITTING checkpoint:
// the record whose durability decides its epoch for every shard. The other
// shards write prepared checkpoints, which count only up to the epoch the
// coordinator committed (RecoverWithFloor). The two differ in the kind byte
// alone — same layout, same size.
//
// There is one append mode: AppendBatch and AppendPrepared hand the record to
// the store, and it is durable once the next Sync returns (at once on a store
// without the storage.LogBatcher capability). Callers append every record of
// a round, then Sync once, so the round's records share one barrier.
//
// # Record format
//
// A record is one exact-size buffer, written once and sealed where it lies:
//
//	kind(u8) | scheme(u8) nonce(12) | plaintext | tag(16)
//
// kind is plaintext framing (the timing and kind of records is public). The
// plaintext starts with a format version byte and a fixed header, followed by
// a payload the owning package lays out in fixed-width entries:
//
//	batch       version(u8) epoch(u64) batch(u32)              | meta batch log
//	checkpoint  version(u8) epoch(u64) shard(u32) shards(u32)  | meta checkpoint image
//
// Both payload formats are ringoram/meta's, and both are written straight from
// the machine's planned steps and live metadata into the record buffer
// (meta.BatchLog, meta.Machine.EncodeCheckpoint): there is no intermediate
// representation and no reflection. Batch records and delta checkpoints are
// encoded into two buffers the log keeps and reuses, one each because batch
// records are appended on the schedule goroutine and checkpoints on the
// committer: a store copies what it keeps (storage.LogStore), so a buffer is
// free again once its append returns. A full checkpoint, sized by the key
// count, gets a buffer of its own that nothing keeps after its append. A record
// whose version byte is not formatVersion — version 0 is the retired gob
// encoding, version 1 committed epochs with a record of their own, version 2
// spelled out every key of a checkpoint and gave its integers fixed widths,
// version 3 logged no seed of a bucket version (its slots carried their own
// nonces) and a slot count per bucket — fails recovery and standby attach
// with ErrFormat; there is no migration reader.
//
// All payloads are sealed with the proxy's key and bound to the record kind;
// epoch ordering is carried (authenticated) inside the payload, so the
// storage server can neither forge records nor pass one kind off as another
// (in particular it can neither add nor strip a checkpoint's committing mark),
// and log-suffix freshness is the trusted counter's job (Appendix A), modeled
// here by the append-only LogStore.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/storage"
)

// Record kinds (plaintext framing byte; timing/kind of records is public).
const (
	kindBatch                = 1
	kindCheckpoint           = 2 // prepared: committed once the coordinator's floor reaches its epoch
	kindCheckpointCommitting = 3 // the coordinator's: its durability commits its epoch
)

// formatVersion leads every record's plaintext.
const formatVersion = 4

// Record geometry: where the plaintext sits in a record, and the fixed
// header each kind puts in front of its payload.
const (
	recordHead           = 1 + cryptoutil.PlaintextOffset // kind byte, then the AEAD frame's scheme and nonce
	recordTail           = cryptoutil.TagSize
	batchHeaderSize      = 1 + 8 + 4
	checkpointHeaderSize = 1 + 8 + 4 + 4
)

// ErrFormat indicates a record written in a format this build does not read.
var ErrFormat = errors.New("wal: log written by an older build (unsupported record format version)")

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
	// Public is the deployment's public parameters: every checkpoint takes
	// its cadence and padded shape from it. A log without one can append
	// batch records and recover, but refuses to checkpoint.
	Public *meta.Public
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
	store storage.LogStore
	// batcher is store's LogBatcher face, nil when it has none: probed once,
	// at New, not on every append and Sync.
	batcher storage.LogBatcher
	cfg     Config
	// untilFull counts the delta checkpoints due before the next full one.
	untilFull int
	// bind holds each record kind's AEAD binding, built once.
	bind [kindCheckpointCommitting + 1][]byte
	// The two sealers' own nonce blocks and record buffers, never shared:
	// batch records are encoded and sealed on the schedule goroutine,
	// checkpoints on the committer. deltaRec is the newest delta
	// checkpoint's buffer, which the next delta reuses.
	batchNonces, checkpointNonces cryptoutil.Nonces
	batchRec, deltaRec            []byte
	// pending is the one checkpoint prepared and not yet appended: the
	// boundary keeps at most one in flight.
	pending PendingCheckpoint

	// mu guards the lifecycle bookkeeping below. Batch appends run on the
	// schedule goroutine, checkpoint appends and Retire on the committer.
	mu          sync.Mutex
	full        logMark   // newest full checkpoint appended (seq 0: none yet)
	batches     []logMark // first batch record of each epoch not yet retired, in epoch order
	lastSeq     uint64    // highest sequence number an append returned
	retained    uint64    // records the store holds, as far as this process knows
	truncations uint64
	// Checkpoint record sizes: the newest delta and full, and the running total.
	lastDelta, lastFull, checkpointBytes uint64
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
	// LastDeltaBytes and LastFullBytes are the sizes of the newest delta and
	// full checkpoint records this process appended; CheckpointBytes is the
	// total over all of them.
	LastDeltaBytes, LastFullBytes, CheckpointBytes uint64
}

// Stats snapshots the log's lifecycle counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Records: l.retained, Truncations: l.truncations,
		LastDeltaBytes: l.lastDelta, LastFullBytes: l.lastFull, CheckpointBytes: l.checkpointBytes,
	}
	if l.lastSeq >= l.retained {
		st.FloorSeq = l.lastSeq + 1 - l.retained
	}
	return st
}

// New creates a recovery unit over a durable log store.
func New(store storage.LogStore, cfg Config) (*Log, error) {
	if cfg.Key == nil {
		return nil, errors.New("wal: nil key")
	}
	l := &Log{store: store, cfg: cfg}
	l.batcher, _ = store.(storage.LogBatcher)
	for kind := kindBatch; kind <= kindCheckpointCommitting; kind++ {
		l.bind[kind] = cryptoutil.Binding(uint64(kind), 0, 0)
	}
	return l, nil
}

// newRecord lays a record of the given kind and plaintext length out in buf's
// array, growing it only when it is too short, and returns the record with
// its plaintext region, zeroed: the encoders leave padding unwritten.
func newRecord(buf []byte, kind byte, plainLen int) (rec, plain []byte) {
	n := recordHead + plainLen + recordTail
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	rec = buf[:n]
	rec[0] = kind
	plain = rec[recordHead : recordHead+plainLen]
	clear(plain)
	return rec, plain
}

// putHeader writes the part every kind's fixed header starts with: the format
// version and the epoch the record belongs to.
func putHeader(plain []byte, epoch uint64) {
	plain[0] = formatVersion
	binary.BigEndian.PutUint64(plain[1:], epoch)
}

// headerEpoch reads the epoch out of an opened record's header.
func headerEpoch(plain []byte) uint64 { return binary.BigEndian.Uint64(plain[1:]) }

// seal encrypts and authenticates a record's plaintext where it lies, with a
// nonce cut from the sealer's block.
func (l *Log) seal(rec []byte, nonces *cryptoutil.Nonces) error {
	return l.cfg.Key.SealInPlace(rec[1:], l.bind[rec[0]], nonces)
}

// open authenticates and decrypts a record, checks its format version and
// that it is at least headerSize long, and returns its plaintext.
func (l *Log) open(rec []byte, headerSize int) ([]byte, error) {
	if len(rec) < 1 {
		return nil, errors.New("wal: empty record")
	}
	if rec[0] < kindBatch || rec[0] > kindCheckpointCommitting {
		return nil, fmt.Errorf("wal: unknown record kind %d", rec[0])
	}
	plain, err := l.cfg.Key.Open(rec[1:], l.bind[rec[0]])
	if err != nil {
		return nil, fmt.Errorf("wal: record failed authentication: %w", err)
	}
	if len(plain) < 1 {
		return nil, errors.New("wal: short record")
	}
	if plain[0] != formatVersion {
		return nil, fmt.Errorf("%w: record version %d, this build reads %d", ErrFormat, plain[0], formatVersion)
	}
	if len(plain) < headerSize {
		return nil, errors.New("wal: short record")
	}
	return plain, nil
}

// AppendBatch logs a batch's physical read schedule and remembers where its
// epoch's batch records start. The record is durable once the next Sync
// returns (at once when the store lacks the LogBatcher capability): the
// write-ahead rule is the caller's, and Sync must return before the batch's
// reads are issued. Several shards' schedule records (and, on a shared
// physical log, several records per shard) thus stand on one flush instead of
// one fsync per record. The append and the note share one critical section:
// a batch record that reaches the store ahead of a checkpoint is then always
// noted before a Retire standing on that checkpoint can read the marks.
func (l *Log) AppendBatch(epoch uint64, batch int, log meta.BatchLog) error {
	rec, plain := newRecord(l.batchRec, kindBatch, batchHeaderSize+log.EncodedSize())
	l.batchRec = rec
	putHeader(plain, epoch)
	binary.BigEndian.PutUint32(plain[9:], uint32(batch))
	if err := log.Encode(plain[batchHeaderSize:]); err != nil {
		return err
	}
	if err := l.seal(rec, &l.batchNonces); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.appendStore(rec)
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

// Sync makes every append durable. A no-op when the store lacks the
// LogBatcher capability — its Appends were durable inline.
func (l *Log) Sync() error {
	if l.batcher == nil {
		return nil
	}
	return l.batcher.SyncLog()
}

// appendStore appends a sealed record that rides the next Sync when the store
// supports deferred barriers. Stores without the capability append durably,
// the stricter behavior.
func (l *Log) appendStore(rec []byte) (uint64, error) {
	if l.batcher == nil {
		return l.store.Append(rec)
	}
	return l.batcher.AppendNoSync(rec)
}

// PendingCheckpoint is an epoch-end metadata snapshot whose log append has
// been deferred. The pipelined epoch boundary snapshots at seal time (the
// metadata must be captured before the next epoch mutates it) and appends
// from the background committer, taking the expensive durable write off the
// batch schedule's hot path. A Log owns one: each PrepareCheckpoint refills
// it, so a caller holds it only until its AppendPrepared.
type PendingCheckpoint struct {
	epoch uint64
	full  bool
	// rec is the complete record, plaintext encoded in place and not yet
	// sealed: the committer seals and appends these very bytes.
	rec []byte
}

// Epoch returns the epoch the pending checkpoint belongs to.
func (c *PendingCheckpoint) Epoch() uint64 { return c.epoch }

// PrepareCheckpoint snapshots the epoch-end metadata without appending it:
// one pass over the machine's live metadata, with the stash's values from
// its byte plane, encodes the checkpoint image directly into the record
// buffer — the log's delta buffer for a delta, a buffer of its own for a full
// image. It decides full-vs-delta per the public cadence, pads the image to
// Public.CheckpointPad so its size is workload independent, and resets the
// machine's dirty tracking (the snapshot owns those changes now; if the later
// append fails the proxy fail-stops, so no subsequent checkpoint can miss
// them). On the coordinator's log the record is a committing checkpoint:
// appending it commits the epoch; AppendPrepared appends it, and the next
// Sync makes it durable. The returned checkpoint is the log's own, valid
// until the next PrepareCheckpoint.
func (l *Log) PrepareCheckpoint(epoch uint64, m *meta.Machine) (*PendingCheckpoint, error) {
	pub := l.cfg.Public
	if pub == nil {
		return nil, errors.New("wal: checkpoint on a log built without public parameters")
	}
	full := l.untilFull == 0
	var dst []byte
	if !full {
		dst = l.deltaRec
	}
	rec, err := m.EncodeCheckpoint(dst, full, pub.CheckpointPad(), recordHead+checkpointHeaderSize, recordTail)
	if err != nil {
		return nil, err
	}
	if !full {
		l.deltaRec = rec
	}
	m.ClearDirty()
	rec[0] = l.checkpointKind()
	plain := rec[recordHead:]
	putHeader(plain, epoch)
	binary.BigEndian.PutUint32(plain[9:], uint32(l.cfg.Shard))
	binary.BigEndian.PutUint32(plain[13:], uint32(l.cfg.Shards))
	if full {
		l.untilFull = pub.FullCheckpointEvery() - 1
	} else {
		l.untilFull--
	}
	l.pending = PendingCheckpoint{epoch: epoch, full: full, rec: rec}
	return &l.pending, nil
}

// checkpointKind is the kind of checkpoint this log writes: committing on the
// coordinator's log, prepared on every other shard's.
func (l *Log) checkpointKind() byte {
	if l.cfg.Shard == 0 {
		return kindCheckpointCommitting
	}
	return kindCheckpoint
}

// AppendPrepared seals and appends a prepared checkpoint and returns whether
// it was a full checkpoint. Like AppendBatch's record it is durable once the
// next Sync returns, and the caller must Sync before treating it as durable
// (in the coordinator-commit protocol: a follower's before the coordinator's
// committing checkpoint may be written, the coordinator's before the epoch
// counts as committed — that Sync's return is the epoch's commit point). On a
// log stream shared with the records that depend on it, record order carries
// the same guarantee and one Sync covers them all. A log appends only the
// checkpoint it prepared itself, once: so only the coordinator's log writes a
// committing checkpoint.
func (l *Log) AppendPrepared(cp *PendingCheckpoint) (bool, error) {
	if cp != &l.pending || cp.rec == nil {
		return false, fmt.Errorf("wal: shard %d's log did not prepare this checkpoint, or appended it already", l.cfg.Shard)
	}
	if err := l.seal(cp.rec, &l.checkpointNonces); err != nil {
		return false, err
	}
	seq, err := l.appendStore(cp.rec)
	size := uint64(len(cp.rec))
	// The store has its own copy now: a full image is let go, not pinned
	// until the next checkpoint.
	cp.rec = nil
	if err != nil {
		return false, err
	}
	l.mu.Lock()
	l.noteAppendLocked(seq)
	l.checkpointBytes += size
	if cp.full {
		l.full = logMark{epoch: cp.epoch, seq: seq}
		l.lastFull = size
	} else {
		l.lastDelta = size
	}
	l.mu.Unlock()
	return cp.full, nil
}

// IsCommitRecord reports whether a raw log record is a committing
// checkpoint, the record whose durability commits its epoch. Record kinds are
// plaintext framing (their timing is public information); crash-injection
// tests use this to fail storage exactly at an epoch's commit point.
func IsCommitRecord(rec []byte) bool {
	return len(rec) > 0 && rec[0] == kindCheckpointCommitting
}

// Retire tells the log that every epoch up to and including epoch is durably
// committed on every shard — checkpoints, the coordinator's committing one
// among them, and the storage epoch commit — so nothing at or below it will
// ever be replayed. If a full checkpoint at or below epoch has been appended
// since the last cut, Retire issues exactly one store Truncate, at that
// checkpoint or at the first batch record of a later epoch, whichever comes
// first in the log; otherwise it touches nothing. The caller owns the
// ordering: on a non-coordinator shard the coordinator's commit of epoch must
// already be durable, because recovery with that floor needs the checkpoint
// the cut keeps at the head of the log.
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
	BytesRead int
	// PosEntries and PermBuckets count the position-map and bucket entries
	// of the checkpoints recovery will apply, padding included.
	PosEntries  int
	PermBuckets int
	PathEntries int
	// DecodePosPerm is the time spent authenticating, decrypting and
	// inspecting checkpoint records (their images are decoded into a client
	// by ringoram.Restore); DecodePaths the same plus entry decoding for
	// batch records.
	DecodePosPerm time.Duration
	DecodePaths   time.Duration
}

// Recovery is the reconstructed durable state after a crash.
type Recovery struct {
	// CommittedEpoch is the last committed epoch — the newest committing
	// checkpoint's, or the caller's floor if that is higher; the storage tree
	// must be rolled back to it.
	CommittedEpoch uint64
	// HasCommit reports whether the log holds a committing checkpoint at all.
	// A coordinator log without one is a first boot that died before its
	// baseline committed: nothing ever committed, and callers should
	// reinitialize instead of recovering "epoch 0".
	HasCommit bool
	// Full and Deltas are the checkpoint images that reconstruct the ORAM
	// client metadata: the newest committed full image and every committed
	// delta after it, in log order, ready for ringoram.Restore.
	Full   []byte
	Deltas [][]byte
	// AbortedBatches holds the logged read schedules of every epoch that
	// was still uncommitted when the proxy crashed, in log (= schedule)
	// order; recovery replays them. With the pipelined epoch boundary up to
	// two uncommitted epochs can be in flight at once: the sealed epoch
	// whose commit had not landed, and its successor that was already
	// issuing read batches.
	AbortedBatches [][]meta.LogEntry
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
// though this log's own committing checkpoints (a follower's log has none) say
// less. The cross-shard epoch coordinator relies on this: every shard's
// checkpoint for an epoch is durable before the coordinator appends its
// committing checkpoint (prepare precedes commit), so a follower recovers
// every prepared checkpoint up to the coordinator's decision and ignores the
// ones above it. A floor above this log's own commit requires the floor
// epoch's checkpoint to be present, otherwise recovery fails rather than
// silently resurrecting older state.
func (l *Log) RecoverWithFloor(floor uint64) (*Recovery, error) {
	recs, err := l.store.Scan(0)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.retained = uint64(len(recs))
	l.mu.Unlock()
	r := &Recovery{CommittedEpoch: floor}
	// Pass 1: open the committed checkpoints — every committing one, and the
	// prepared ones the floor covers — keeping the newest full image and the
	// deltas after it. Checkpoints sit in the log in epoch order, so the
	// committed epoch is known once the pass ends, not before.
	start := time.Now()
	haveFloorCp := false
	for i, rec := range recs {
		if len(rec) == 0 {
			return nil, fmt.Errorf("wal: empty record %d", i)
		}
		r.Stats.BytesRead += len(rec)
		if rec[0] != kindCheckpoint && rec[0] != kindCheckpointCommitting {
			continue
		}
		plain, err := l.open(rec, checkpointHeaderSize)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint record %d: %w", i, err)
		}
		epoch := headerEpoch(plain)
		shard, shards := int(binary.BigEndian.Uint32(plain[9:])), int(binary.BigEndian.Uint32(plain[13:]))
		if l.cfg.Shards != 0 && (shards != l.cfg.Shards || shard != l.cfg.Shard) {
			return nil, fmt.Errorf("wal: log belongs to shard %d of %d, configured as shard %d of %d — storage addresses reordered or shard count changed?",
				shard, shards, l.cfg.Shard, l.cfg.Shards)
		}
		if rec[0] == kindCheckpointCommitting {
			r.HasCommit = true
			r.CommittedEpoch = max(r.CommittedEpoch, epoch)
		} else if epoch > floor {
			continue // prepared for an epoch the coordinator never committed
		}
		if epoch == floor {
			haveFloorCp = true
		}
		image := plain[checkpointHeaderSize:]
		info, err := meta.InspectImage(image)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint record %d: %w", i, err)
		}
		switch {
		case info.Full:
			r.Full, r.Deltas = image, r.Deltas[:0]
			r.Stats.PosEntries, r.Stats.PermBuckets = 0, 0
		case r.Full == nil:
			continue // a delta with no full checkpoint under it
		default:
			r.Deltas = append(r.Deltas, image)
		}
		r.Stats.PosEntries += info.PosEntries
		r.Stats.PermBuckets += info.Buckets
	}
	if r.CommittedEpoch == floor && floor > 0 && !haveFloorCp {
		return nil, fmt.Errorf("wal: coordinator committed epoch %d but no local checkpoint for it", floor)
	}
	if r.Full == nil {
		return nil, ErrNoCheckpoint
	}
	r.Stats.DecodePosPerm = time.Since(start)

	// Pass 2: the read schedules of every epoch above the committed one — the
	// sealed-but-uncommitted epoch plus, under the pipelined boundary, its
	// successor's already-issued batches. Per-shard appends happen in schedule
	// order (a batch record is durable before its reads execute, and every
	// record of epoch e precedes epoch e+1's), so log order is replay order.
	start = time.Now()
	for i, rec := range recs {
		if rec[0] != kindBatch {
			continue
		}
		plain, err := l.open(rec, batchHeaderSize)
		if err != nil {
			return nil, fmt.Errorf("wal: batch record %d: %w", i, err)
		}
		epoch := headerEpoch(plain)
		if epoch <= r.CommittedEpoch {
			continue // batch of a committed (already durable) epoch
		}
		entries, err := meta.DecodeBatchLog(plain[batchHeaderSize:])
		if err != nil {
			return nil, fmt.Errorf("wal: batch record %d: %w", i, err)
		}
		r.AbortedBatches = append(r.AbortedBatches, entries)
		r.MaxAbortedEpoch = max(r.MaxAbortedEpoch, epoch)
		r.Stats.PathEntries += len(entries)
	}
	r.Stats.DecodePaths = time.Since(start)
	return r, nil
}
