// Package storage implements Obladi's untrusted cloud-storage substrate.
//
// The storage server is honest-but-curious: it stores encrypted ORAM buckets,
// a plain key-value namespace (used only by the non-private NoPriv baseline),
// and the recovery unit's write-ahead log. Buckets are shadow-paged (§8 of the
// paper): every write installs a new version tagged with the epoch that
// produced it, so the proxy can revert the whole tree to the last committed
// epoch after a crash simply by discarding newer versions.
//
// The package also provides the latency-profile wrappers used throughout the
// paper's evaluation (dummy / server / server WAN / dynamo), a trace recorder,
// and an invariant checker that enforces Ring ORAM's bucket invariant from the
// adversary's vantage point.
package storage

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	// ErrNoSuchBucket is returned for out-of-range bucket indices.
	ErrNoSuchBucket = errors.New("storage: no such bucket")
	// ErrNoSuchSlot is returned for out-of-range slot indices.
	ErrNoSuchSlot = errors.New("storage: no such slot")
	// ErrClosed is returned by operations on a closed backend.
	ErrClosed = errors.New("storage: backend closed")
	// ErrFenced is returned for mutating operations issued through a fence
	// view whose generation has been superseded (see Fenceable): a newer
	// proxy generation owns the store, and the older generation must
	// fail-stop rather than corrupt the log or bucket tree it no longer owns.
	ErrFenced = errors.New("storage: fenced: a newer proxy generation owns this store")
)

// SlotRef addresses one physical slot of a bucket for a vectored read.
type SlotRef struct {
	Bucket int
	Slot   int
}

// BucketWrite is one bucket of a vectored write-back: a new version of the
// bucket tagged with the epoch that produced it.
type BucketWrite struct {
	Bucket int
	Epoch  uint64
	Slots  [][]byte
}

// BucketStore is the shadow-paged ORAM bucket tree.
//
// Buckets are addressed 0..NumBuckets()-1 in heap order (0 is the root). A
// bucket version holds however many encrypted slots its writer gave it: the
// count is per version, not per store or per bucket (the executor writes the
// upper levels' buckets without their dummies), and a slot index at or past
// the newest version's count is ErrNoSuchSlot. The server never interprets
// slot contents.
type BucketStore interface {
	// ReadSlot returns the requested slot of the newest version of the
	// bucket. The returned slice must not be modified by the caller.
	ReadSlot(bucket, slot int) ([]byte, error)

	// ReadSlots performs a vectored read: one storage call returning the
	// requested slots in ref order (result[i] answers refs[i]). The whole
	// vector fails atomically at the call level — a single bad ref errors
	// the call (no partial results). The returned slices must not be
	// modified by the caller.
	ReadSlots(refs []SlotRef) ([][]byte, error)

	// WriteBuckets performs a vectored write-back: every bucket write of a
	// stage (typically one sealed epoch's deduplicated write-back set) in
	// one storage call. The store takes ownership of the slot slices. The
	// same per-bucket epoch-ordering rules as WriteBucket apply; writes are
	// installed in vector order and the call stops at the first failing
	// entry, so a mid-vector error may leave a prefix installed (shadow
	// paging makes that harmless: RollbackTo discards it).
	WriteBuckets(writes []BucketWrite) error

	// ReadBucket returns all slots of the newest version of the bucket.
	ReadBucket(bucket int) ([][]byte, error)

	// WriteBucket installs a new version of the bucket tagged with epoch.
	// The store takes ownership of the slot slices. Per bucket, writes
	// arrive in non-decreasing epoch order: the pipelined proxy keeps at
	// most two live (uncommitted) epochs — the sealed epoch a background
	// committer is flushing and its successor — and flushes them in epoch
	// order, so a lower-epoch write after a higher-epoch one can only be a
	// pipelining bug and implementations may reject it.
	WriteBucket(bucket int, epoch uint64, slots [][]byte) error

	// CommitEpoch makes every version tagged <= epoch durable and allows the
	// store to garbage-collect versions that are superseded within the
	// committed prefix.
	CommitEpoch(epoch uint64) error

	// RollbackTo discards all bucket versions tagged with an epoch > epoch.
	// It implements crash recovery's shadow-paging revert.
	RollbackTo(epoch uint64) error

	// NumBuckets reports the size of the tree.
	NumBuckets() (int, error)
}

// KVStore is the plain (non-oblivious) key-value namespace used by the
// NoPriv baseline. Obladi itself never calls it.
type KVStore interface {
	Get(key string) (value []byte, found bool, err error)
	Put(key string, value []byte) error
	Delete(key string) error
}

// LogStore is the recovery unit: an append-only, durable record log.
// Sequence numbers start at 1 and increase by one per Append.
type LogStore interface {
	Append(record []byte) (seq uint64, err error)
	// Scan returns all records with sequence number >= from, in order.
	Scan(from uint64) ([][]byte, error)
	// Truncate drops all records with sequence number < before.
	Truncate(before uint64) error
	LastSeq() (uint64, error)
}

// Backend is the full untrusted storage service: ORAM tree + recovery unit +
// baseline KV namespace.
type Backend interface {
	BucketStore
	KVStore
	LogStore
	Close() error
}

// LogBatcher is an optional LogStore capability that splits an append from
// its durability barrier: AppendNoSync writes the record without waiting for
// a flush, and a later SyncLog makes every deferred append durable at once.
// The point is barrier placement — a caller appending several records (or
// several shards appending into one shared physical log) can stand them all
// on ONE flush instead of paying one per record. A record's sequence number
// is assigned at append time, but the LogStore ack contract (an acknowledged
// record survives any crash) transfers to SyncLog's return.
//
// Stores without this capability simply keep Append's inline durability;
// callers probe with a type assertion and fall back.
type LogBatcher interface {
	AppendNoSync(record []byte) (seq uint64, err error)
	SyncLog() error
}

// EpochCommitBatcher is an optional BucketStore capability for stores whose
// epoch commit is a log record on the SAME append stream as the recovery
// log (the log-structured heap): CommitEpochNoSync appends and applies the
// commit but leaves its durability to the caller's next SyncLog, so N
// shards' epoch commits and the round's WAL records all stand on ONE fsync
// wave. Only stores that can guarantee the commit record is ordered AFTER
// the WAL's committing checkpoint it depends on (prefix durability in one
// stream) may implement this — a store with a separate heap file must not,
// since deferring would let the heap commit become durable first.
//
// Callers probe with a type assertion and fall back to CommitEpoch's
// inline barrier.
type EpochCommitBatcher interface {
	CommitEpochNoSync(epoch uint64) error
	// CommitStream identifies the physical append stream the store's commit
	// records ride (comparable; same value ⟺ same stream). A sharded caller
	// must verify every shard reports the SAME stream before deferring the
	// round's barriers: the prefix durability that orders a shard's heap
	// commit after the coordinator's committing checkpoint only exists within
	// one physical log. Shards on distinct streams fall back to inline
	// commits, where explicit barrier order supplies the same guarantee.
	CommitStream() any
}

// Fenceable is an optional Backend capability for proxy-generation fencing,
// the storage half of hot-standby failover (internal/replica). AcquireFence
// registers a new proxy generation with the store: the returned token is
// strictly greater than every token issued before, and the returned view is
// bound to it. Mutating operations (bucket writes, epoch commit/rollback, log
// append/truncate, KV writes) issued through a view whose token has been
// superseded fail with ErrFenced; reads stay unfenced (the store is untrusted
// and readable by anyone holding the wire anyway).
//
// The contract is the standard fencing one: an operation concurrent with an
// AcquireFence may be admitted as if it preceded the acquisition, but every
// mutating operation STARTED after AcquireFence returns on a stale view
// fails. A promoted standby therefore acquires its fence first and only then
// reads the log tail and rolls the tree back — anything a zombie primary
// slipped in before the fence is observed by that scan, and anything after
// it fails loudly (the proxy fail-stops on any boundary error).
//
// Backends without the capability (plain disk dirs opened in-process) simply
// do not fence; the remote Server fences at the wire for whatever backend it
// serves, which covers every multi-proxy deployment.
type Fenceable interface {
	AcquireFence() (view Backend, token uint64, err error)
}

func checkBucket(bucket, n int) error {
	if bucket < 0 || bucket >= n {
		return fmt.Errorf("%w: %d (have %d)", ErrNoSuchBucket, bucket, n)
	}
	return nil
}

// CloseAll closes every backend of a sharded deployment, returning the first
// error encountered.
func CloseAll(backends []Backend) error {
	var first error
	for _, b := range backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
