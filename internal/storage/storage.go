// Package storage implements Obladi's untrusted cloud-storage substrate.
//
// The storage server is honest-but-curious: it stores two things, the
// encrypted Ring ORAM bucket tree and the recovery unit's write-ahead log,
// and nothing else (the non-private NoPriv and TwoPL baselines keep their
// key-value namespace in internal/baseline). Buckets are
// shadow-paged (§8 of the paper): every write installs a new version tagged
// with the epoch that produced it, so the proxy can revert the whole tree to
// the last committed epoch after a crash simply by discarding newer versions.
// Every store keeps them in one version index (versionIndex). The durable
// store (DiskGroup) keeps every byte on one physical log, the index
// included: an open replays it from the log's records, and the log drops a
// segment only once a maintenance pass has raised every heap's retention
// floor past it, behind a barrier.
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
	// handle whose generation has been superseded (see Fenceable): a newer
	// proxy generation owns the store, and the older generation must
	// fail-stop rather than corrupt the log or bucket tree it no longer owns.
	ErrFenced = errors.New("storage: fenced: a newer proxy generation owns this store")
	// ErrNoKV is every store's answer to a KVStore call: no store keeps a
	// key-value namespace. It also refuses a data dir holding one an older
	// disk store wrote. It goes with KVStore (see there).
	ErrNoKV = errors.New("storage: this store keeps no key-value namespace")
)

// SlotRef addresses one physical slot of a bucket for a vectored read, and
// says where the caller wants its bytes.
type SlotRef struct {
	Bucket int
	Slot   int
	// Into is the slot's destination, nil for none: a store copies the slot
	// into Into when its capacity holds it, and answers with Into's view of
	// it (see BucketStore's read contract).
	Into []byte
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
// the newest version's count is ErrNoSuchSlot. A version's slots all have one
// length — the ORAM's public frame length — and a store refuses a write of a
// bucket whose slots differ (a durable store refuses such a record at replay
// as damaged), and indexes a version as its slot count and that length. The
// server never interprets slot contents.
//
// Writes: a store must not retain the caller's slices — it copies what it
// keeps, and the caller may reuse every slot and the vector once the call
// returns. Reads: every store copies each slot of ReadSlots out — a
// MemBackend out of its slabs and a LogHeap out of its log, under the store's
// read lock, a remote Client out of its reply frame — into the ref's Into
// when its capacity holds the slot, and returns Into's view of it; a ref
// without one, or with one too short, gets a copy in one exact-length buffer
// the call allocates for all such refs. So no result is the store's own bytes: what the call
// returns is the caller's, a destination until the caller next uses it, the
// call's buffer for good, and a later write, commit or rollback changes
// neither. The result vector itself is the caller's to keep too: every store
// carves it from chunks it never reuses (slab.Slices), so no later call
// writes it. Every store's ReadBucket returns a copy the caller keeps. The
// storage server reads through ReadSlots too, into its reply frame (Server).
type BucketStore interface {
	// ReadSlot is ReadSlots of the one ref (every store answers it through
	// readSlot).
	ReadSlot(bucket, slot int) ([]byte, error)

	// ReadSlots performs a vectored read: one storage call returning the
	// requested slots of each bucket's newest version in ref order
	// (result[i] answers refs[i], in refs[i].Into when it holds the slot: see
	// above). The whole vector fails atomically at the call level — a single
	// bad ref errors the call (no partial results); what a failed call left
	// in the destinations is unspecified.
	ReadSlots(refs []SlotRef) ([][]byte, error)

	// WriteBuckets performs a vectored write-back: every bucket write of a
	// stage (typically one sealed epoch's deduplicated write-back set) in
	// one storage call, each installing a new version of its bucket tagged
	// with its epoch, whose slots must share one length. The store copies the
	// slots it keeps. Per bucket,
	// writes arrive in non-decreasing epoch order: the pipelined proxy keeps
	// at most two live (uncommitted) epochs — the sealed epoch a background
	// committer is flushing and its successor — and flushes them in epoch
	// order, so a lower-epoch write after a higher-epoch one can only be a
	// pipelining bug and implementations may reject it. Writes are installed
	// in vector order and the call stops at the first failing entry, so a
	// mid-vector error may leave a prefix installed (shadow paging makes
	// that harmless: RollbackTo discards it). A remote store's server
	// installs every vector a group of buckets at a time as its frame
	// arrives (Server), so a frame refused or torn mid-vector may leave a
	// prefix of the buckets that arrived whole installed but uncommitted:
	// the state a crash between two WriteBuckets calls leaves.
	WriteBuckets(writes []BucketWrite) error

	// ReadBucket returns all slots of the newest version of the bucket.
	ReadBucket(bucket int) ([][]byte, error)

	// WriteBucket is WriteBuckets of the one bucket (every store answers it
	// through writeBucket).
	WriteBucket(bucket int, epoch uint64, slots [][]byte) error

	// CommitEpoch makes every version tagged <= epoch durable and allows the
	// store to retire versions that are superseded within the committed
	// prefix. A commit at or below the committed epoch retires nothing.
	CommitEpoch(epoch uint64) error

	// RollbackTo discards all bucket versions tagged with an epoch > epoch.
	// It implements crash recovery's shadow-paging revert.
	RollbackTo(epoch uint64) error

	// NumBuckets reports the size of the tree.
	NumBuckets() (int, error)
}

// KVStore is the plain (non-oblivious) key-value namespace the NoPriv and
// TwoPL baselines once kept in storage; they keep their own now
// (internal/baseline), and Obladi never calls it. No store keeps one: every
// Backend answers each call with ErrNoKV, or with the error it answers every
// call with once closed (ErrClosed, or a wedged group log's error), and the
// wire carries no KV op. It remains only because the benchmark's storage
// meter forwards these three calls and compiles against Backend; it goes
// with that meter's next change (ROADMAP item 3(a)).
type KVStore interface {
	Get(key string) (value []byte, found bool, err error)
	Put(key string, value []byte) error
	Delete(key string) error
}

// LogStore is the recovery unit: an append-only, durable record log.
// Sequence numbers start at 1 and increase by one per Append.
type LogStore interface {
	// Append adds record to the log. The store keeps its own copy: once
	// Append returns, the caller may write record's bytes again (the
	// recovery log reuses one buffer for every record of a kind), and what
	// Scan returns is unchanged by it.
	Append(record []byte) (seq uint64, err error)
	// Scan returns all records with sequence number >= from, in order.
	Scan(from uint64) ([][]byte, error)
	// Truncate drops all records with sequence number < before.
	Truncate(before uint64) error
	LastSeq() (uint64, error)
}

// Backend is the full untrusted storage service: the ORAM tree and the
// recovery unit. It still embeds KVStore, which every store refuses, only
// until ROADMAP item 3(a) changes the benchmark meter that forwards it.
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
	// AppendNoSync keeps its own copy of record, as Append does.
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
// stream) may implement this — a store whose commit record lay in another
// file must not, since deferring would let that commit become durable first.
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

// Fenceable is an optional Backend capability for proxy-generation fencing:
// what lets a promoted standby (internal/replica) revoke a primary that may
// still be running. AcquireFence registers a new proxy generation with the
// store: the returned token is strictly greater than every token issued
// before, and the returned handle is bound to it: another MemBackend on the
// same store, or the Client whose connection the server bound it to.
// Mutating operations (bucket writes, epoch commit/rollback, log
// append/truncate) issued through a handle whose token has been
// superseded fail with ErrFenced; reads stay unfenced (the store is untrusted
// and readable by anyone holding the wire anyway).
//
// The contract is the standard fencing one: an operation concurrent with an
// AcquireFence may be admitted as if it preceded the acquisition, but every
// mutating operation STARTED after AcquireFence returns on a stale handle
// fails. A promoted standby therefore acquires its fence first and only then
// recovers — its log scan observes anything a zombie primary slipped in
// before the fence, and anything after it fails loudly (the proxy
// fail-stops on any boundary error).
//
// Backends without the capability (a DiskGroup's shards opened in-process)
// simply do not fence; the remote Server fences at the wire for whatever
// backend it serves, which covers every multi-proxy deployment.
type Fenceable interface {
	AcquireFence() (view Backend, token uint64, err error)
}

// readSlot is every store's ReadSlot: a vectored read of the one ref, so a
// scalar call costs, records and fails exactly as that vector does.
func readSlot(s BucketStore, bucket, slot int) ([]byte, error) {
	out, err := s.ReadSlots([]SlotRef{{Bucket: bucket, Slot: slot}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// into is the destination of ref's slot when it is n bytes long: a view of
// Into when its capacity holds the slot, nil when it does not.
func (r *SlotRef) into(n int) []byte {
	if r.Into == nil || cap(r.Into) < n {
		return nil
	}
	return r.Into[:n:n]
}

// writeBucket is every store's WriteBucket: a vectored write of the one
// bucket.
func writeBucket(s BucketStore, bucket int, epoch uint64, slots [][]byte) error {
	return s.WriteBuckets([]BucketWrite{{Bucket: bucket, Epoch: epoch, Slots: slots}})
}

func checkBucket(bucket, n int) error {
	if bucket < 0 || bucket >= n {
		return fmt.Errorf("%w: %d (have %d)", ErrNoSuchBucket, bucket, n)
	}
	return nil
}

// FenceAll acquires a new proxy generation on every Fenceable backend of a
// sharded deployment and returns the handles to run through; a backend without
// the capability is returned as is. Any failure is returned: falling back to
// the raw handle, whose token is 0, would leave a proxy no later generation
// can revoke.
func FenceAll(backends []Backend) ([]Backend, error) {
	out := make([]Backend, len(backends))
	for i, b := range backends {
		out[i] = b
		if f, ok := b.(Fenceable); ok {
			view, _, err := f.AcquireFence()
			if err != nil {
				return nil, fmt.Errorf("storage: fencing shard %d: %w", i, err)
			}
			out[i] = view
		}
	}
	return out, nil
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
