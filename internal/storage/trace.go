package storage

import (
	"fmt"
	"sync"
)

// Op identifies a storage operation kind in a recorded trace.
type Op uint8

// Trace operation kinds.
const (
	OpReadSlot Op = iota
	OpReadBucket
	OpWriteBucket
	OpCommit
	OpRollback
)

func (o Op) String() string {
	switch o {
	case OpReadSlot:
		return "read-slot"
	case OpReadBucket:
		return "read-bucket"
	case OpWriteBucket:
		return "write-bucket"
	case OpCommit:
		return "commit"
	case OpRollback:
		return "rollback"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one adversary-visible storage access.
type Event struct {
	Op     Op
	Bucket int
	Slot   int
	Epoch  uint64
}

// CallStats counts actual backend invocations (wire ops on a remote
// deployment), as opposed to the per-slot events of the trace. Vectored
// calls count once however many items they carry — this is the measurement
// behind the "one storage call per stage" batching guarantee. A ReadSlot or
// WriteBucket is a vector of one and counts as one.
type CallStats struct {
	ReadSlots    int // slot reads
	ReadBucket   int
	WriteBuckets int // bucket write-backs
	Commit       int
	Rollback     int
}

// Recorder wraps a Backend and records the adversary-visible bucket access
// trace. It is the measurement device behind the workload-independence tests:
// two executions are indistinguishable to the honest-but-curious server
// exactly when their recorded traces have the same shape. Vectored calls are
// expanded into per-slot / per-bucket events in vector order, so however a
// plan is split into calls it records the same trace (vectoring changes the
// framing, not which versions of which slots are touched); the call-level
// difference is visible through Calls.
type Recorder struct {
	Backend
	mu     sync.Mutex
	events []Event
	calls  CallStats
}

// NewRecorder wraps inner.
func NewRecorder(inner Backend) *Recorder {
	return &Recorder{Backend: inner}
}

// Events returns a copy of the recorded trace.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Calls returns the backend-invocation counters.
func (r *Recorder) Calls() CallStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// Reset clears the trace and the call counters.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.calls = CallStats{}
	r.mu.Unlock()
}

func (r *Recorder) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(r, bucket, slot) }

func (r *Recorder) ReadSlots(refs []SlotRef) ([][]byte, error) {
	r.mu.Lock()
	r.calls.ReadSlots++
	for _, ref := range refs {
		r.events = append(r.events, Event{Op: OpReadSlot, Bucket: ref.Bucket, Slot: ref.Slot})
	}
	r.mu.Unlock()
	return r.Backend.ReadSlots(refs)
}

func (r *Recorder) ReadBucket(bucket int) ([][]byte, error) {
	r.mu.Lock()
	r.calls.ReadBucket++
	r.events = append(r.events, Event{Op: OpReadBucket, Bucket: bucket})
	r.mu.Unlock()
	return r.Backend.ReadBucket(bucket)
}

func (r *Recorder) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(r, bucket, epoch, slots)
}

func (r *Recorder) WriteBuckets(writes []BucketWrite) error {
	r.mu.Lock()
	r.calls.WriteBuckets++
	for _, w := range writes {
		r.events = append(r.events, Event{Op: OpWriteBucket, Bucket: w.Bucket, Epoch: w.Epoch})
	}
	r.mu.Unlock()
	return r.Backend.WriteBuckets(writes)
}

func (r *Recorder) CommitEpoch(epoch uint64) error {
	r.mu.Lock()
	r.calls.Commit++
	r.events = append(r.events, Event{Op: OpCommit, Epoch: epoch})
	r.mu.Unlock()
	return r.Backend.CommitEpoch(epoch)
}

func (r *Recorder) RollbackTo(epoch uint64) error {
	r.mu.Lock()
	r.calls.Rollback++
	r.events = append(r.events, Event{Op: OpRollback, Epoch: epoch})
	r.mu.Unlock()
	return r.Backend.RollbackTo(epoch)
}

// InvariantChecker wraps a Backend and enforces Ring ORAM's bucket invariant
// from the server's point of view: between two writes of a bucket, no slot of
// that bucket may be read twice. A violation would let the adversary
// distinguish real from dummy accesses; the ORAM client must never produce
// one.
type InvariantChecker struct {
	Backend
	mu        sync.Mutex
	readSlots map[int]map[int]bool // bucket -> slots read since last write
	violation error
}

// NewInvariantChecker wraps inner.
func NewInvariantChecker(inner Backend) *InvariantChecker {
	return &InvariantChecker{
		Backend:   inner,
		readSlots: make(map[int]map[int]bool),
	}
}

// Violation returns the first recorded invariant violation, or nil.
func (c *InvariantChecker) Violation() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violation
}

func (c *InvariantChecker) checkReadLocked(bucket, slot int) {
	set := c.readSlots[bucket]
	if set == nil {
		set = make(map[int]bool)
		c.readSlots[bucket] = set
	}
	if set[slot] && c.violation == nil {
		c.violation = fmt.Errorf("storage: bucket invariant violated: bucket %d slot %d read twice between writes", bucket, slot)
	}
	set[slot] = true
}

func (c *InvariantChecker) ReadSlot(bucket, slot int) ([]byte, error) {
	return readSlot(c, bucket, slot)
}

// ReadSlots applies the per-slot invariant to every ref: packing reads into
// one frame changes nothing about what the adversary sees touched.
func (c *InvariantChecker) ReadSlots(refs []SlotRef) ([][]byte, error) {
	c.mu.Lock()
	for _, r := range refs {
		c.checkReadLocked(r.Bucket, r.Slot)
	}
	c.mu.Unlock()
	return c.Backend.ReadSlots(refs)
}

func (c *InvariantChecker) ReadBucket(bucket int) ([][]byte, error) {
	// No product path reads a whole bucket (recovery's load uses
	// ReadSlots); a full-bucket read stands for a rewrite of the bucket, so
	// it resets the bucket's read-set like a write does.
	c.mu.Lock()
	delete(c.readSlots, bucket)
	c.mu.Unlock()
	return c.Backend.ReadBucket(bucket)
}

func (c *InvariantChecker) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(c, bucket, epoch, slots)
}

// WriteBuckets resets the read-set of every written bucket.
func (c *InvariantChecker) WriteBuckets(writes []BucketWrite) error {
	c.mu.Lock()
	for _, w := range writes {
		delete(c.readSlots, w.Bucket)
	}
	c.mu.Unlock()
	return c.Backend.WriteBuckets(writes)
}

func (c *InvariantChecker) RollbackTo(epoch uint64) error {
	// A rollback reverts buckets to their last committed contents; the slot
	// read-sets restart (the recovery protocol re-reads logged paths, which
	// the adversary has already seen, against restored bucket versions).
	c.mu.Lock()
	c.readSlots = make(map[int]map[int]bool)
	c.mu.Unlock()
	return c.Backend.RollbackTo(epoch)
}
