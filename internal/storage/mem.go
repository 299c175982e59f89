package storage

import (
	"fmt"
	"sync"
)

// bucketVersion is one shadow-paged copy of a bucket.
type bucketVersion struct {
	epoch uint64
	slots [][]byte
}

// MemBackend is an in-memory Backend. It is the reference implementation that
// both the in-process benchmarks and the TCP storage server build on.
type MemBackend struct {
	mu        sync.RWMutex
	closed    bool
	buckets   [][]bucketVersion // per bucket: version stack, oldest first
	committed uint64

	kv map[string][]byte

	log     [][]byte
	logBase uint64 // sequence number of log[0]

	fence fenceRegister // proxy-generation fencing (see Fenceable)
}

var _ Backend = (*MemBackend)(nil)

// NewMemBackend creates a backend with numBuckets empty buckets. Buckets start
// with a single version (epoch 0) of nil slots; the ORAM client initializes
// them explicitly.
func NewMemBackend(numBuckets int) *MemBackend {
	b := &MemBackend{
		buckets: make([][]bucketVersion, numBuckets),
		kv:      make(map[string][]byte),
		logBase: 1,
	}
	return b
}

func (m *MemBackend) checkOpen() error {
	if m.closed {
		return ErrClosed
	}
	return nil
}

// ReadSlot implements BucketStore.
func (m *MemBackend) ReadSlot(bucket, slot int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	return m.readSlotLocked(bucket, slot)
}

func (m *MemBackend) readSlotLocked(bucket, slot int) ([]byte, error) {
	if err := checkBucket(bucket, len(m.buckets)); err != nil {
		return nil, err
	}
	vs := m.buckets[bucket]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: bucket %d never written", ErrNoSuchSlot, bucket)
	}
	slots := vs[len(vs)-1].slots
	if slot < 0 || slot >= len(slots) {
		return nil, fmt.Errorf("%w: bucket %d slot %d (have %d)", ErrNoSuchSlot, bucket, slot, len(slots))
	}
	return slots[slot], nil
}

// ReadSlots implements BucketStore: the whole vector is served under one
// lock acquisition, so it is atomic with respect to concurrent writes.
func (m *MemBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(refs))
	for i, r := range refs {
		d, err := m.readSlotLocked(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// ReadBucket implements BucketStore.
func (m *MemBackend) ReadBucket(bucket int) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	if err := checkBucket(bucket, len(m.buckets)); err != nil {
		return nil, err
	}
	vs := m.buckets[bucket]
	if len(vs) == 0 {
		return nil, nil
	}
	return vs[len(vs)-1].slots, nil
}

// WriteBucket implements BucketStore.
func (m *MemBackend) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	return m.writeBucketLocked(bucket, epoch, slots)
}

// WriteBuckets implements BucketStore: the whole vector installs under one
// lock acquisition, in vector order.
func (m *MemBackend) WriteBuckets(writes []BucketWrite) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	for _, w := range writes {
		if err := m.writeBucketLocked(w.Bucket, w.Epoch, w.Slots); err != nil {
			return err
		}
	}
	return nil
}

func (m *MemBackend) writeBucketLocked(bucket int, epoch uint64, slots [][]byte) error {
	if err := checkBucket(bucket, len(m.buckets)); err != nil {
		return err
	}
	vs := m.buckets[bucket]
	// Writes within the same epoch supersede each other in place: the proxy
	// deduplicates bucket writes, but recovery replay may rewrite a bucket.
	if n := len(vs); n > 0 && vs[n-1].epoch == epoch {
		vs[n-1].slots = slots
		return nil
	}
	// Shadow-paging keeps version stacks epoch-ordered so RollbackTo can
	// pop from the top. The pipelined proxy may have two live epochs (the
	// sealed one flushing plus its successor) but flushes them in order; a
	// write that would bury a newer version is a pipelining bug.
	if n := len(vs); n > 0 && vs[n-1].epoch > epoch {
		return fmt.Errorf("storage: bucket %d write for epoch %d after epoch %d already written (out-of-order shadow-page write)", bucket, epoch, vs[n-1].epoch)
	}
	m.buckets[bucket] = append(vs, bucketVersion{epoch: epoch, slots: slots})
	return nil
}

// CommitEpoch implements BucketStore. Superseded versions within the
// committed prefix are garbage-collected.
func (m *MemBackend) CommitEpoch(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if epoch > m.committed {
		m.committed = epoch
	}
	for i, vs := range m.buckets {
		// Find the newest version with epoch <= committed; drop older ones.
		keep := -1
		for j := len(vs) - 1; j >= 0; j-- {
			if vs[j].epoch <= m.committed {
				keep = j
				break
			}
		}
		if keep > 0 {
			m.buckets[i] = append(vs[:0], vs[keep:]...)
		}
	}
	return nil
}

// RollbackTo implements BucketStore.
func (m *MemBackend) RollbackTo(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	for i, vs := range m.buckets {
		n := len(vs)
		for n > 0 && vs[n-1].epoch > epoch {
			n--
		}
		m.buckets[i] = vs[:n]
	}
	if m.committed > epoch {
		m.committed = epoch
	}
	return nil
}

// NumBuckets implements BucketStore.
func (m *MemBackend) NumBuckets() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return 0, err
	}
	return len(m.buckets), nil
}

// CommittedEpoch reports the highest committed epoch. Test helper.
func (m *MemBackend) CommittedEpoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.committed
}

// VersionCount reports how many shadow versions a bucket currently holds.
// Test helper.
func (m *MemBackend) VersionCount(bucket int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if bucket < 0 || bucket >= len(m.buckets) {
		return 0
	}
	return len(m.buckets[bucket])
}

// Get implements KVStore.
func (m *MemBackend) Get(key string) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, false, err
	}
	v, ok := m.kv[key]
	return v, ok, nil
}

// Put implements KVStore.
func (m *MemBackend) Put(key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	m.kv[key] = value
	return nil
}

// Delete implements KVStore.
func (m *MemBackend) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	delete(m.kv, key)
	return nil
}

// Append implements LogStore.
func (m *MemBackend) Append(record []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return 0, err
	}
	m.log = append(m.log, record)
	return m.logBase + uint64(len(m.log)) - 1, nil
}

// Scan implements LogStore.
func (m *MemBackend) Scan(from uint64) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	if from < m.logBase {
		from = m.logBase
	}
	if from-m.logBase >= uint64(len(m.log)) {
		return nil, nil
	}
	idx := int(from - m.logBase)
	out := make([][]byte, len(m.log)-idx)
	copy(out, m.log[idx:])
	return out, nil
}

// Truncate implements LogStore.
func (m *MemBackend) Truncate(before uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if before <= m.logBase {
		return nil
	}
	drop := before - m.logBase
	if drop > uint64(len(m.log)) {
		drop = uint64(len(m.log))
	}
	m.log = append([][]byte(nil), m.log[drop:]...)
	m.logBase += drop
	return nil
}

// LastSeq implements LogStore.
func (m *MemBackend) LastSeq() (uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return 0, err
	}
	return m.logBase + uint64(len(m.log)) - 1, nil
}

// Close implements Backend.
func (m *MemBackend) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// DummyBackend responds to every slot read with a static value and ignores
// writes; it is the "dummy" backend of Figure 10, used to measure proxy CPU
// costs with zero storage cost. Log and KV operations are served from memory
// so durability code paths still function.
type DummyBackend struct {
	*MemBackend
	static []byte
}

// NewDummyBackend creates a dummy backend whose slot reads return a static
// slot of the given size.
func NewDummyBackend(numBuckets, slotSize int) *DummyBackend {
	return &DummyBackend{
		MemBackend: NewMemBackend(numBuckets),
		static:     make([]byte, slotSize),
	}
}

// ReadSlot returns the static slot regardless of location.
func (d *DummyBackend) ReadSlot(bucket, slot int) ([]byte, error) {
	return d.static, nil
}

// ReadSlots returns the static slot for every ref.
func (d *DummyBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i := range out {
		out[i] = d.static
	}
	return out, nil
}

// ReadBucket returns nil: dummy buckets have no recoverable contents.
func (d *DummyBackend) ReadBucket(bucket int) ([][]byte, error) {
	return nil, nil
}

// WriteBucket discards the write.
func (d *DummyBackend) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return nil
}

// WriteBuckets discards the writes.
func (d *DummyBackend) WriteBuckets(writes []BucketWrite) error {
	return nil
}
