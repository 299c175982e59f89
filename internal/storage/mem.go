package storage

import (
	"fmt"
	"sync"
)

// bucketVersion is one shadow-paged copy of a bucket: its slots back to back
// in one slab the store owns.
type bucketVersion struct {
	epoch  uint64
	data   []byte
	layout slotLayout
}

func (v bucketVersion) tag() uint64  { return v.epoch }
func (v bucketVersion) slab() []byte { return v.data }

// MemBackend is an in-memory Backend. It is the reference implementation that
// both the in-process benchmarks and the TCP storage server build on.
type MemBackend struct {
	mu        sync.RWMutex
	closed    bool
	buckets   [][]bucketVersion // per bucket: version stack, oldest first
	committed uint64
	slabs     slabs // the versions' bytes
	multi     []int // buckets holding more than one version
	kv        map[string][]byte

	log     [][]byte
	logBase uint64 // sequence number of log[0]

	fence fenceRegister // proxy-generation fencing (see Fenceable)
}

var (
	_ Backend     = (*MemBackend)(nil)
	_ readEncoder = (*MemBackend)(nil)
)

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
func (m *MemBackend) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(m, bucket, slot) }

func (m *MemBackend) readSlotLocked(bucket, slot int) ([]byte, error) {
	if err := checkBucket(bucket, len(m.buckets)); err != nil {
		return nil, err
	}
	vs := m.buckets[bucket]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: bucket %d never written", ErrNoSuchSlot, bucket)
	}
	v := &vs[len(vs)-1]
	if slot < 0 || slot >= v.layout.n {
		return nil, fmt.Errorf("%w: bucket %d slot %d (have %d)", ErrNoSuchSlot, bucket, slot, v.layout.n)
	}
	return v.layout.slotIn(v.data, slot, 0), nil
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
	v := &vs[len(vs)-1]
	return v.layout.split(v.data, 0), nil
}

// encodeSlots implements readEncoder.
func (m *MemBackend) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return dst, err
	}
	e := encoder{buf: dst}
	e.u32(uint32(len(refs)))
	for _, r := range refs {
		d, err := m.readSlotLocked(r.Bucket, r.Slot)
		if err != nil {
			return e.buf, err
		}
		e.bytes(d)
	}
	return e.buf, nil
}

// encodeBucket implements readEncoder.
func (m *MemBackend) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return dst, err
	}
	if err := checkBucket(bucket, len(m.buckets)); err != nil {
		return dst, err
	}
	e := encoder{buf: dst}
	vs := m.buckets[bucket]
	if len(vs) == 0 {
		e.u32(0)
		return e.buf, nil
	}
	v := &vs[len(vs)-1]
	e.u32(uint32(v.layout.n))
	for i := 0; i < v.layout.n; i++ {
		e.bytes(v.layout.slotIn(v.data, i, 0))
	}
	return e.buf, nil
}

// WriteBucket implements BucketStore.
func (m *MemBackend) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(m, bucket, epoch, slots)
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
	// Shadow-paging keeps version stacks epoch-ordered so RollbackTo can
	// pop from the top. The pipelined proxy may have two live epochs (the
	// sealed one flushing plus its successor) but flushes them in order; a
	// write that would bury a newer version is a pipelining bug. Writes
	// within the same epoch supersede each other in place: the proxy
	// deduplicates bucket writes, but recovery replay may rewrite a bucket.
	l := layoutOf(slots)
	v := bucketVersion{epoch: epoch, data: m.slabs.copySlots(slots, l), layout: l}
	var err error
	if m.multi, err = installVersion(&m.slabs, m.buckets, m.multi, bucket, v); err != nil {
		m.slabs.put(v.data)
	}
	return err
}

// CommitEpoch implements BucketStore. Superseded versions within the
// committed prefix are retired; only buckets holding more than one version
// have any, so a commit costs what the epochs since the last one wrote.
func (m *MemBackend) CommitEpoch(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if epoch > m.committed {
		m.committed = epoch
	}
	m.multi = commitVersions(&m.slabs, m.buckets, m.multi, m.committed)
	return nil
}

// RollbackTo implements BucketStore.
func (m *MemBackend) RollbackTo(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	m.multi = rollbackVersions(&m.slabs, m.buckets, m.multi, epoch)
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
