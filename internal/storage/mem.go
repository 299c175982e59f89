package storage

import "sync"

// MemBackend is an in-memory Backend: a handle on a shared in-memory store,
// plus a fence token. It is the reference implementation that both the
// in-process benchmarks and the TCP storage server build on.
type MemBackend struct {
	*memStore
	// token is the handle's proxy generation (see Fenceable): 0, never
	// fenced, for NewMemBackend's handle; AcquireFence's token for the
	// handle it returns.
	token uint64
	// released marks this handle closed (guarded by mu). Closing the raw
	// handle closes the store instead, under every handle.
	released bool
}

// memStore is what every handle on one in-memory store shares.
type memStore struct {
	mu     sync.RWMutex
	closed bool
	ix     versionIndex // the bucket tree; every version mirrored

	log     [][]byte
	logBase uint64 // sequence number of log[0]

	fence fenceRegister // proxy-generation fencing (see Fenceable)
}

var (
	_ Backend     = (*MemBackend)(nil)
	_ readEncoder = (*MemBackend)(nil)
)

// NewMemBackend creates a backend with numBuckets buckets, none of them
// written yet; the ORAM client initializes them explicitly. It returns the
// store's raw handle, whose token is 0.
func NewMemBackend(numBuckets int) *MemBackend {
	return &MemBackend{memStore: &memStore{
		ix:      newVersionIndex(numBuckets, 0),
		logBase: 1,
	}}
}

// checkOpen is every call's guard (mu held): ErrClosed once the store or
// this handle is closed.
func (m *MemBackend) checkOpen() error {
	if m.closed || m.released {
		return ErrClosed
	}
	return nil
}

// checkWrite is a mutation's guard (mu held): checkOpen, then ErrFenced
// once a newer AcquireFence has superseded the handle's token. Reads stay
// unfenced.
func (m *MemBackend) checkWrite() error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	return m.fence.check(m.token)
}

// ReadSlot implements BucketStore.
func (m *MemBackend) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(m, bucket, slot) }

// ReadSlots implements BucketStore: the whole vector is served under one
// lock acquisition, so it is atomic with respect to concurrent writes.
func (m *MemBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	return m.ix.readSlots(refs, nil)
}

// ReadBucket implements BucketStore.
func (m *MemBackend) ReadBucket(bucket int) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	return m.ix.readBucket(bucket, nil)
}

// encodeSlots implements readEncoder.
func (m *MemBackend) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return dst, err
	}
	return m.ix.encodeSlots(dst, refs, nil)
}

// encodeBucket implements readEncoder.
func (m *MemBackend) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return dst, err
	}
	return m.ix.encodeBucket(dst, bucket, nil)
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
	if err := m.checkWrite(); err != nil {
		return err
	}
	for _, w := range writes {
		if err := m.ix.write(w.Bucket, version{epoch: w.Epoch, layout: layoutOf(w.Slots)}, w.Slots); err != nil {
			return err
		}
	}
	return nil
}

// CommitEpoch implements BucketStore.
func (m *MemBackend) CommitEpoch(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkWrite(); err != nil {
		return err
	}
	m.ix.commit(epoch)
	return nil
}

// RollbackTo implements BucketStore.
func (m *MemBackend) RollbackTo(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkWrite(); err != nil {
		return err
	}
	m.ix.rollback(epoch)
	return nil
}

// NumBuckets implements BucketStore.
func (m *MemBackend) NumBuckets() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return 0, err
	}
	return len(m.ix.buckets), nil
}

// CommittedEpoch reports the highest committed epoch. Test helper.
func (m *MemBackend) CommittedEpoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ix.committed
}

// VersionCount reports how many shadow versions a bucket currently holds.
// Test helper.
func (m *MemBackend) VersionCount(bucket int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ix.count(bucket)
}

// Get, Put and Delete implement KVStore: the store keeps no namespace.
func (m *MemBackend) Get(string) ([]byte, bool, error) { return nil, false, m.noKV() }
func (m *MemBackend) Put(string, []byte) error         { return m.noKV() }
func (m *MemBackend) Delete(string) error              { return m.noKV() }

func (m *MemBackend) noKV() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	return ErrNoKV
}

// Append implements LogStore.
func (m *MemBackend) Append(record []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkWrite(); err != nil {
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
	if err := m.checkWrite(); err != nil {
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

// Close implements Backend. The raw handle's Close closes the store; a
// fence handle's closes that handle only: the fenced-out generation tearing
// itself down must not take the store away from the generation that owns it.
func (m *MemBackend) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.token == 0 {
		m.closed = true
	} else {
		m.released = true
	}
	return nil
}
