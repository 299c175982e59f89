package storage

import "sync"

// fenceRegister is the generation counter behind Fenceable: acquire bumps it
// and returns the new token, check compares a view's token against the
// highest issued. One register guards one store (a MemBackend, or one served
// backend inside a remote Server).
type fenceRegister struct {
	mu      sync.Mutex
	highest uint64
}

// acquire issues the next fence token. Tokens are strictly increasing, so
// each acquisition fences every view issued before it — two proxies racing a
// promotion cannot end up with equal tokens.
func (r *fenceRegister) acquire() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.highest++
	return r.highest
}

// check reports ErrFenced when token has been superseded. Token 0 means "not
// a fence view" and always passes: deployments that never fence keep working.
func (r *fenceRegister) check(token uint64) error {
	if token == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if token < r.highest {
		return ErrFenced
	}
	return nil
}

// AcquireFence implements Fenceable for the in-memory backend: in-process
// failover tests share one *MemBackend between a primary and a standby, so
// the register lives on the backend and the returned view carries the token.
func (m *MemBackend) AcquireFence() (Backend, uint64, error) {
	m.mu.RLock()
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return nil, 0, ErrClosed
	}
	token := m.fence.acquire()
	return &fencedMem{m: m, token: token}, token, nil
}

// fencedMem is a MemBackend view bound to one fence generation. Reads pass
// through; mutations check the fence first. The check-then-delegate pair is
// not atomic with the mutation, which is exactly the Fenceable contract: an
// op concurrent with a newer AcquireFence may land as if it preceded the
// acquisition (the acquirer's subsequent log scan observes it), but every
// mutation started after the acquisition fails.
type fencedMem struct {
	m     *MemBackend
	token uint64
}

var _ Backend = (*fencedMem)(nil)

func (f *fencedMem) checkFence() error { return f.m.fence.check(f.token) }

func (f *fencedMem) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(f, bucket, slot) }
func (f *fencedMem) ReadSlots(refs []SlotRef) ([][]byte, error) {
	return f.m.ReadSlots(refs)
}
func (f *fencedMem) ReadBucket(bucket int) ([][]byte, error) { return f.m.ReadBucket(bucket) }
func (f *fencedMem) NumBuckets() (int, error)                { return f.m.NumBuckets() }
func (f *fencedMem) Get(key string) ([]byte, bool, error)    { return f.m.Get(key) }
func (f *fencedMem) Scan(from uint64) ([][]byte, error)      { return f.m.Scan(from) }
func (f *fencedMem) LastSeq() (uint64, error)                { return f.m.LastSeq() }

func (f *fencedMem) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(f, bucket, epoch, slots)
}

func (f *fencedMem) WriteBuckets(writes []BucketWrite) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.WriteBuckets(writes)
}

func (f *fencedMem) CommitEpoch(epoch uint64) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.CommitEpoch(epoch)
}

func (f *fencedMem) RollbackTo(epoch uint64) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.RollbackTo(epoch)
}

func (f *fencedMem) Put(key string, value []byte) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.Put(key, value)
}

func (f *fencedMem) Delete(key string) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.Delete(key)
}

func (f *fencedMem) Append(record []byte) (uint64, error) {
	if err := f.checkFence(); err != nil {
		return 0, err
	}
	return f.m.Append(record)
}

func (f *fencedMem) Truncate(before uint64) error {
	if err := f.checkFence(); err != nil {
		return err
	}
	return f.m.Truncate(before)
}

// Close closes the view only, never the shared backend: the fenced-out
// generation tearing itself down must not take the store away from the
// generation that owns it.
func (f *fencedMem) Close() error { return nil }
