package storage

import "sync"

// fenceRegister is the generation counter behind Fenceable: acquire bumps it
// and returns the new token, check compares a handle's token against the
// highest issued. One register guards one store (an in-memory store shared by
// its MemBackend handles, or one served backend inside a remote Server).
type fenceRegister struct {
	mu      sync.Mutex
	highest uint64
}

// acquire issues the next fence token. Tokens are strictly increasing, so
// each acquisition fences every handle issued before it — two proxies racing
// a promotion cannot end up with equal tokens.
func (r *fenceRegister) acquire() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.highest++
	return r.highest
}

// check reports ErrFenced when token has been superseded. Token 0 means "not
// fenced" (a raw handle or connection) and always passes: deployments that
// never fence keep working.
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
// failover tests share one store between a primary and a standby, so the
// register lives on the store and the returned handle on it carries the
// token. The handle checks its token where it checks closure, under the
// store's lock, so every mutation started after a newer acquisition fails.
func (m *MemBackend) AcquireFence() (Backend, uint64, error) {
	m.mu.RLock()
	err := m.checkOpen()
	m.mu.RUnlock()
	if err != nil {
		return nil, 0, err
	}
	token := m.fence.acquire()
	return &MemBackend{memStore: m.memStore, token: token}, token, nil
}
