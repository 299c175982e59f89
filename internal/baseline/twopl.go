package baseline

import (
	"fmt"
	"strings"
	"sync"

	"obladi/internal/kvtxn"
)

// TwoPL is the "MySQL-like" baseline: strict two-phase locking with
// shared/exclusive locks held until commit, immediate storage writes with an
// undo log, and wait-die deadlock avoidance (an older transaction waits for
// a lock; a younger one aborts).
type TwoPL struct {
	mu     sync.Mutex
	cond   *sync.Cond
	store  Store
	nextTS uint64
	locks  map[string]*lockState
	closed bool
}

var _ kvtxn.DB = (*TwoPL)(nil)

// lockState tracks one key's lock. key is the engine's own copy of the key,
// made with the lock: the lock table, the holder's lock and undo sets and the
// store's entry hold it, never a caller's key.
type lockState struct {
	key string
	// sharedHolders maps transaction timestamps holding S locks.
	sharedHolders map[uint64]bool
	// exclusiveHolder is the X holder's timestamp (0 = none).
	exclusiveHolder uint64
}

// NewTwoPL creates the 2PL baseline over store, typically a MemStore paced by
// the figure's storage.Profile.
func NewTwoPL(store Store) *TwoPL {
	d := &TwoPL{
		store: store,
		locks: make(map[string]*lockState),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Begin implements kvtxn.DB.
func (d *TwoPL) Begin() kvtxn.Txn {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextTS++
	return &plTxn{
		db:    d,
		ts:    d.nextTS,
		held:  make(map[string]bool), // key -> exclusive?
		undos: nil,
	}
}

// Close implements kvtxn.DB.
func (d *TwoPL) Close() error {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// undo records a pre-image for rollback.
type undo struct {
	key     string
	value   []byte
	existed bool
}

type plTxn struct {
	db      *TwoPL
	ts      uint64
	held    map[string]bool
	undos   []undo
	aborted bool
	done    bool
}

// acquire takes a lock on key in the requested mode, applying wait-die:
// if the lock is held by an older transaction (smaller timestamp), this
// (younger) transaction aborts rather than waits. It returns the lock's copy
// of key.
func (t *plTxn) acquire(key string, exclusive bool) (string, error) {
	d := t.db
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return "", fmt.Errorf("%w: store closed", ErrAborted)
		}
		if t.aborted {
			return "", fmt.Errorf("%w: 2pl txn aborted", ErrAborted)
		}
		ls := d.locks[key]
		if ls == nil {
			ls = &lockState{key: strings.Clone(key), sharedHolders: make(map[uint64]bool)}
			d.locks[ls.key] = ls
		}
		if t.held[key] {
			// Already hold X, or hold S and want S.
			if !exclusive || t.heldExclusive(key, ls) {
				return ls.key, nil
			}
		}
		blockers := t.blockers(ls, exclusive)
		if len(blockers) == 0 {
			if exclusive {
				delete(ls.sharedHolders, t.ts)
				ls.exclusiveHolder = t.ts
			} else {
				ls.sharedHolders[t.ts] = true
			}
			t.held[ls.key] = exclusive || t.held[key]
			return ls.key, nil
		}
		// Wait-die: wait only if we are older than every blocker.
		for _, b := range blockers {
			if t.ts > b {
				t.releaseLocked()
				t.aborted = true
				return "", fmt.Errorf("%w: wait-die on %q (ts %d vs holder %d)", ErrAborted, key, t.ts, b)
			}
		}
		d.cond.Wait()
	}
}

func (t *plTxn) heldExclusive(key string, ls *lockState) bool {
	return ls.exclusiveHolder == t.ts
}

// blockers lists the timestamps preventing the requested mode.
func (t *plTxn) blockers(ls *lockState, exclusive bool) []uint64 {
	var out []uint64
	if ls.exclusiveHolder != 0 && ls.exclusiveHolder != t.ts {
		out = append(out, ls.exclusiveHolder)
	}
	if exclusive {
		for ts := range ls.sharedHolders {
			if ts != t.ts {
				out = append(out, ts)
			}
		}
	}
	return out
}

// releaseLocked drops every lock this transaction holds. Caller holds d.mu.
func (t *plTxn) releaseLocked() {
	for key := range t.held {
		ls := t.db.locks[key]
		if ls == nil {
			continue
		}
		delete(ls.sharedHolders, t.ts)
		if ls.exclusiveHolder == t.ts {
			ls.exclusiveHolder = 0
		}
		if len(ls.sharedHolders) == 0 && ls.exclusiveHolder == 0 {
			delete(t.db.locks, key)
		}
	}
	t.held = make(map[string]bool)
	t.db.cond.Broadcast()
}

func (t *plTxn) Read(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, fmt.Errorf("%w: finished txn", ErrAborted)
	}
	if _, err := t.acquire(key, false); err != nil {
		return nil, false, err
	}
	return t.db.store.Get(key)
}

func (t *plTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	if t.done {
		return nil, fmt.Errorf("%w: finished txn", ErrAborted)
	}
	for _, k := range keys {
		if _, err := t.acquire(k, false); err != nil {
			return nil, err
		}
	}
	out := make([]kvtxn.Value, len(keys))
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			v, found, err := t.db.store.Get(k)
			if err != nil {
				errs <- err
				return
			}
			out[i] = kvtxn.Value{Key: k, Value: v, Found: found}
		}(i, k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return out, nil
}

func (t *plTxn) Write(key string, value []byte) error {
	return t.write(key, value, false)
}

func (t *plTxn) Delete(key string) error {
	return t.write(key, nil, true)
}

func (t *plTxn) write(key string, value []byte, tombstone bool) error {
	if t.done {
		return fmt.Errorf("%w: finished txn", ErrAborted)
	}
	key, err := t.acquire(key, true)
	if err != nil {
		return err
	}
	old, existed, err := t.db.store.Get(key)
	if err != nil {
		return err
	}
	t.undos = append(t.undos, undo{key: key, value: old, existed: existed})
	if tombstone {
		return t.db.store.Delete(key)
	}
	return t.db.store.Put(key, value)
}

func (t *plTxn) Commit() error {
	if t.done {
		return fmt.Errorf("%w: finished txn", ErrAborted)
	}
	t.done = true
	d := t.db
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.aborted {
		return fmt.Errorf("%w: 2pl commit after abort", ErrAborted)
	}
	t.releaseLocked()
	return nil
}

func (t *plTxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	d := t.db
	// Undo in reverse order (outside d.mu: storage calls may be slow).
	for i := len(t.undos) - 1; i >= 0; i-- {
		u := t.undos[i]
		if u.existed {
			d.store.Put(u.key, u.value)
		} else {
			d.store.Delete(u.key)
		}
	}
	d.mu.Lock()
	t.aborted = true
	t.releaseLocked()
	d.mu.Unlock()
}
