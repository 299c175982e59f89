// Package baseline implements the two non-private comparison systems of the
// paper's evaluation (§10–11): NoPriv, which shares Obladi's timestamp-
// ordering concurrency control but talks to plain remote storage with no
// batching or epoch delay, and a strict two-phase-locking engine standing in
// for MySQL.
package baseline

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"obladi/internal/kvtxn"
	"obladi/internal/storage"
)

// ErrAborted wraps kvtxn.ErrAborted for baseline engines.
var ErrAborted = kvtxn.ErrAborted

// npStatus is a NoPriv transaction state.
type npStatus uint8

const (
	npActive npStatus = iota
	npCommitted
	npAborted
)

// npVersion is one version in a NoPriv chain.
type npVersion struct {
	ts         uint64 // 0 = committed base fetched from storage
	value      []byte
	absent     bool
	tombstone  bool
	readMarker uint64
}

// npChain is one key's versions. key is the engine's own copy of the key,
// made with the chain: chains outlive every transaction, so they, the write
// sets naming them and the store's entries hold it, never a caller's key.
type npChain struct {
	key      string
	versions []*npVersion
	hasBase  bool
}

// NoPriv is the non-private baseline: MVTSO over plain key-value storage.
// Writes buffer locally until commit and are immediately visible to later
// transactions; commits apply synchronously to storage.
type NoPriv struct {
	mu     sync.Mutex
	cond   *sync.Cond
	store  storage.KVStore
	nextTS uint64
	chains map[string]*npChain
	txns   map[uint64]*npTxn
	closed bool
}

var _ kvtxn.DB = (*NoPriv)(nil)

// NewNoPriv creates the baseline over a (typically latency-wrapped) store.
func NewNoPriv(store storage.KVStore) *NoPriv {
	n := &NoPriv{
		store:  store,
		chains: make(map[string]*npChain),
		txns:   make(map[uint64]*npTxn),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// npTxn is a NoPriv transaction.
type npTxn struct {
	db         *NoPriv
	ts         uint64
	status     npStatus
	deps       map[uint64]struct{}
	dependents map[uint64]struct{}
	writes     map[string]struct{}
}

// Begin implements kvtxn.DB.
func (n *NoPriv) Begin() kvtxn.Txn {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextTS++
	t := &npTxn{
		db:         n,
		ts:         n.nextTS,
		deps:       make(map[uint64]struct{}),
		dependents: make(map[uint64]struct{}),
		writes:     make(map[string]struct{}),
	}
	n.txns[t.ts] = t
	return t
}

// Close implements kvtxn.DB.
func (n *NoPriv) Close() error {
	n.mu.Lock()
	n.closed = true
	n.cond.Broadcast()
	n.mu.Unlock()
	return nil
}

// chainLocked returns key's chain, creating it with a copy of key.
func (n *NoPriv) chainLocked(key string) *npChain {
	c := n.chains[key]
	if c == nil {
		c = &npChain{key: strings.Clone(key)}
		n.chains[c.key] = c
	}
	return c
}

// fetchBase loads a key's committed value from storage (outside the lock)
// and installs it as the chain's base.
func (n *NoPriv) fetchBase(key string) error {
	v, found, err := n.store.Get(key)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.chainLocked(key)
	if !c.hasBase {
		c.hasBase = true
		base := &npVersion{ts: 0, value: v, absent: !found}
		c.versions = append([]*npVersion{base}, c.versions...)
	}
	return nil
}

func (t *npTxn) Read(key string) ([]byte, bool, error) {
	for {
		n := t.db
		n.mu.Lock()
		if t.status == npAborted {
			n.mu.Unlock()
			return nil, false, fmt.Errorf("%w: nopriv read", ErrAborted)
		}
		c := n.chains[key]
		var vis *npVersion
		if c != nil {
			for i := len(c.versions) - 1; i >= 0; i-- {
				if c.versions[i].ts <= t.ts {
					vis = c.versions[i]
					break
				}
			}
		}
		if vis == nil {
			n.mu.Unlock()
			if err := n.fetchBase(key); err != nil {
				return nil, false, err
			}
			continue
		}
		if vis.readMarker < t.ts {
			vis.readMarker = t.ts
		}
		if vis.ts != 0 && vis.ts != t.ts {
			if w, ok := n.txns[vis.ts]; ok && w.status == npActive {
				t.deps[vis.ts] = struct{}{}
				w.dependents[t.ts] = struct{}{}
			}
		}
		defer n.mu.Unlock()
		if vis.absent || vis.tombstone {
			return nil, false, nil
		}
		return append([]byte(nil), vis.value...), true, nil
	}
}

func (t *npTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	// Prefetch missing bases in parallel: NoPriv's advantage over a naive
	// client is overlapping storage round trips.
	n := t.db
	var missing []string
	n.mu.Lock()
	for _, k := range keys {
		if c := n.chains[k]; c == nil || !c.hasBase {
			missing = append(missing, k)
		}
	}
	n.mu.Unlock()
	var wg sync.WaitGroup
	errs := make(chan error, len(missing))
	for _, k := range missing {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if err := n.fetchBase(k); err != nil {
				errs <- err
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	out := make([]kvtxn.Value, len(keys))
	for i, k := range keys {
		v, found, err := t.Read(k)
		if err != nil {
			return nil, err
		}
		out[i] = kvtxn.Value{Key: k, Value: v, Found: found}
	}
	return out, nil
}

func (t *npTxn) Write(key string, value []byte) error {
	return t.write(key, value, false)
}

func (t *npTxn) Delete(key string) error {
	return t.write(key, nil, true)
}

func (t *npTxn) write(key string, value []byte, tombstone bool) error {
	n := t.db
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.status != npActive {
		return fmt.Errorf("%w: nopriv write on finished txn", ErrAborted)
	}
	c := n.chainLocked(key)
	idx := sort.Search(len(c.versions), func(i int) bool {
		return c.versions[i].ts >= t.ts
	})
	if idx < len(c.versions) && c.versions[idx].ts == t.ts {
		if c.versions[idx].readMarker > t.ts {
			n.abortLocked(t)
			return fmt.Errorf("%w: nopriv rewrite conflict on %q", ErrAborted, key)
		}
		c.versions[idx].value = value
		c.versions[idx].tombstone = tombstone
		t.writes[c.key] = struct{}{}
		return nil
	}
	if idx > 0 && c.versions[idx-1].readMarker > t.ts {
		n.abortLocked(t)
		return fmt.Errorf("%w: nopriv write conflict on %q", ErrAborted, key)
	}
	v := &npVersion{ts: t.ts, value: value, tombstone: tombstone}
	c.versions = append(c.versions, nil)
	copy(c.versions[idx+1:], c.versions[idx:])
	c.versions[idx] = v
	t.writes[c.key] = struct{}{}
	return nil
}

// Commit waits for write-read dependencies to decide, then applies this
// transaction's writes to storage synchronously.
func (t *npTxn) Commit() error {
	n := t.db
	n.mu.Lock()
	for {
		if n.closed {
			n.mu.Unlock()
			return fmt.Errorf("%w: store closed", ErrAborted)
		}
		if t.status == npAborted {
			n.mu.Unlock()
			return fmt.Errorf("%w: nopriv commit", ErrAborted)
		}
		pending := false
		for dep := range t.deps {
			d, ok := n.txns[dep]
			if !ok {
				continue // pruned, therefore committed
			}
			if d.status == npAborted {
				n.abortLocked(t)
				n.mu.Unlock()
				return fmt.Errorf("%w: dependency %d aborted", ErrAborted, dep)
			}
			if d.status == npActive {
				pending = true
			}
		}
		if !pending {
			break
		}
		n.cond.Wait()
	}
	// Collect the write set while still active, then apply outside the lock.
	type flush struct {
		key       string
		value     []byte
		tombstone bool
	}
	var flushes []flush
	for key := range t.writes {
		c := n.chains[key]
		for _, v := range c.versions {
			if v.ts == t.ts {
				flushes = append(flushes, flush{key: key, value: v.value, tombstone: v.tombstone})
			}
		}
	}
	n.mu.Unlock()
	for _, f := range flushes {
		var err error
		if f.tombstone {
			err = n.store.Delete(f.key)
		} else {
			err = n.store.Put(f.key, f.value)
		}
		if err != nil {
			n.mu.Lock()
			n.abortLocked(t)
			n.mu.Unlock()
			return err
		}
	}
	n.mu.Lock()
	t.status = npCommitted
	n.pruneLocked(t)
	n.cond.Broadcast()
	n.mu.Unlock()
	return nil
}

func (t *npTxn) Abort() {
	n := t.db
	n.mu.Lock()
	n.abortLocked(t)
	n.cond.Broadcast()
	n.mu.Unlock()
}

// abortLocked removes the txn's versions and cascades to dependents.
func (n *NoPriv) abortLocked(t *npTxn) {
	if t.status != npActive {
		return
	}
	t.status = npAborted
	for key := range t.writes {
		c := n.chains[key]
		if c == nil {
			continue
		}
		for i, v := range c.versions {
			if v.ts == t.ts {
				c.versions = append(c.versions[:i], c.versions[i+1:]...)
				break
			}
		}
	}
	for dep := range t.dependents {
		if r, ok := n.txns[dep]; ok {
			n.abortLocked(r)
		}
	}
	n.cond.Broadcast()
}

// pruneLocked folds a committed transaction's versions into the chain base
// when no active transaction can still need older versions, bounding memory.
func (n *NoPriv) pruneLocked(t *npTxn) {
	minActive := ^uint64(0)
	for ts, tx := range n.txns {
		if tx.status == npActive && ts < minActive {
			minActive = ts
		}
	}
	for key := range t.writes {
		c := n.chains[key]
		if c == nil {
			continue
		}
		// Drop committed versions strictly older than the newest committed
		// version visible to every active transaction.
		keepFrom := 0
		for i, v := range c.versions {
			committed := v.ts == 0
			if v.ts != 0 {
				if tx, ok := n.txns[v.ts]; ok && tx.status == npCommitted {
					committed = true
				}
			}
			if committed && v.ts < minActive {
				keepFrom = i
			}
		}
		if keepFrom > 0 {
			c.versions = append([]*npVersion(nil), c.versions[keepFrom:]...)
		}
	}
	delete(n.txns, t.ts)
}
