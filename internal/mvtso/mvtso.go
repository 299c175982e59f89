// Package mvtso implements Obladi's concurrency control unit (§6.1 of the
// paper): multiversioned timestamp ordering with epoch-delayed commits.
//
// Every transaction receives a unique timestamp that fixes its position in
// the serialization order. Writes create uncommitted versions that are
// immediately visible to transactions with higher timestamps; readers record
// write-read dependencies and abort (cascading) if a dependency aborts.
// A write aborts its transaction if a transaction with a higher timestamp
// already read the version it would supersede (the read-marker rule).
//
// Commit decisions are delayed: Commit only marks a transaction as
// "finished". FinalizeEpoch — called by the proxy at an epoch boundary —
// aborts every unfinished transaction, cascades aborts through dependency
// edges, commits the survivors, and emits the deduplicated write set (the
// latest committed version per key) that forms the epoch's ORAM write batch.
//
// # Allocation and stale handles
//
// Everything here dies at FinalizeEpoch or AbortAll, so the epoch is the unit
// of allocation (internal/slab). Version chains never leave the package: they
// are reset and reused. A *Txn does leave it, so transactions come from chunks
// that are never reused: a handle kept past its epoch is Committed or Aborted
// for good, every method on it answers from that status alone, and it can
// never alias — or touch the chains, dependencies or write budget of — a
// transaction of a later epoch.
package mvtso

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"obladi/internal/slab"
)

// Timestamp orders transactions; it is also the transaction identifier.
type Timestamp uint64

// Status is a transaction's lifecycle state.
type Status uint8

// Transaction states.
const (
	StatusActive   Status = iota // executing
	StatusFinished               // commit requested, awaiting epoch end
	StatusCommitted
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusFinished:
		return "finished"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Errors reported to transaction code.
var (
	// ErrAborted is returned by operations on an aborted transaction,
	// including the operation that caused the abort.
	ErrAborted = errors.New("mvtso: transaction aborted")
	// ErrNotActive is returned when operating on a finished transaction.
	ErrNotActive = errors.New("mvtso: transaction not active")
	// ErrNeedFetch signals that the key's base version is not resident;
	// the proxy must schedule an ORAM read and call InstallBase.
	ErrNeedFetch = errors.New("mvtso: base version not resident")
	// ErrWriteBatchFull reports that the epoch's write budget for the key's
	// shard is spent (b_write distinct keys); see SetWriteBudget.
	ErrWriteBatchFull = errors.New("mvtso: epoch write batch full")
)

// version is one entry in a key's version chain.
type version struct {
	writer     Timestamp // 0 = base version fetched from the ORAM
	value      []byte
	absent     bool // base version for a key that does not exist
	tombstone  bool
	readMarker Timestamp // highest timestamp that read this version
}

// chain is a key's version list, sorted by writer timestamp ascending. Most
// chains hold a base and one write: versions starts on the inline array and
// append spills it to the heap.
type chain struct {
	versions []version
	hasBase  bool
	inline   [2]version
}

// Txn is a transaction handle. All methods are safe for concurrent use with
// other transactions; a single Txn must not be used concurrently.
//
// The three sets are small, so they are slices that start on inline arrays
// (append spills them); none needs a membership scan longer than deps.
type Txn struct {
	ts     Timestamp
	mgr    *Manager
	status Status
	// deps are the uncommitted writers whose values this txn observed.
	deps []Timestamp
	// writes lists keys this txn wrote (for rollback). A rewrite finds its own
	// version in the chain and does not list the key twice.
	writes []string
	// readers of this txn's writes (reverse dependency edges for cascade): t
	// is in w.dependents exactly when w is in t.deps.
	dependents []Timestamp

	depsInline   [2]Timestamp
	writesInline [2]string
	dependInline [2]Timestamp
}

// TS returns the transaction's timestamp.
func (t *Txn) TS() Timestamp { return t.ts }

// Manager is the concurrency control unit.
type Manager struct {
	mu     sync.Mutex
	nextTS Timestamp
	chains map[string]*chain
	// txns holds the epoch's transactions in timestamp order: timestamps are
	// consecutive, so txns[i] is transaction firstTS+i.
	txns    []*Txn
	firstTS Timestamp

	chainSlab slab.Reused[chain]
	txnSlab   slab.Chunked[Txn]
	keys      []string // FinalizeEpoch's sort scratch

	// Write-budget accounting (SetWriteBudget); zero writePerShard means
	// unlimited.
	writePerShard int
	writeShardOf  func(string) int
	writeCounts   []int
	writeKeys     map[string]struct{}

	// epoch statistics
	statConflictAborts  int64
	statCascadingAborts int64
}

// NewManager creates an empty CCU.
func NewManager() *Manager {
	return &Manager{chains: make(map[string]*chain), firstTS: 1}
}

// txn returns the epoch's transaction ts, or nil if ts is not of this epoch.
func (m *Manager) txn(ts Timestamp) *Txn {
	if ts < m.firstTS || ts-m.firstTS >= Timestamp(len(m.txns)) {
		return nil
	}
	return m.txns[ts-m.firstTS]
}

// chainLocked returns key's chain, creating an empty one.
func (m *Manager) chainLocked(key string) *chain {
	c := m.chains[key]
	if c == nil {
		c = m.chainSlab.New()
		c.versions = c.inline[:0]
		m.chains[key] = c
	}
	return c
}

// Begin starts a transaction in the current epoch.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTS++
	t := m.txnSlab.New()
	t.ts, t.mgr, t.status = m.nextTS, m, StatusActive
	t.deps, t.writes, t.dependents = t.depsInline[:0], t.writesInline[:0], t.dependInline[:0]
	m.txns = append(m.txns, t)
	return t
}

// SetWriteBudget enforces the epoch write batch at the write itself: at most
// perShard distinct written keys per shard per epoch generation, refused with
// ErrWriteBatchFull. The budget lives with the CCU — charged under the same
// lock that finalizes the epoch, reset by FinalizeEpoch/AbortAll themselves —
// so a transaction racing the boundary can never carry a charge into a
// generation that forgot it. (A proxy-side reservation map, reset a beat
// after FinalizeEpoch, has exactly that hole: a transaction beginning in the
// finalize window reserves against the dying epoch, the reset wipes the
// reservation, and the next seal overflows its write batch.)
func (m *Manager) SetWriteBudget(shards, perShard int, shardOf func(string) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writePerShard = perShard
	m.writeShardOf = shardOf
	m.writeCounts = make([]int, shards)
	m.writeKeys = make(map[string]struct{})
}

// reserveWriteLocked charges key against the epoch's write budget. A charge
// sticks until the boundary even if the writer aborts — mirroring the write
// batch the seal pads and executes.
func (m *Manager) reserveWriteLocked(key string) error {
	if m.writePerShard <= 0 {
		return nil
	}
	if _, ok := m.writeKeys[key]; ok {
		return nil
	}
	sh := 0
	if m.writeShardOf != nil {
		sh = m.writeShardOf(key)
	}
	if m.writeCounts[sh] >= m.writePerShard {
		return fmt.Errorf("%w: shard %d at %d keys", ErrWriteBatchFull, sh, m.writePerShard)
	}
	m.writeKeys[key] = struct{}{}
	m.writeCounts[sh]++
	return nil
}

// resetWriteBudgetLocked opens the next generation's budget.
func (m *Manager) resetWriteBudgetLocked() {
	if m.writePerShard <= 0 {
		return
	}
	clear(m.writeCounts)
	clear(m.writeKeys)
}

// Status returns a transaction's current state.
func (m *Manager) Status(ts Timestamp) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.txn(ts); t != nil {
		return t.status
	}
	return StatusAborted
}

// InstallBase installs the committed pre-epoch value of a key fetched from
// the ORAM. found=false records that the key does not exist. Installing a
// base under a key that already has one is a no-op (concurrent fetches).
func (m *Manager) InstallBase(key string, value []byte, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chainLocked(key)
	if c.hasBase {
		return
	}
	c.hasBase = true
	// The base sorts before every transaction's versions.
	c.versions = slices.Insert(c.versions, 0, version{writer: 0, value: value, absent: !found})
}

// HasBase reports whether a base version is resident for key.
func (m *Manager) HasBase(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chains[key]
	return c != nil && c.hasBase
}

// Read returns the value of key visible to t: the latest version with
// writer <= t.ts. It records the read marker and, for uncommitted versions,
// a write-read dependency. If the chain holds no version visible to t and
// no base version is resident, Read returns ErrNeedFetch.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.status == StatusAborted {
		return nil, false, ErrAborted
	}
	if t.status != StatusActive {
		return nil, false, ErrNotActive
	}
	c := m.chains[key]
	var vis *version
	if c != nil {
		for i := len(c.versions) - 1; i >= 0; i-- {
			if c.versions[i].writer <= t.ts {
				vis = &c.versions[i]
				break
			}
		}
	}
	if vis == nil {
		if c != nil && c.hasBase {
			// Base exists but sorts above?? impossible: base writer is 0.
			return nil, false, errors.New("mvtso: internal: base version invisible")
		}
		return nil, false, ErrNeedFetch
	}
	if vis.readMarker < t.ts {
		vis.readMarker = t.ts
	}
	if vis.writer != 0 && vis.writer != t.ts {
		writer := m.txn(vis.writer)
		if writer == nil {
			return nil, false, fmt.Errorf("mvtso: internal: version by unknown txn %d", vis.writer)
		}
		// Visible versions by aborted writers are removed eagerly; a
		// finished writer is a legitimate dependency until the epoch ends.
		if !slices.Contains(t.deps, vis.writer) {
			t.deps = append(t.deps, vis.writer)
			writer.dependents = append(writer.dependents, t.ts)
		}
	}
	if vis.absent || vis.tombstone {
		return nil, false, nil
	}
	return vis.value, true, nil
}

// Write installs an uncommitted version of key. It aborts t (returning
// ErrAborted) if a transaction with a higher timestamp already read the
// version t would supersede.
func (t *Txn) Write(key string, value []byte) error {
	return t.write(key, value, false)
}

// Delete writes a tombstone for key under the same rules as Write.
func (t *Txn) Delete(key string) error {
	return t.write(key, nil, true)
}

func (t *Txn) write(key string, value []byte, tombstone bool) error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.status == StatusAborted {
		return ErrAborted
	}
	if t.status != StatusActive {
		return ErrNotActive
	}
	if err := m.reserveWriteLocked(key); err != nil {
		return err
	}
	c := m.chainLocked(key)
	// Locate the insertion point and the predecessor version.
	idx := sort.Search(len(c.versions), func(i int) bool {
		return c.versions[i].writer >= t.ts
	})
	if idx < len(c.versions) && c.versions[idx].writer == t.ts {
		// Rewrite by the same transaction. If a later transaction already
		// read the version being replaced, the rewrite would invalidate
		// that read: the read-marker rule applies here too.
		if rm := c.versions[idx].readMarker; rm > t.ts {
			m.statConflictAborts++
			m.abortLocked(t, "self-rewrite after dependent read")
			return fmt.Errorf("%w: key %q version read by txn %d before txn %d's rewrite", ErrAborted, key, rm, t.ts)
		}
		c.versions[idx].value = value
		c.versions[idx].tombstone = tombstone
		c.versions[idx].absent = false
		return nil
	}
	if idx > 0 {
		pred := &c.versions[idx-1]
		if pred.readMarker > t.ts {
			// A later transaction already read the predecessor: writing now
			// would invalidate that read. Timestamp-ordering abort.
			m.statConflictAborts++
			m.abortLocked(t, "write-write/read conflict")
			return fmt.Errorf("%w: key %q read by txn %d after txn %d's visible version", ErrAborted, key, pred.readMarker, t.ts)
		}
	}
	c.versions = slices.Insert(c.versions, idx, version{writer: t.ts, value: value, tombstone: tombstone})
	t.writes = append(t.writes, key)
	return nil
}

// Commit requests commit: the transaction is marked finished and its fate is
// decided at the epoch boundary (delayed visibility). The caller learns the
// outcome from FinalizeEpoch (the proxy surfaces it to the client).
func (t *Txn) Commit() error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	switch t.status {
	case StatusAborted:
		return ErrAborted
	case StatusActive:
		t.status = StatusFinished
		return nil
	default:
		return ErrNotActive
	}
}

// Abort voluntarily aborts the transaction, cascading to dependents.
func (t *Txn) Abort() {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.status == StatusAborted || t.status == StatusCommitted {
		return
	}
	m.abortLocked(t, "voluntary")
}

// abortLocked marks t aborted, removes its versions, and cascades to every
// transaction that observed them.
func (m *Manager) abortLocked(t *Txn, reason string) {
	if t.status == StatusAborted {
		return
	}
	t.status = StatusAborted
	for _, key := range t.writes {
		c := m.chains[key]
		if c == nil {
			continue
		}
		for i := range c.versions {
			if c.versions[i].writer == t.ts {
				c.versions = slices.Delete(c.versions, i, i+1)
				break
			}
		}
	}
	// Cascade: anyone who read this transaction's writes must abort too.
	for _, dep := range t.dependents {
		if reader := m.txn(dep); reader != nil && reader.status != StatusAborted {
			m.statCascadingAborts++
			m.abortLocked(reader, "cascading")
		}
	}
}

// Outcome reports an epoch's fate decisions and its deduplicated write set.
type Outcome struct {
	Committed []Timestamp
	Aborted   []Timestamp
	// Writes holds, per key written by a committed transaction, the last
	// committed version in timestamp order — exactly the set Obladi flushes
	// to the ORAM as the epoch's write batch (§6.2).
	Writes []WriteSetEntry
}

// WriteSetEntry is one key's final value for the epoch write batch.
type WriteSetEntry struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// FinalizeEpoch ends the epoch: unfinished transactions abort (no
// transaction spans epochs), aborts cascade, survivors commit. The CCU then
// resets; the next epoch starts with empty version chains (the version cache
// is flushed, reads re-fetch from the ORAM).
func (m *Manager) FinalizeEpoch() Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Abort every transaction that has not requested commit.
	for _, t := range m.txns {
		if t.status == StatusActive {
			m.abortLocked(t, "epoch boundary")
		}
	}
	// Cascading aborts of finished transactions whose dependencies aborted.
	// abortLocked already cascades eagerly, but a dependency recorded after
	// the dependent finished is caught here; iterate to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, t := range m.txns {
			if t.status != StatusFinished {
				continue
			}
			for _, dep := range t.deps {
				if d := m.txn(dep); d == nil || d.status == StatusAborted {
					m.statCascadingAborts++
					m.abortLocked(t, "dependency aborted")
					changed = true
					break
				}
			}
		}
	}
	// Transactions are in timestamp order, so both lists come out sorted.
	var out Outcome
	finished := 0
	for _, t := range m.txns {
		if t.status == StatusFinished {
			finished++
		}
	}
	out.Committed = make([]Timestamp, 0, finished)
	out.Aborted = make([]Timestamp, 0, len(m.txns)-finished)
	for _, t := range m.txns {
		switch t.status {
		case StatusFinished:
			t.status = StatusCommitted
			out.Committed = append(out.Committed, t.ts)
		case StatusAborted:
			out.Aborted = append(out.Aborted, t.ts)
		}
	}
	// Deduplicated write set: last version per key (aborted versions are
	// already gone; remaining non-base versions belong to committed txns).
	keys := m.keys[:0]
	for key, c := range m.chains {
		// Only the base version remaining means nothing to write back.
		if n := len(c.versions); n > 0 && c.versions[n-1].writer != 0 {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	out.Writes = make([]WriteSetEntry, len(keys))
	for i, key := range keys {
		c := m.chains[key]
		last := &c.versions[len(c.versions)-1]
		out.Writes[i] = WriteSetEntry{Key: key, Value: last.value, Tombstone: last.tombstone}
	}
	clear(keys)
	m.keys = keys
	m.resetLocked()
	return out
}

// resetLocked opens the next epoch: empty version chains, no transactions, a
// fresh write budget. The chains go back to their slab; the transactions stay
// where their handles point, decided for good, holding nothing.
func (m *Manager) resetLocked() {
	for _, t := range m.txns {
		t.deps, t.writes, t.dependents = nil, nil, nil
	}
	m.firstTS = m.nextTS + 1
	clear(m.txns)
	m.txns = m.txns[:0]
	m.txnSlab.EndEpoch()
	clear(m.chains)
	m.chainSlab.Reset()
	m.resetWriteBudgetLocked()
}

// AbortAll aborts every live transaction without committing anyone — the
// fate of an epoch lost to a crash (epoch fate sharing, §6).
func (m *Manager) AbortAll() []Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	var aborted []Timestamp
	for _, t := range m.txns {
		m.abortLocked(t, "epoch abandoned")
		aborted = append(aborted, t.ts)
	}
	m.resetLocked()
	return aborted
}

// Stats reports cumulative abort counters.
func (m *Manager) Stats() (conflictAborts, cascadingAborts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statConflictAborts, m.statCascadingAborts
}
