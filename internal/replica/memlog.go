package replica

import (
	"fmt"
	"sync"
)

// memlog is the standby's warm in-memory copy of one shard's recovery log.
// It implements storage.LogStore so the ordinary wal recovery runs over it
// unchanged at promotion. The load-bearing invariant is seq alignment:
// record seq i here holds the same bytes as seq i in the primary's store
// log. It holds because the primary mirrors each record with the seq its
// store assigned and each truncation at the point the store applied it,
// applyAt and applyTruncate refuse gaps (a lossy reconnect resyncs from the
// primary's floor and duplicates are dropped by seq), and only an attach-time
// floor (skipTo) may move the copy past records it never received — records
// the primary no longer has either.
type memlog struct {
	mu   sync.Mutex
	recs [][]byte
	base uint64 // seq of recs[0]; store logs start at 1
}

func newMemlog() *memlog { return &memlog{base: 1} }

// applyAt installs the record carried by a stream frame at its store seq.
// Duplicates (from a resync replaying history) report applied=false; a gap
// is a protocol violation — the caller drops the connection and resyncs.
func (m *memlog) applyAt(seq uint64, rec []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.base + uint64(len(m.recs))
	switch {
	case seq < next:
		return false, nil
	case seq > next:
		return false, fmt.Errorf("replica: log gap: have through seq %d, got seq %d", next-1, seq)
	}
	m.recs = append(m.recs, append([]byte(nil), rec...))
	return true, nil
}

// applyTruncate applies a stream truncation: drop everything below before.
// The stream is ordered, so every record below before was sent first; a
// truncation reaching past the copy's end is a gap like any other.
func (m *memlog) applyTruncate(before uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if next := m.base + uint64(len(m.recs)); before > next {
		return fmt.Errorf("replica: log gap: have through seq %d, truncation below seq %d", next-1, before)
	}
	m.truncateLocked(before)
	return nil
}

// skipTo applies an attach-time floor: the primary retains nothing below
// floor. What the copy holds below it goes; a copy that ends before floor
// restarts empty at floor.
func (m *memlog) skipTo(floor uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if floor > m.base+uint64(len(m.recs)) {
		m.recs, m.base = nil, floor
		return
	}
	m.truncateLocked(floor)
}

// Append implements storage.LogStore.
func (m *memlog) Append(record []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, record)
	return m.base + uint64(len(m.recs)) - 1, nil
}

// Scan implements storage.LogStore.
func (m *memlog) Scan(from uint64) ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.base {
		from = m.base
	}
	idx := int(from - m.base)
	if idx >= len(m.recs) {
		return nil, nil
	}
	out := make([][]byte, len(m.recs)-idx)
	copy(out, m.recs[idx:])
	return out, nil
}

// Truncate implements storage.LogStore.
func (m *memlog) Truncate(before uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.truncateLocked(before)
	return nil
}

func (m *memlog) truncateLocked(before uint64) {
	if before <= m.base {
		return
	}
	drop := before - m.base
	if drop > uint64(len(m.recs)) {
		drop = uint64(len(m.recs))
	}
	m.recs = append([][]byte(nil), m.recs[drop:]...)
	m.base += drop
}

// span reports the copy's first sequence number and record count.
func (m *memlog) span() (first uint64, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base, len(m.recs)
}

// LastSeq implements storage.LogStore.
func (m *memlog) LastSeq() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base + uint64(len(m.recs)) - 1, nil
}
