package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"obladi/internal/mvtso"
)

// This file implements the proxy's overload-control plane: bounded per-epoch
// batch-slot queues with a high-water admission gate, and fair per-session
// scheduling of the slots that remain.
//
// # Why shed before the schedule
//
// The batch schedule is fixed: an epoch serves exactly R read batches of
// bread slots per shard, whatever clients ask for. Offered load beyond that
// budget has nowhere to go — before this plane existed it piled up on an
// unbounded per-shard queue and waited out the epoch only to be aborted at
// the seal ("read batches exhausted"), so past saturation every excess
// request paid a full epoch of latency for a guaranteed failure and queue
// memory grew with offered load. The admission gate refuses a fetch the
// moment the epoch's remaining slot budget cannot serve it: the refusal is
// immediate (microseconds, not an epoch) and retryable (errShed wraps
// ErrAborted and ErrEpochFull); the retry loop that replays the transaction
// paces it (WaitShedBackoff).
//
// Crucially the gate's decision depends only on proxy-internal state the
// adversary already cannot see — queue length and the schedule position —
// and a shed request never touches the schedule: no slot is consumed, no
// batch fires early, no dummy becomes real. Sheds happen strictly before
// scheduling, so the storage trace keeps the exact workload-independent
// shape it has at any other load.
//
// # The boundary window is not overload
//
// Between an epoch's last read batch and its seal the remaining budget is
// zero however idle the proxy is. Refusing a read there as a shed would
// report overload that does not exist and, because an instant retry lands in
// the same window, could starve a polite client for the whole boundary. Such
// a read is instead held until the seal opens the next epoch and refused
// then (ErrBoundaryWindow): the wait is bounded by the boundary, the retry
// finds a full budget, and the counters keep the two causes apart. Like a
// shed, a held read never touches the schedule.
//
// # Fair slot scheduling
//
// The admitted queue is drained round-robin over *sessions* (transactions),
// not FIFO over operations: each read batch takes one key per session per
// pass. A single client pipelining thousands of reads therefore cannot
// starve thousands of one-read sessions behind it — they are each served on
// the first pass, and the pipelining session gets exactly the slots nobody
// else wanted. Arrival order still breaks ties, so the schedule stays
// deterministic for tests.

// ErrShed is returned when admission control refuses an operation because
// the current epoch's batch-slot budget is already spoken for. It wraps
// ErrAborted and ErrEpochFull (see errShed), so every existing retry loop
// treats a shed as the retryable abort it is.
var ErrShed = fmt.Errorf("obladi: request shed by admission control (overload)")

// errShed is what a shed fetch fails with: ErrShed (so callers can apply
// shed-specific backoff), ErrEpochFull (it *is* exhausted epoch capacity,
// discovered early) and ErrAborted (every retry loop in the tree keys off
// it). It is one value, so a shed allocates nothing.
var errShed = fmt.Errorf("%w: out of read-batch slots this epoch (%w, %w)", ErrShed, ErrEpochFull, ErrAborted)

// ShedBackoff is a retry loop's first pause after a shed; WaitShedBackoff
// doubles it up to 250 ms.
const ShedBackoff = time.Millisecond

// WaitShedBackoff pauses a retry loop after a shed for a jittered d (Jitter), or
// until ctx is done, and returns the pause to use after the next shed. An
// immediate retry would land in the same exhausted epoch and keep the proxy
// saturated.
func WaitShedBackoff(ctx context.Context, d time.Duration) time.Duration {
	t := time.NewTimer(Jitter(d))
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
	return min(2*d, 250*time.Millisecond)
}

// Jitter spreads a backoff d over [d/2, d): retriers that shed on the same
// saturated epoch, or lost the same primary, must not all retry on the same
// later tick.
func Jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + rand.N(d-d/2)
}

// ErrBoundaryWindow is returned for a read that arrived after its epoch's
// last read batch had fired. That is not overload — the system may be idle —
// it is the fixed schedule: the epoch has no read slot left to give, and the
// transaction cannot move to the next epoch. The read is held until the seal
// opens the next epoch (a wait bounded by the boundary itself) and fails
// then, so an immediate retry lands in an epoch with its whole slot budget.
var ErrBoundaryWindow = errors.New("obladi: read arrived after the epoch's last read batch (boundary window)")

// errBoundaryWindow is what a held read fails with: retryable everywhere a
// shed is (it matches ErrEpochFull and ErrAborted), but not ErrShed — no
// backoff is called for.
var errBoundaryWindow = fmt.Errorf("%w: the next epoch is open, retry now (%w, %w)", ErrBoundaryWindow, ErrEpochFull, ErrAborted)

// errReadBatchesExhausted is what a queued read no batch served fails with at
// the seal.
var errReadBatchesExhausted = fmt.Errorf("%w: read batches exhausted", ErrEpochFull)

// inBoundaryWindowLocked reports whether the epoch's read batches have all
// fired. The caller holds p.mu.
func (p *Proxy) inBoundaryWindowLocked() bool {
	return p.batchIdx >= p.pub.ReadBatches()
}

// releaseParkedLocked fails every read held through the boundary window with
// err. The caller holds p.mu and announces p.readWake.
func (p *Proxy) releaseParkedLocked(err error) {
	p.publishReadsLocked(p.parked, err)
	p.parked = nil
}

// sessionFetchQueue holds one session's admitted-but-unscheduled fetch keys,
// in the order the session issued them. Sessions rarely queue more than a few
// keys at a time: keys starts on the inline array and append spills it.
type sessionFetchQueue struct {
	ts     mvtso.Timestamp
	keys   []string
	inline [4]string
}

// admitFetchLocked runs the admission gate for one new fetch key on sh and,
// if admitted, enqueues it under the session's queue. The caller holds
// p.mu and has already diverted boundary-window reads (enqueueLocked), so read
// batches remain. It returns nil on admission and errShed when the
// epoch's remaining read-slot budget is already fully subscribed.
//
// The gate's invariant: the total of admitted-but-unscheduled keys on a
// shard never exceeds the slots its remaining read batches can serve, so
// every admitted fetch is guaranteed a slot this epoch — admission implies
// service, and no admitted read dies at the seal (the seal still fails any it
// finds, as a safety net).
func (p *Proxy) admitFetchLocked(sh *shard, ts mvtso.Timestamp, key string) error {
	remaining := (p.pub.ReadBatches() - p.batchIdx) * p.pub.ReadBatchSize()
	if len(sh.queued) >= remaining {
		p.shedReads.Add(1)
		return errShed
	}
	sq := sh.sessQ[ts]
	if sq == nil {
		sq = sh.sessSlab.New()
		sq.ts, sq.keys = ts, sq.inline[:0]
		sh.sessQ[ts] = sq
		sh.ring = append(sh.ring, sq)
		p.admittedSessions.Add(1)
	}
	sq.keys = append(sq.keys, key)
	return nil
}

// takeBatchLocked drains up to n keys from sh's session queues for the next
// read batch, round-robin over sessions: one key per live session per pass,
// starting where the previous batch's cursor stopped. The keys are appended to
// keys[:0]. The caller holds p.mu.
func (sh *shard) takeBatchLocked(keys []string, n int) []string {
	keys = keys[:0]
	i := sh.rr
	for len(keys) < n && len(sh.ring) > 0 {
		if i >= len(sh.ring) {
			i = 0
		}
		sq := sh.ring[i]
		k := sq.keys[0]
		sq.keys = sq.keys[1:]
		keys = append(keys, k)
		if len(sq.keys) == 0 {
			// The session is drained: drop it from the ring. The next
			// session slides into position i, so the cursor stays put.
			sh.ring = append(sh.ring[:i], sh.ring[i+1:]...)
			delete(sh.sessQ, sq.ts)
		} else {
			i++
		}
	}
	if len(sh.ring) == 0 {
		sh.rr = 0
	} else {
		sh.rr = i % len(sh.ring)
	}
	return keys
}

// resetFetchQueuesLocked clears a shard's admitted fetch state at the epoch
// boundary (or on failure). Waiters are the caller's problem: they live in
// sh.queued, which outlives scheduling state.
func (sh *shard) resetFetchQueuesLocked() {
	clear(sh.sessQ)
	clear(sh.ring)
	sh.ring = sh.ring[:0]
	sh.sessSlab.Reset()
	sh.rr = 0
}
