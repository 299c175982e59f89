package replica

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"obladi/internal/storage"
	"obladi/internal/wal"
)

// StandbyConfig tunes the standby side.
type StandbyConfig struct {
	// LeaseTimeout is how long the standby tolerates silence (no frame of
	// any kind) before declaring the primary dead. The primary heartbeats
	// every SenderConfig.HeartbeatEvery, so the lease should be several
	// heartbeats wide. Default 750ms — sub-second failover with margin for
	// scheduling jitter.
	LeaseTimeout time.Duration
	// RedialEvery paces reconnection attempts after a dropped stream.
	// Default 50ms.
	RedialEvery time.Duration
	// Decode, when set (the primary's wal config — key and padding), lets
	// the standby open the coordinator's committing checkpoints in flight and
	// expose the replicated committed epoch (observability and tests); nil
	// disables decoding. Replication itself never opens records.
	Decode *wal.Config
}

func (c *StandbyConfig) setDefaults() {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 750 * time.Millisecond
	}
	if c.RedialEvery <= 0 {
		c.RedialEvery = 50 * time.Millisecond
	}
}

// Standby maintains a warm copy of the primary's per-shard recovery logs by
// replaying its replication stream, watches the primary's lease, and — on
// expiry — promotes: fence the storage backends (so the zombie primary's
// next mutation fails loudly with storage.ErrFenced), top each log copy up
// from the durable tail in storage, and run the ordinary wal recovery over
// the result. Seq alignment makes the top-up exact: after it, each memlog
// equals the store log byte-for-byte wherever both are defined, and may
// additionally hold a suffix of records the primary appended but never got
// to fsync — the same kind of suffix a crash could have preserved, so
// recovery's crash-image reasoning applies unchanged. The copies follow the
// primary's truncations as they stream by, so standby memory and promotion
// time are bounded by the log's own bound, not by the primary's uptime.
type Standby struct {
	primary string
	stores  []storage.Backend
	cfg     StandbyConfig
	decoder *wal.Log // nil unless cfg.Decode set

	mu        sync.Mutex
	logs      []*memlog
	lastSeen  time.Time
	connected bool
	commit    uint64 // highest epoch a coordinator checkpoint on the stream committed

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewStandby starts replicating from the primary's replica listener. stores
// must be the same backends, in the same shard order, that the primary
// serves — promotion tops up and fences shard i's log against stores[i].
func NewStandby(primary string, stores []storage.Backend, cfg StandbyConfig) (*Standby, error) {
	if len(stores) == 0 {
		return nil, errors.New("replica: standby needs the shard stores")
	}
	cfg.setDefaults()
	s := &Standby{
		primary:  primary,
		stores:   stores,
		cfg:      cfg,
		logs:     make([]*memlog, len(stores)),
		lastSeen: time.Now(),
		stop:     make(chan struct{}),
	}
	for i := range s.logs {
		s.logs[i] = newMemlog()
	}
	if cfg.Decode != nil {
		dec, err := wal.New(s.logs[0], *cfg.Decode)
		if err != nil {
			return nil, err
		}
		s.decoder = dec
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// run is the dial/replay loop: it keeps a stream attached while the primary
// lives, resyncing after any drop (the sender resends what its logs retain,
// floors first; applyAt drops duplicates by seq).
func (s *Standby) run() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		c, err := net.DialTimeout("tcp", s.primary, s.cfg.RedialEvery)
		if err == nil {
			s.serve(c)
		}
		select {
		case <-s.stop:
			return
		case <-time.After(s.cfg.RedialEvery):
		}
	}
}

// serve replays one connection's stream until it drops.
func (s *Standby) serve(c net.Conn) {
	defer c.Close()
	// Unblock the read loop when the standby stops or promotes. Note the
	// dial itself proves nothing about the primary (the listener may
	// outlive the proxy); only frames refresh the lease.
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-s.stop:
			c.Close()
		case <-connDone:
		}
	}()
	hello, err := readFrame(c)
	if err != nil {
		return
	}
	shards, err := checkHello(hello)
	if err != nil || shards != len(s.logs) {
		log.Printf("replica: standby rejecting primary %s: %v (shards %d, want %d)", s.primary, err, shards, len(s.logs))
		return
	}
	s.setConnected(true)
	defer s.setConnected(false)
	s.refreshLease()
	var received uint64 // stream frames (records, truncations) on this connection
	for {
		f, err := readFrame(c)
		if err != nil {
			return
		}
		s.refreshLease()
		if f.kind == frameRecord || f.kind == frameFloor || f.kind == frameTruncate {
			if int(f.shard) >= len(s.logs) {
				log.Printf("replica: frame for shard %d of %d, dropping stream", f.shard, len(s.logs))
				return
			}
		}
		switch f.kind {
		case frameRecord:
			if _, err := s.logs[f.shard].applyAt(f.seq, f.rec); err != nil {
				// A gap means we missed frames somehow; drop and resync.
				log.Printf("replica: %v, resyncing", err)
				return
			}
			received++
			if err := writeFrame(c, frame{kind: frameAck, seq: received}); err != nil {
				return
			}
			if f.shard == 0 && s.decoder != nil {
				if epoch, ok, err := s.decoder.DecodeCommitEpoch(f.rec); err == nil && ok {
					s.mu.Lock()
					if epoch > s.commit {
						s.commit = epoch
					}
					s.mu.Unlock()
				}
			}
		case frameFloor:
			s.logs[f.shard].skipTo(f.seq)
		case frameTruncate:
			if err := s.logs[f.shard].applyTruncate(f.seq); err != nil {
				log.Printf("replica: %v, resyncing", err)
				return
			}
			received++
			if err := writeFrame(c, frame{kind: frameAck, seq: received}); err != nil {
				return
			}
		case frameSyncpoint:
			if err := writeFrame(c, frame{kind: frameAck, seq: received}); err != nil {
				return
			}
		case frameHeartbeat:
			// Lease already refreshed above.
		}
	}
}

func (s *Standby) setConnected(v bool) {
	s.mu.Lock()
	s.connected = v
	s.mu.Unlock()
}

func (s *Standby) refreshLease() {
	s.mu.Lock()
	s.lastSeen = time.Now()
	s.mu.Unlock()
}

// PrimaryDown reports whether the lease has expired: no frame for longer
// than LeaseTimeout. The clock starts at NewStandby, so a primary that was
// already dead (or never reachable) expires one lease after startup and the
// standby can still promote — the storage top-up recovers everything
// replication never delivered.
func (s *Standby) PrimaryDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastSeen) > s.cfg.LeaseTimeout
}

// WaitPrimaryDown blocks until the lease expires or ctx is done.
func (s *Standby) WaitPrimaryDown(ctx context.Context) error {
	poll := s.cfg.LeaseTimeout / 16
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		if s.PrimaryDown() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// StandbyStats is an observability snapshot.
type StandbyStats struct {
	Connected   bool
	CommitEpoch uint64    // highest replicated coordinator commit (needs Key)
	LastFrame   time.Time // lease clock
	Seqs        []uint64  // per-shard highest replicated seq
	Floors      []uint64  // per-shard first retained seq
	Records     []int     // per-shard records held — bounded by the log's bound
}

// Stats snapshots the standby.
func (s *Standby) Stats() StandbyStats {
	s.mu.Lock()
	st := StandbyStats{Connected: s.connected, CommitEpoch: s.commit, LastFrame: s.lastSeen}
	s.mu.Unlock()
	for _, l := range s.logs {
		first, n := l.span()
		st.Seqs = append(st.Seqs, first+uint64(n)-1)
		st.Floors = append(st.Floors, first)
		st.Records = append(st.Records, n)
	}
	return st
}

// PromoteResult carries what a new primary needs: the fenced store views to
// run against and the per-shard recovery states (coordinator first).
// Recoveries is nil when the logs hold no committed state — the dead primary
// never completed a first boot — in which case the caller should cold-start
// with core.NewSharded on Stores instead.
type PromoteResult struct {
	Stores     []storage.Backend
	Recoveries []*wal.Recovery
}

// Promote turns the standby's warm state into recovery state for a new
// primary, in strict order: (1) stop replicating, (2) fence every store —
// from this point the zombie primary's mutations fail with ErrFenced, and
// in particular nothing can extend the durable log tails, (3) top each warm
// log up from its store's tail so it covers everything the dead primary made
// durable, (4) run wal recovery over the warm logs. base supplies the log
// crypto and padding config (Shard/Shards are set per shard here).
func (s *Standby) Promote(base wal.Config) (*PromoteResult, error) {
	s.Stop()
	res := &PromoteResult{Stores: make([]storage.Backend, len(s.stores))}
	for i, st := range s.stores {
		view := st
		if f, ok := st.(storage.Fenceable); ok {
			v, _, err := f.AcquireFence()
			if err != nil {
				return nil, fmt.Errorf("replica: fencing shard %d: %w", i, err)
			}
			view = v
		}
		res.Stores[i] = view
	}
	for i, view := range res.Stores {
		first, n := s.logs[i].span()
		next := first + uint64(n)
		tail, err := view.Scan(next)
		if err != nil {
			return nil, fmt.Errorf("replica: shard %d tail scan: %w", i, err)
		}
		storeLast, err := view.LastSeq()
		if err != nil {
			return nil, fmt.Errorf("replica: shard %d tail scan: %w", i, err)
		}
		// A scan is clamped to the store's truncation floor. If the dead
		// primary truncated past the end of a lagging copy, the tail starts
		// above next and the copy restarts there, as at any attach.
		from := storeLast + 1 - uint64(len(tail))
		if from > next {
			s.logs[i].skipTo(from)
		}
		for j, rec := range tail {
			if _, err := s.logs[i].applyAt(from+uint64(j), rec); err != nil {
				return nil, err
			}
		}
	}
	recs := make([]*wal.Recovery, len(s.logs))
	cfg := base
	cfg.Shard, cfg.Shards = 0, len(s.logs)
	coordLog, err := wal.New(s.logs[0], cfg)
	if err != nil {
		return nil, err
	}
	rec, err := coordLog.Recover()
	switch {
	case errors.Is(err, wal.ErrNoCheckpoint):
		// Never booted, or the first boot died before the coordinator's
		// baseline checkpoint committed: caller cold-starts on res.Stores.
		return res, nil
	case err != nil:
		return nil, fmt.Errorf("replica: recovering coordinator: %w", err)
	}
	recs[0] = rec
	for i := 1; i < len(s.logs); i++ {
		cfg := base
		cfg.Shard, cfg.Shards = i, len(s.logs)
		l, err := wal.New(s.logs[i], cfg)
		if err != nil {
			return nil, err
		}
		if recs[i], err = l.RecoverWithFloor(rec.CommittedEpoch); err != nil {
			return nil, fmt.Errorf("replica: recovering shard %d: %w", i, err)
		}
	}
	res.Recoveries = recs
	return res, nil
}

// Stop ends replication without promoting (idempotent; Promote calls it).
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
