package replica

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

// SenderConfig tunes the primary side of the replication stream.
type SenderConfig struct {
	// Shards is the proxy's shard count, announced in the hello frame and
	// checked by the standby (a mis-paired standby fails loudly). Required.
	Shards int
	// Acked gates commit acknowledgements on standby receipt: Barrier waits
	// until the attached standby has acked the whole stream. False (the
	// default) is local-durable mode — Barrier returns immediately and the
	// stream is best-effort warmth for faster failover.
	Acked bool
	// BarrierTimeout bounds how long an acked-mode Barrier waits before
	// degrading to local-durable and dropping the lagging standby.
	// Default 2s.
	BarrierTimeout time.Duration
	// HeartbeatEvery paces idle-stream heartbeats that keep the standby's
	// lease fresh. Default 100ms.
	HeartbeatEvery time.Duration
}

func (c *SenderConfig) setDefaults() error {
	if c.Shards <= 0 {
		return errors.New("replica: SenderConfig.Shards required")
	}
	if c.BarrierTimeout <= 0 {
		c.BarrierTimeout = 2 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	return nil
}

// entry is one element of the sender's global stream: a mirrored record, or
// (trunc set) a truncation of shard's log below seq. The stream interleaves
// shards in mirror order; per shard it preserves store order, so any prefix
// of the stream gives the standby a per-shard log prefix — the same shape a
// crash leaves, which is exactly what wal recovery handles.
type entry struct {
	shard int
	seq   uint64
	rec   []byte
	trunc bool
}

func (e entry) frame() frame {
	if e.trunc {
		return frame{kind: frameTruncate, shard: uint32(e.shard), seq: e.seq}
	}
	return frame{kind: frameRecord, shard: uint32(e.shard), seq: e.seq, rec: e.rec}
}

// Sender is the primary-side replication endpoint. It implements the
// structural core.Replicator contract (Prime/Mirror/Truncate/Barrier) and
// serves at most one attached standby. It retains exactly the history the
// primary's store logs retain: when the proxy truncates a shard's log the
// sender forgets the same records, so its memory — and what a (re)attaching
// standby is sent — is bounded by the log's own bound (one full-checkpoint
// cadence of records and an epoch's read batches), not by uptime. Every (re)attach streams the
// per-shard floors and then everything retained; the standby skips what it
// already holds by store seq, so a resync is never wrong, and a full
// checkpoint is always at the head of what remains, so it is always enough.
type Sender struct {
	cfg SenderConfig
	ln  net.Listener

	mu   sync.Mutex
	cond *sync.Cond
	// entries is the retained tail of the global stream; entries[0] sits at
	// global offset base. floors[i] is the first seq shard i's log retains.
	entries  []entry
	base     uint64
	floors   []uint64
	conn     *senderConn
	closed   bool
	degraded uint64 // barriers that fell back to local-durable
	degLog   bool   // degrade already logged since last healthy barrier

	wg sync.WaitGroup
}

// senderConn is one attached standby connection.
type senderConn struct {
	c     net.Conn
	wmu   sync.Mutex
	start uint64 // global stream offset this connection began streaming at
	acked uint64 // guarded by Sender.mu: global stream offset acked
	gone  chan struct{}
	once  sync.Once
}

func (sc *senderConn) close() {
	sc.once.Do(func() {
		close(sc.gone)
		sc.c.Close()
	})
}

func (sc *senderConn) write(f frame) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return writeFrame(sc.c, f)
}

// NewSender listens for standby attachments on addr (e.g. ":7042" or
// "127.0.0.1:0").
func NewSender(addr string, cfg SenderConfig) (*Sender, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Sender{cfg: cfg, ln: ln, floors: make([]uint64, cfg.Shards)}
	for i := range s.floors {
		s.floors[i] = 1 // store logs start at seq 1
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Sender) Addr() string { return s.ln.Addr().String() }

func (s *Sender) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		sc := &senderConn{c: c, gone: make(chan struct{})}
		if err := sc.write(helloFrame(s.cfg.Shards)); err != nil {
			sc.close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			sc.close()
			return
		}
		old := s.conn
		s.conn = sc
		// Floors and attach offset are read together: the floors cover
		// exactly the truncations already trimmed out of entries.
		sc.start, sc.acked = s.base, s.base
		floors := append([]uint64(nil), s.floors...)
		s.mu.Unlock()
		if old != nil {
			// Newest attach wins: a standby that redialed after a network
			// blip replaces its own stale connection.
			old.close()
		}
		s.wg.Add(3)
		go s.streamLoop(sc, floors)
		go s.heartbeatLoop(sc)
		go s.ackLoop(sc)
	}
}

// streamLoop brings one standby up to the retained history and keeps it
// there: first the per-shard floors as they stood at attach (a standby that
// holds less simply starts there), then every stream entry from the attach
// offset on.
func (s *Sender) streamLoop(sc *senderConn, floors []uint64) {
	defer s.wg.Done()
	for shard, floor := range floors {
		if err := sc.write(frame{kind: frameFloor, shard: uint32(shard), seq: floor}); err != nil {
			s.dropConn(sc)
			return
		}
	}
	cursor := sc.start
	for {
		s.mu.Lock()
		for !s.closed && s.conn == sc && cursor == s.base+uint64(len(s.entries)) {
			s.cond.Wait()
		}
		if s.closed || s.conn != sc {
			s.mu.Unlock()
			return
		}
		if cursor < s.base {
			// The log was truncated past what this standby has been sent:
			// it lags by more than the whole retained history. Resyncing
			// from the floor is both correct and the fastest way to catch up.
			s.mu.Unlock()
			s.dropConn(sc)
			return
		}
		batch := s.entries[cursor-s.base:]
		cursor += uint64(len(batch))
		s.mu.Unlock()
		for _, e := range batch {
			if err := sc.write(e.frame()); err != nil {
				s.dropConn(sc)
				return
			}
		}
	}
}

// heartbeatLoop keeps the standby's lease fresh while the stream is idle.
func (s *Sender) heartbeatLoop(sc *senderConn) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-sc.gone:
			return
		case <-t.C:
			if err := sc.write(frame{kind: frameHeartbeat}); err != nil {
				s.dropConn(sc)
				return
			}
		}
	}
}

// ackLoop consumes the standby's cumulative acks.
func (s *Sender) ackLoop(sc *senderConn) {
	defer s.wg.Done()
	for {
		f, err := readFrame(sc.c)
		if err != nil {
			s.dropConn(sc)
			return
		}
		if f.kind != frameAck {
			continue
		}
		s.mu.Lock()
		if off := sc.start + f.seq; off > sc.acked {
			sc.acked = off
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

func (s *Sender) dropConn(sc *senderConn) {
	s.mu.Lock()
	if s.conn == sc {
		s.conn = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	sc.close()
}

// Prime seeds what shard's log retains, firstSeq being its floor
// (core.Replicator contract: called once per shard before any traffic flows
// through the tees).
func (s *Sender) Prime(shard int, recs [][]byte, firstSeq uint64) error {
	if shard < 0 || shard >= s.cfg.Shards {
		return fmt.Errorf("replica: prime for shard %d of %d", shard, s.cfg.Shards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.floors[shard] = firstSeq
	for i, rec := range recs {
		s.entries = append(s.entries, entry{shard: shard, seq: firstSeq + uint64(i), rec: append([]byte(nil), rec...)})
	}
	s.cond.Broadcast()
	return nil
}

// Mirror buffers one appended record for streaming (core.Replicator
// contract: called in store order per shard, must not block on the network).
func (s *Sender) Mirror(shard int, seq uint64, rec []byte) {
	s.mu.Lock()
	s.entries = append(s.entries, entry{shard: shard, seq: seq, rec: append([]byte(nil), rec...)})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Truncate forgets shard's records below before and queues the truncation
// for the standby, in stream order (core.Replicator contract: same calling
// discipline as Mirror). The retained stream is trimmed from its head up to
// the first entry some shard's floor still covers, so sender memory follows
// the store logs' own bound.
func (s *Sender) Truncate(shard int, before uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before <= s.floors[shard] {
		return
	}
	s.floors[shard] = before
	s.entries = append(s.entries, entry{shard: shard, seq: before, trunc: true})
	dead := 0
	for dead < len(s.entries) {
		e := s.entries[dead]
		// A truncation marker is dead once applied here: attach sends the
		// floors themselves.
		if !e.trunc && e.seq >= s.floors[e.shard] {
			break
		}
		dead++
	}
	if dead > 0 {
		// Copy, so the dropped records' memory goes with them; a stream
		// batch in flight keeps its own view of the old array.
		s.entries = append([]entry(nil), s.entries[dead:]...)
		s.base += uint64(dead)
	}
	s.cond.Broadcast()
}

// Barrier implements the core.Replicator ack gate. In local-durable mode it
// is a no-op. In replica-acked mode it waits (bounded) until the attached
// standby has acked every record mirrored so far; with no standby, or one
// that cannot keep up within BarrierTimeout, it degrades to local-durable —
// loudly, and dropping the sick standby so it resyncs — rather than failing,
// because the epoch it gates is already durably committed locally and an
// error would surface to clients as an abort of committed transactions.
func (s *Sender) Barrier() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cfg.Acked || s.closed {
		return nil
	}
	target := s.base + uint64(len(s.entries))
	sc := s.conn
	if sc == nil {
		s.noteDegradedLocked("no standby attached")
		return nil
	}
	if sc.acked >= target {
		s.degLog = false
		return nil
	}
	// Prod an immediate ack without holding the lock across a network write.
	go sc.write(frame{kind: frameSyncpoint, seq: target})
	expired := false
	timer := time.AfterFunc(s.cfg.BarrierTimeout, func() {
		s.mu.Lock()
		expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for !expired && !s.closed && s.conn == sc && sc.acked < target {
		s.cond.Wait()
	}
	if sc.acked >= target {
		s.degLog = false
		return nil
	}
	s.noteDegradedLocked("standby ack timeout")
	if s.conn == sc {
		s.conn = nil
		sc.close()
	}
	return nil
}

func (s *Sender) noteDegradedLocked(reason string) {
	s.degraded++
	if !s.degLog {
		log.Printf("replica: barrier degraded to local-durable: %s", reason)
		s.degLog = true
	}
}

// SenderStats is an observability snapshot.
type SenderStats struct {
	Attached         bool
	StreamLen        uint64   // global stream offset: entries ever mirrored
	HistoryLen       int      // entries retained for (re)attach — bounded by the log's bound
	Floors           []uint64 // per-shard first retained seq
	Acked            uint64   // stream offset acked by the attached standby
	BarriersDegraded uint64
}

// Stats snapshots the sender.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SenderStats{
		StreamLen:        s.base + uint64(len(s.entries)),
		HistoryLen:       len(s.entries),
		Floors:           append([]uint64(nil), s.floors...),
		BarriersDegraded: s.degraded,
	}
	if s.conn != nil {
		st.Attached = true
		st.Acked = s.conn.acked
	}
	return st
}

// Close shuts the sender down and detaches any standby.
func (s *Sender) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	sc := s.conn
	s.conn = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ln.Close()
	if sc != nil {
		sc.close()
	}
	s.wg.Wait()
	return nil
}
