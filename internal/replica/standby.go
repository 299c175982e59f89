package replica

import (
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"obladi/internal/storage"
)

// StandbyConfig tunes the standby's end of the lease link.
type StandbyConfig struct {
	// LeaseTimeout is how long the standby tolerates a primary that sends no
	// heartbeat before declaring it dead. The primary heartbeats every
	// SenderConfig.HeartbeatEvery, so the lease should be several heartbeats
	// wide. Default 750ms — sub-second failover with margin for scheduling
	// jitter.
	LeaseTimeout time.Duration
	// RedialEvery paces reconnection attempts after a dropped link.
	// Default 50ms.
	RedialEvery time.Duration
}

// Standby watches the primary's lease and, once it expires, promotes: it
// fences every storage backend, so the dead (or zombie) primary's next
// mutation fails with storage.ErrFenced, and returns the fenced views.
// core.NewSharded over them recovers from the durable log exactly as a
// restart does; the standby holds no state of its own.
type Standby struct {
	primary string
	stores  []storage.Backend
	cfg     StandbyConfig

	mu        sync.Mutex
	lastBeat  time.Time
	connected bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewStandby starts watching the lease of the primary whose Sender listens
// at primary. stores must be the backends, in the same shard order, that the
// primary serves: Promote fences them.
func NewStandby(primary string, stores []storage.Backend, cfg StandbyConfig) (*Standby, error) {
	if len(stores) == 0 {
		return nil, errors.New("replica: standby needs the shard stores")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 750 * time.Millisecond
	}
	if cfg.RedialEvery <= 0 {
		cfg.RedialEvery = 50 * time.Millisecond
	}
	s := &Standby{
		primary:  primary,
		stores:   stores,
		cfg:      cfg,
		lastBeat: time.Now(),
		stop:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// run keeps the lease link attached while the standby watches, redialing
// after any drop.
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

// serve reads one connection's heartbeats until it drops. Only a heartbeat
// renews the lease: neither the dial nor the hello proves the primary's proxy
// is serving.
func (s *Standby) serve(c net.Conn) {
	defer c.Close()
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
	if err != nil || shards != len(s.stores) {
		log.Printf("replica: standby rejecting primary %s: %v (shards %d, want %d)", s.primary, err, shards, len(s.stores))
		return
	}
	s.setConnected(true)
	defer s.setConnected(false)
	for {
		f, err := readFrame(c)
		if err != nil {
			return
		}
		if f.kind != frameHeartbeat {
			log.Printf("replica: unexpected frame kind %d from primary %s, redialing", f.kind, s.primary)
			return
		}
		s.mu.Lock()
		s.lastBeat = time.Now()
		s.mu.Unlock()
	}
}

func (s *Standby) setConnected(v bool) {
	s.mu.Lock()
	s.connected = v
	s.mu.Unlock()
}

// Connected reports whether a lease link to the primary is up.
func (s *Standby) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// PrimaryDown reports whether the lease has expired: no heartbeat for longer
// than LeaseTimeout. The clock starts at NewStandby, so a primary that was
// already dead (or never reachable) expires one lease after startup.
func (s *Standby) PrimaryDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastBeat) > s.cfg.LeaseTimeout
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

// Promote stops watching and fences every store. From here on the old
// primary's mutations fail with storage.ErrFenced, so nothing but the caller
// extends the durable logs. It returns the fenced views, in shard order, for
// core.NewSharded.
func (s *Standby) Promote() ([]storage.Backend, error) {
	s.Stop()
	return storage.FenceAll(s.stores)
}

// Stop ends the lease watch without promoting (idempotent; Promote calls it).
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
