package replica

import (
	"errors"
	"net"
	"sync"
	"time"
)

// SenderConfig tunes the primary's end of the lease link.
type SenderConfig struct {
	// Shards is the proxy's shard count, announced in the hello frame and
	// checked by the standby (a mis-paired standby fails loudly). Required.
	Shards int
	// HeartbeatEvery paces the heartbeats that renew the standby's lease.
	// Default 100ms.
	HeartbeatEvery time.Duration
	// Alive, when set, is asked before every heartbeat. Once it returns false
	// the sender stays silent, so the standby's lease runs out: a primary
	// passes "my proxy has not fail-stopped", because a wedged proxy must not
	// hold the lease.
	Alive func() bool
}

// Sender is the primary's end of the lease link. It writes a hello and then
// heartbeats to the newest standby connection and never reads from the link.
type Sender struct {
	cfg  SenderConfig
	ln   net.Listener
	stop chan struct{}

	mu   sync.Mutex
	conn net.Conn

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewSender listens for a standby on addr (e.g. ":7042" or "127.0.0.1:0").
func NewSender(addr string, cfg SenderConfig) (*Sender, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("replica: SenderConfig.Shards required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Sender{cfg: cfg, ln: ln, stop: make(chan struct{})}
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
		// Newest attach wins: a standby that redialed after a network blip
		// replaces its own stale connection.
		s.mu.Lock()
		old := s.conn
		s.conn = c
		s.mu.Unlock()
		if old != nil {
			old.Close()
		}
		s.wg.Add(1)
		go s.heartbeat(c)
	}
}

// heartbeat holds one standby's lease: a hello, then a heartbeat every
// HeartbeatEvery for as long as the primary is alive.
func (s *Sender) heartbeat(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	if writeFrame(c, helloFrame(s.cfg.Shards)) != nil {
		return
	}
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		if s.cfg.Alive != nil && !s.cfg.Alive() {
			return
		}
		if writeFrame(c, frame{kind: frameHeartbeat}) != nil {
			return
		}
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// Close stops heartbeating and detaches the standby, whose lease then runs
// out.
func (s *Sender) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.ln.Close()
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}
