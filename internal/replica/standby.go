package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"obladi/internal/storage"
	"obladi/internal/wire"
)

// StandbyConfig tunes the standby's end of the lease link.
type StandbyConfig struct {
	// LeaseTimeout is how long the standby tolerates a primary that sends no
	// heartbeat before declaring it dead. It must equal the primary's
	// SenderConfig.Lease: the hello carries the primary's, and the standby
	// refuses a mismatch. Every other clock of the link derives from it.
	// Default 750ms — sub-second failover with margin for scheduling jitter.
	LeaseTimeout time.Duration
}

// Standby watches the primary's lease and, once it expires, promotes: it
// fences every storage backend, so the dead (or zombie) primary's next
// mutation fails with storage.ErrFenced, and returns the fenced views.
// core.NewSharded over them recovers from the durable log exactly as a
// restart does; the standby holds no state of its own.
type Standby struct {
	primary string
	stores  []storage.Backend
	lease   time.Duration
	clock   timings
	pool    wire.Pool

	mu        sync.Mutex
	lastBeat  time.Time
	connected bool

	ctx    context.Context // done once the watch stops
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewStandby starts watching the lease of the primary whose Sender listens
// at primary. stores must be the backends, in the same shard order, that the
// primary serves: Promote fences them.
func NewStandby(primary string, stores []storage.Backend, cfg StandbyConfig) (*Standby, error) {
	if len(stores) == 0 {
		return nil, errors.New("replica: standby needs the shard stores")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = defaultLease
	}
	s := &Standby{
		primary:  primary,
		stores:   stores,
		lease:    cfg.LeaseTimeout,
		clock:    linkTimings(cfg.LeaseTimeout),
		lastBeat: time.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// run keeps the lease link attached while the standby watches, redialing
// after any error or timeout.
func (s *Standby) run() {
	defer s.wg.Done()
	for s.ctx.Err() == nil {
		if c, err := wire.Dial(s.primary, s.clock.dial); err == nil {
			s.serve(c)
		}
		select {
		case <-s.ctx.Done():
		case <-time.After(s.clock.redial):
		}
	}
}

// serve reads one connection's heartbeats until it drops or falls silent for
// the read deadline. Only a heartbeat renews the lease: neither the dial nor
// the hello proves the primary's proxy is serving.
func (s *Standby) serve(c net.Conn) {
	defer c.Close()
	defer context.AfterFunc(s.ctx, func() { c.Close() })()
	r := bufio.NewReaderSize(c, 64)
	hello, err := s.next(c, r)
	if err != nil {
		return
	}
	shards, err := checkHello(hello, s.lease)
	wire.Put(hello)
	if err == nil && shards != len(s.stores) {
		err = fmt.Errorf("%w: primary serves %d shards, this standby %d", ErrBadHello, shards, len(s.stores))
	}
	if err != nil {
		log.Printf("replica: standby rejecting primary %s: %v", s.primary, err)
		return
	}
	s.setConnected(true)
	defer s.setConnected(false)
	for {
		b, err := s.next(c, r)
		if err != nil {
			return
		}
		kind := b.Kind()
		wire.Put(b)
		if kind != kindHeartbeat {
			log.Printf("replica: unexpected frame kind %d from primary %s, redialing", kind, s.primary)
			return
		}
		s.mu.Lock()
		s.lastBeat = time.Now()
		s.mu.Unlock()
	}
}

// next reads the link's next frame, failing if none arrives within the read
// deadline.
func (s *Standby) next(c net.Conn, r *bufio.Reader) (*wire.Buf, error) {
	c.SetReadDeadline(time.Now().Add(s.clock.readDeadline)) // fails only on a closed c, which the read reports
	return wire.ReadFrame(r, helloLen, &s.pool)
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
	return time.Since(s.lastBeat) > s.lease
}

// WaitPrimaryDown blocks until the lease expires or ctx is done.
func (s *Standby) WaitPrimaryDown(ctx context.Context) error {
	poll := max(s.lease/16, time.Millisecond)
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
// core.NewSharded. It does not wait out a dial in flight, which can take a
// lease against an unreachable primary host: that dial's connection, if it
// completes, is closed unread.
func (s *Standby) Promote() ([]storage.Backend, error) {
	s.cancel()
	return storage.FenceAll(s.stores)
}

// Stop ends the lease watch without promoting and waits for the link to
// close (idempotent).
func (s *Standby) Stop() {
	s.cancel()
	s.wg.Wait()
}
