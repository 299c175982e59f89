package replica

import (
	"bufio"
	"context"
	"errors"
	"net"
	"time"

	"obladi/internal/wire"
)

// SenderConfig tunes the primary's end of the lease link.
type SenderConfig struct {
	// Shards is the proxy's shard count, announced in the hello frame and
	// checked by the standby (a mis-paired standby fails loudly). Required.
	Shards int
	// Lease is the standby's lease, announced in the hello: the standby
	// refuses a primary whose lease is not its own. The sender heartbeats
	// every Lease/8. Default 750ms.
	Lease time.Duration
	// Alive, when set, is asked before every heartbeat. Once it returns false
	// the sender stays silent, so the standby's lease runs out: a primary
	// passes "my proxy has not fail-stopped", because a wedged proxy must not
	// hold the lease.
	Alive func() bool
}

// Sender is the primary's end of the lease link. It writes a hello and then
// heartbeats to every standby connection and never reads from the link.
type Sender struct {
	cfg    SenderConfig
	srv    *wire.Server
	ctx    context.Context // done once Close is called
	cancel context.CancelFunc
}

// NewSender listens for a standby on addr (e.g. ":7042" or "127.0.0.1:0").
func NewSender(addr string, cfg SenderConfig) (*Sender, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("replica: SenderConfig.Shards required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newSender(ln, cfg), nil
}

// newSender serves the lease link on ln.
func newSender(ln net.Listener, cfg SenderConfig) *Sender {
	if cfg.Lease <= 0 {
		cfg.Lease = defaultLease
	}
	s := &Sender{cfg: cfg}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.srv = wire.Serve(ln, s.heartbeat)
	return s
}

// Addr returns the bound listen address.
func (s *Sender) Addr() string { return s.srv.Addr() }

// heartbeat holds one standby's lease: a hello, then a heartbeat every
// Lease/8 for as long as the primary is alive. A connection whose peer is
// gone ends on its first failed write.
func (s *Sender) heartbeat(c net.Conn) {
	w := bufio.NewWriterSize(c, 64)
	if writeHello(w, s.cfg.Shards, s.cfg.Lease) != nil {
		return
	}
	t := time.NewTicker(linkTimings(s.cfg.Lease).heartbeat)
	defer t.Stop()
	for {
		if s.cfg.Alive != nil && !s.cfg.Alive() {
			return
		}
		if wire.Write(w, kindHeartbeat, 0, nil, "", nil) != nil {
			return
		}
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Close stops heartbeating and detaches every standby, whose lease then runs
// out.
func (s *Sender) Close() error {
	s.cancel()
	return s.srv.Close()
}
