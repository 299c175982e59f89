// Package clientproto implements the wire protocol between on-site
// application clients and the Obladi proxy (cmd/obladi-proxy): a
// length-prefixed binary framing that multiplexes many concurrent transaction
// sessions over one TCP connection and pipelines requests without waiting for
// replies. A connection opens with a 4-byte magic; the server closes one that
// does not. See frame.go for the frame format and mux.go/muxclient.go for the
// server and client halves.
package clientproto

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"obladi/internal/kvtxn"
	"obladi/internal/slab"
	"obladi/internal/wire"
)

// A server bounds each connection's resources, so an overloaded (or buggy,
// or adversarial) client costs the proxy only a bounded amount of memory and
// goroutines, whatever it sends.
const (
	// maxSessionsPerConn caps concurrently open mux sessions on one
	// connection; a Begin past the cap is refused with a shed reply
	// (retryable after earlier sessions settle).
	maxSessionsPerConn = 16384
	// maxPendingReadsPerSession caps a session's concurrently-resolving read
	// futures. A session pipelining reads faster than batches serve them
	// blocks its worker at the cap, which backpressures the connection's
	// read loop through the bounded op queue — instead of spawning an
	// unbounded resolver goroutine per read.
	maxPendingReadsPerSession = 64
)

// ServerStats is a snapshot of the wire server's overload counters.
type ServerStats struct {
	// OpenSessions is the current count of open mux sessions over all
	// connections.
	OpenSessions int64
	// ShedSessions counts Begins refused by the per-connection session cap.
	ShedSessions uint64
}

// Server serves the client protocol over a kvtxn.DB.
type Server struct {
	db  kvtxn.DB
	srv *wire.Server
	// The per-connection caps: maxSessionsPerConn and
	// maxPendingReadsPerSession outside tests.
	maxSessions, maxPendingReads int

	// Overload counters, atomic: sessions update them from every
	// connection's read loop and Stats snapshots them concurrently.
	openSessions atomic.Int64
	shedSessions atomic.Uint64
}

// NewServer starts listening on addr.
func NewServer(db kvtxn.DB, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("clientproto: listen: %w", err)
	}
	return NewServerListener(db, ln), nil
}

// NewServerListener serves on an already-bound listener. A standby proxy
// uses this to claim its client port the moment it starts — connections made
// before promotion wait in the listener's accept queue and are served once
// the promoted standby starts accepting — so clients' failover address lists
// stay static and a dial into the failover window costs latency, not errors.
func NewServerListener(db kvtxn.DB, ln net.Listener) *Server {
	return newServer(db, ln, maxSessionsPerConn, maxPendingReadsPerSession)
}

func newServer(db kvtxn.DB, ln net.Listener, maxSessions, maxPendingReads int) *Server {
	s := &Server{db: db, maxSessions: maxSessions, maxPendingReads: maxPendingReads}
	s.srv = wire.Serve(ln, s.serve)
	return s
}

// Stats returns a snapshot of the server's overload counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		OpenSessions: s.openSessions.Load(),
		ShedSessions: s.shedSessions.Load(),
	}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops accepting, closes every client connection, and waits for their
// sessions to wind down (open transactions abort).
func (s *Server) Close() error { return s.srv.Close() }

// serve checks the connection's magic and serves it; a connection that opens
// with anything else is closed without a reply.
func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReader(conn)
	var magic [len(muxMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != muxMagic {
		return
	}
	s.serveMux(conn, r)
}

// carver copies keys and values out of pooled frames into memory their new
// owner keeps: a slab.Bytes behind its own lock, since a connection's sessions
// (or a client's futures) copy from many goroutines at once.
type carver struct {
	mu sync.Mutex
	b  slab.Bytes
}

func (c *carver) copy(v []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.Copy(v)
}

// key carves k as a string (see slab.Bytes.String): it outlives the frame and
// pins its chunk while anyone holds it.
func (c *carver) key(k []byte) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.String(k)
}
