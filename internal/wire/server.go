package wire

import (
	"net"
	"sync"
	"time"
)

// A failed Accept is retried after a backoff of 5 ms doubling to 1 s
// (net/http's policy) until the server closes: one EMFILE under a connection
// flood must not cost the port for good, and a persistent error must not
// spin a core.
const (
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Server accepts connections on a listener and serves each on a goroutine of
// its own, closing it when serve returns.
type Server struct {
	ln    net.Listener
	serve func(net.Conn)

	done     chan struct{} // closed by Drain; ends an accept backoff early
	accepted chan struct{} // closed once the accept loop has returned
	conns    sync.WaitGroup

	mu     sync.Mutex
	open   map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting on ln and hands each connection to serve.
func Serve(ln net.Listener, serve func(net.Conn)) *Server {
	s := &Server{
		ln:       ln,
		serve:    serve,
		done:     make(chan struct{}),
		accepted: make(chan struct{}),
		open:     make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer close(s.accepted)
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			backoff = max(minAcceptBackoff, min(2*backoff, maxAcceptBackoff))
			t := time.NewTimer(backoff)
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.open[conn] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.conns.Done()
	s.serve(conn)
	conn.Close()
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

// Close stops accepting, closes every connection and waits for their serve
// calls to return.
func (s *Server) Close() error { return s.Drain(0) }

// Drain stops accepting, waits up to grace for the open connections to end
// on their own (clients closing after their last request), then closes
// whatever is left and waits for every serve call to return.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.accepted // no connection joins s.conns from here on
	idle := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(idle)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-idle:
		case <-t.C:
		}
		t.Stop()
	}
	s.mu.Lock()
	for conn := range s.open {
		conn.Close()
	}
	s.mu.Unlock()
	<-idle
	return err
}
