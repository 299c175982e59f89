package clientproto

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"obladi/internal/wire"
)

// flakyListener fails Accept with a temporary error on the calls fail
// picks, and accepts from the listener it wraps on the others.
type flakyListener struct {
	net.Listener
	fail  func(call int32) bool
	calls atomic.Int32
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fail(l.calls.Add(1)) {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// TestServerSurvivesAcceptErrors: three failed Accepts (EMFILE under a
// connection flood) leave the proxy's client port serving the next
// connection — it used to stop accepting for good at the first — and a
// server backing off from Accepts that keep failing still closes at once.
func TestServerSurvivesAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fail: func(call int32) bool { return call != 4 }}
	srv := NewServerListener(&allocFreeDB{txn: allocFreeTxn{value: []byte("v")}}, fl)
	c, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The kernel completes the handshake whether or not anything accepts:
	// bound the wait, so a port that stopped accepting fails the test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tx := c.BeginCtx(ctx)
	if v, found, err := tx.Read("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("read after failed Accepts: %q %v %v", v, found, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for fl.calls.Load() < 8 {
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Close took %v mid-backoff", d)
	}
}

// TestDialMuxTimeout: DialMux pointed at a proxy that never answers the
// handshake must fail after wire.DialTimeout instead of hanging for the
// kernel's SYN timeout (minutes). A listener with a zero backlog whose accept
// queue is pre-filled models the blackholed proxy: further SYNs are dropped.
func TestDialMuxTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out wire.DialTimeout")
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// Fill the accept queue so subsequent handshakes stall.
	for i := 0; i < 4; i++ {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err != nil {
			break // queue already full
		}
		defer conn.Close()
	}
	dialed := make(chan error, 1)
	go func() {
		c, err := DialMux(addr)
		if err == nil {
			c.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err == nil {
			t.Skip("kernel accepted past the zero backlog; cannot simulate a hanging dial here")
		}
	case <-time.After(wire.DialTimeout + 5*time.Second):
		t.Fatalf("DialMux still hanging %v after its %v timeout", 5*time.Second, wire.DialTimeout)
	}
}
