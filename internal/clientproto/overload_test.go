package clientproto

// Wire-level overload-control tests with a scripted server: the server
// decides exactly which operations shed, which pins the client half of the
// contract — sheds are retryable aborts that the retry loop paces with
// jittered backoff, over the same connection: an overloaded (not dead)
// primary is neither hammered nor redialed.

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/core"
	"obladi/internal/kvtxn"
)

// shedServer accepts mux connections, counting them, and replies to every
// frame: Begin/Abort/Read/Write get OK, Commit gets a load-shed until the
// shed budget runs out, then OK.
func shedServer(t *testing.T, shedCommits int) (addr string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = new(atomic.Int64)
	var sheds atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer c.Close()
				magic := make([]byte, len(muxMagic))
				if _, err := io.ReadFull(c, magic); err != nil {
					return
				}
				r := bufio.NewReaderSize(c, 1<<16)
				for {
					f, err := recvFrame(r)
					if err != nil {
						return
					}
					var reply []byte
					if f.kind == frameCommit && sheds.Add(1) <= int64(shedCommits) {
						reply = appendFrame2(nil, frameErr, f.session, f.req,
							encodeErrPayload(errCodeShed, "epoch out of slots"), nil)
					} else {
						reply = appendFrame(nil, frame{kind: frameOK, session: f.session, req: f.req})
					}
					f.release()
					if _, err := c.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// TestShedBackoffNoRetryStorm pins the retry-storm fix: retryable sheds from
// an overloaded primary make kvtxn.RunWithRetries over a FailoverDB replay
// behind growing jittered backoff, on the SAME connection, never by
// redialing the address list, and the backoff is served once per shed.
func TestShedBackoffNoRetryStorm(t *testing.T) {
	addr, conns := shedServer(t, 3)
	fc, err := DialMuxFailover(FailoverConfig{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	start := time.Now()
	attempts := 0
	err = kvtxn.RunWithRetries(FailoverDB{C: fc}, 10, func(kvtxn.Txn) error {
		attempts++
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("RunWithRetries: %v", err)
	}
	if attempts != 4 {
		t.Fatalf("%d attempts, want 4 (3 sheds, then the commit)", attempts)
	}
	// Three sheds wait out 1, 2 and 4 ms, each jittered to at least half:
	// the sequence cannot complete in under 0.5+1+2 = 3.5ms. A storming
	// client finishes in microseconds.
	if elapsed < 3500*time.Microsecond {
		t.Fatalf("4 attempts took %v: sheds are not backing off", elapsed)
	}
	// Overloaded is not dead: the client must never have redialed.
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1 (shed retries must not sweep the address list)", n)
	}
}

// TestShedPacingJitterSpreads sanity-checks that the jitter helper spreads
// delays over [d/2, d) rather than synchronizing a fleet on one retry tick.
func TestShedPacingJitterSpreads(t *testing.T) {
	const d = time.Second
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		j := core.Jitter(d)
		if j < d/2 || j >= d {
			t.Fatalf("Jitter(%v) = %v, want [%v, %v)", d, j, d/2, d)
		}
		seen[j] = true
	}
	if len(seen) < 8 {
		t.Fatalf("64 jitter draws produced %d distinct values: not jittering", len(seen))
	}
}
