package clientproto_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
)

// failoverConfig returns a failover client's settings over addrs.
func failoverConfig(addrs ...string) clientproto.FailoverConfig {
	return clientproto.FailoverConfig{Addrs: addrs, MaxWait: 10 * time.Second}
}

// TestFailoverClientRedials pins the client plane's reconnect-with-replay:
// when the preferred endpoint dies, in-flight transactions fail as retryable
// aborts and the retry loop lands on the next address in the list.
func TestFailoverClientRedials(t *testing.T) {
	srvA := newServer(t, 1)
	srvB := newServer(t, 1)
	fc, err := clientproto.DialMuxFailover(failoverConfig(srvA.Addr(), srvB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db := clientproto.FailoverDB{C: fc}

	// A transaction before the failure lands on the preferred server.
	err = kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		return tx.Write("before", []byte("a"))
	})
	if err != nil {
		t.Fatal(err)
	}

	srvA.Close() // primary dies; its accepted connections die with it

	// The retry loop must ride the failure: the dead connection surfaces
	// retryable aborts, the client redials down the list onto B.
	err = kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		return tx.Write("after", []byte("b"))
	})
	if err != nil {
		t.Fatalf("transaction after failover: %v", err)
	}
	err = kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		v, found, err := tx.Read("after")
		if err != nil {
			return err
		}
		if !found || string(v) != "b" {
			return fmt.Errorf("read after failover: %q %v", v, found)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailoverClientBoundedWait: with every endpoint down, the redial loop
// gives up within MaxWait instead of spinning forever.
func TestFailoverClientBoundedWait(t *testing.T) {
	// A listener that never accepts, closed before dialing: a dead address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	cfg := failoverConfig(dead)
	cfg.MaxWait = 300 * time.Millisecond
	start := time.Now()
	_, err = clientproto.DialMuxFailover(cfg)
	if err == nil {
		t.Fatal("dial of a dead address list succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("bounded wait took %v", waited)
	}
}

// TestFailoverBeginSurfacesDialError: a Begin while every endpoint is down
// yields a transaction whose Commit reports the dial failure (not a
// retryable "session settled" lie that would mask the outage).
func TestFailoverBeginSurfacesDialError(t *testing.T) {
	srv := newServer(t, 1)
	cfg := failoverConfig(srv.Addr())
	cfg.MaxWait = 200 * time.Millisecond
	fc, err := clientproto.DialMuxFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db := clientproto.FailoverDB{C: fc}
	if err := kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		return tx.Write("k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !fc.Lost() {
		if time.Now().After(deadline) {
			t.Fatal("client never observed server close")
		}
		time.Sleep(time.Millisecond)
	}
	// Begin now faces a full outage: redialing gives up within MaxWait and
	// the transaction surfaces the dial failure, not a commit-unknown and
	// not a misleading "session settled".
	tx := fc.Begin()
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit during a full outage reported success")
	}
	if errors.Is(err, clientproto.ErrCommitUnknown) {
		t.Fatalf("never-sent transaction reported commit-unknown: %v", err)
	}
}

// TestFailoverBeginCtxBoundsRedial: a Begin during a full outage stops
// redialing at the first of its context's end and MaxWait, not at the end of
// a sweep or of a backoff sleep past it. With a context that ends first the
// transaction fails with the context's cause; without one, within MaxWait
// plus a small slack. A check of MaxWait only after each sweep overshoots by
// up to a whole jittered backoff (up to 200 ms around a 300 ms MaxWait), and
// four redials make its chance of passing about 1 %.
func TestFailoverBeginCtxBoundsRedial(t *testing.T) {
	for _, c := range []struct {
		name    string
		maxWait time.Duration
		ctx     time.Duration // 0: no context
		within  time.Duration
		redials int
	}{
		{"context ends first", 5 * time.Second, 50 * time.Millisecond, time.Second, 1},
		{"no context", 300 * time.Millisecond, 0, 400 * time.Millisecond, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newServer(t, 1)
			cfg := failoverConfig(srv.Addr())
			cfg.MaxWait = c.maxWait
			fc, err := clientproto.DialMuxFailover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			srv.Close()
			deadline := time.Now().Add(5 * time.Second)
			for !fc.Lost() {
				if time.Now().After(deadline) {
					t.Fatal("client never observed server close")
				}
				time.Sleep(time.Millisecond)
			}
			for range c.redials {
				ctx := context.Background()
				if c.ctx > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, c.ctx)
					defer cancel()
				}
				start := time.Now()
				err = fc.BeginCtx(ctx).Commit()
				if waited := time.Since(start); waited > c.within {
					t.Fatalf("the redial took %v (context %v, MaxWait %v), want at most %v", waited, c.ctx, c.maxWait, c.within)
				}
				if c.ctx > 0 && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("commit after the context ended: %v, want its deadline", err)
				}
				if c.ctx == 0 && (err == nil || !strings.Contains(err.Error(), "no proxy reachable within")) {
					t.Fatalf("commit after MaxWait: %v, want the redial's MaxWait error", err)
				}
			}
		})
	}
}
