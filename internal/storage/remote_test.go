package storage

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// newRemotePair starts a server over a fresh MemBackend and returns a
// connected client plus the backend for white-box inspection.
func newRemotePair(t *testing.T, numBuckets int) (*Client, *MemBackend) {
	t.Helper()
	backend := NewMemBackend(numBuckets)
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, backend
}

func TestRemoteBucketRoundTrip(t *testing.T) {
	c, _ := newRemotePair(t, 4)
	if err := c.WriteBucket(2, 7, slots("alpha", "beta")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadSlot(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "beta" {
		t.Fatalf("ReadSlot = %q", got)
	}
	all, err := c.ReadBucket(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || string(all[0]) != "alpha" {
		t.Fatalf("ReadBucket = %q", all)
	}
	n, err := c.NumBuckets()
	if err != nil || n != 4 {
		t.Fatalf("NumBuckets = %d, %v", n, err)
	}
}

func TestRemoteCommitRollback(t *testing.T) {
	c, backend := newRemotePair(t, 1)
	must(t, c.WriteBucket(0, 1, slots("keep")))
	must(t, c.CommitEpoch(1))
	must(t, c.WriteBucket(0, 2, slots("drop")))
	must(t, c.RollbackTo(1))
	got, err := c.ReadSlot(0, 0)
	if err != nil || string(got) != "keep" {
		t.Fatalf("after rollback: %q, %v", got, err)
	}
	if backend.CommittedEpoch() != 1 {
		t.Fatalf("backend committed epoch = %d", backend.CommittedEpoch())
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	c, _ := newRemotePair(t, 1)
	_, err := c.ReadSlot(99, 0)
	if err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("expected remote error, got %v", err)
	}
	if !strings.Contains(err.Error(), "no such bucket") {
		t.Fatalf("error does not carry server message: %v", err)
	}
}

func TestRemoteKV(t *testing.T) {
	c, _ := newRemotePair(t, 0)
	if _, found, err := c.Get("nope"); err != nil || found {
		t.Fatalf("Get(nope) = %v %v", found, err)
	}
	must(t, c.Put("key", []byte("value")))
	v, found, err := c.Get("key")
	if err != nil || !found || string(v) != "value" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	must(t, c.Delete("key"))
	if _, found, _ := c.Get("key"); found {
		t.Fatal("key survives delete")
	}
}

func TestRemoteEmptyValues(t *testing.T) {
	c, _ := newRemotePair(t, 1)
	must(t, c.Put("empty", nil))
	v, found, err := c.Get("empty")
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, found, err)
	}
	must(t, c.WriteBucket(0, 1, [][]byte{nil, {}}))
	a, err := c.ReadSlot(0, 0)
	if err != nil || len(a) != 0 {
		t.Fatalf("nil slot: %q %v", a, err)
	}
}

func TestRemoteLog(t *testing.T) {
	c, _ := newRemotePair(t, 0)
	seq, err := c.Append([]byte("one"))
	if err != nil || seq != 1 {
		t.Fatalf("Append = %d %v", seq, err)
	}
	seq, err = c.Append([]byte("two"))
	if err != nil || seq != 2 {
		t.Fatalf("Append = %d %v", seq, err)
	}
	recs, err := c.Scan(1)
	if err != nil || len(recs) != 2 || string(recs[1]) != "two" {
		t.Fatalf("Scan = %q %v", recs, err)
	}
	must(t, c.Truncate(2))
	recs, err = c.Scan(0)
	if err != nil || len(recs) != 1 || string(recs[0]) != "two" {
		t.Fatalf("after truncate: %q %v", recs, err)
	}
	last, err := c.LastSeq()
	if err != nil || last != 2 {
		t.Fatalf("LastSeq = %d %v", last, err)
	}
}

func TestRemoteLargeSlots(t *testing.T) {
	c, _ := newRemotePair(t, 1)
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	must(t, c.WriteBucket(0, 1, [][]byte{big}))
	got, err := c.ReadSlot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("1 MiB slot corrupted in transit")
	}
}

func TestRemotePipelining(t *testing.T) {
	c, _ := newRemotePair(t, 64)
	for b := 0; b < 64; b++ {
		must(t, c.WriteBucket(b, 1, slots(fmt.Sprintf("bucket-%d", b))))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64*50)
	for g := 0; g < 50; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 64; b++ {
				got, err := c.ReadSlot(b, 0)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != fmt.Sprintf("bucket-%d", b) {
					errs <- fmt.Errorf("bucket %d returned %q", b, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerWorkersShrinkWhenIdle drives a burst of pipelined reads against a
// latency-injected store, which grows the connection's handler workers, and
// requires the extra workers to exit once the connection goes idle: a
// long-lived connection does not keep its peak worker set.
func TestServerWorkersShrinkWhenIdle(t *testing.T) {
	const burst = 64
	inner := NewMemBackend(burst)
	for b := 0; b < burst; b++ {
		must(t, inner.WriteBucket(b, 1, slots("x")))
	}
	srv, err := NewServer(WithLatency(inner, Profile{Name: "slow", Read: 20 * time.Millisecond}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for b := 0; b < burst; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			if _, err := c.ReadSlot(b, 0); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	if peak := runtime.NumGoroutine(); peak < before+burst/4 {
		t.Fatalf("goroutines %d -> %d after a burst of %d slow reads: the burst did not grow the worker set", before, peak, burst)
	}
	deadline := time.Now().Add(10 * serverWorkerIdle)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d, %v after the burst: idle workers stay", before, runtime.NumGoroutine(), 10*serverWorkerIdle)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := c.ReadSlot(1, 0); err != nil {
		t.Fatalf("read after the workers shrank: %v", err)
	}
}

func TestRemoteMultipleClients(t *testing.T) {
	backend := NewMemBackend(1)
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	must(t, c1.Put("shared", []byte("from-c1")))
	v, found, err := c2.Get("shared")
	if err != nil || !found || string(v) != "from-c1" {
		t.Fatalf("c2 sees %q %v %v", v, found, err)
	}
}

func TestRemoteClientAfterServerClose(t *testing.T) {
	backend := NewMemBackend(1)
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	must(t, c.Put("a", []byte("b")))
	srv.Close()
	if err := c.Put("x", []byte("y")); err == nil {
		t.Fatal("Put succeeded after server close")
	}
}

func TestRemoteCallAfterClientClose(t *testing.T) {
	c, _ := newRemotePair(t, 1)
	c.Close()
	if _, err := c.NumBuckets(); err == nil {
		t.Fatal("call succeeded on closed client")
	}
}
