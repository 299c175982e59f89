package storage

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	if err := c.WriteBucket(2, 7, slots("alpha", "bravo")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadSlot(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bravo" {
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

func TestRemoteEmptyValues(t *testing.T) {
	c, _ := newRemotePair(t, 1)
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
	if _, err := c1.Append([]byte("from-c1")); err != nil {
		t.Fatal(err)
	}
	recs, err := c2.Scan(0)
	if err != nil || len(recs) != 1 || string(recs[0]) != "from-c1" {
		t.Fatalf("c2 sees %q %v", recs, err)
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
	if _, err := c.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.Append([]byte("x")); err == nil {
		t.Fatal("Append succeeded after server close")
	}
}

func TestRemoteCallAfterClientClose(t *testing.T) {
	c, _ := newRemotePair(t, 1)
	c.Close()
	if _, err := c.NumBuckets(); err == nil {
		t.Fatal("call succeeded on closed client")
	}
}

// TestServerReadsRaceCommits serves readers while a writer rewrites and
// commits every bucket epoch after epoch, so each commit retires versions
// whose slabs the next write reuses. Every slot of an epoch-e version holds
// byte e throughout: a reply encoded from a slab being reused would carry a
// torn mix, and under -race the overlap itself is reported. A MemBackend is
// served bare and under a trace recorder: a wrapper's reads are copied under
// the store's lock too.
func TestServerReadsRaceCommits(t *testing.T) {
	const numBuckets, slotsPer, slotSize = 8, 40, 64
	run := func(t *testing.T, backend Backend, epochs int) {
		srv, err := NewServer(backend, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dial := func() *Client {
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}
		writer := dial()
		writeEpoch := func(e int) {
			writes := make([]BucketWrite, numBuckets)
			for b := range writes {
				slots := make([][]byte, slotsPer)
				for i := range slots {
					slots[i] = bytes.Repeat([]byte{byte(e)}, slotSize)
				}
				writes[b] = BucketWrite{Bucket: b, Epoch: uint64(e), Slots: slots}
			}
			if err := writer.WriteBuckets(writes); err != nil {
				t.Error(err)
			}
			if err := writer.CommitEpoch(uint64(e)); err != nil {
				t.Error(err)
			}
		}
		writeEpoch(1)
		var refs []SlotRef
		for b := 0; b < numBuckets; b++ {
			for i := 0; i < slotsPer; i++ {
				refs = append(refs, SlotRef{Bucket: b, Slot: i})
			}
		}
		uniform := func(what string, slots ...[]byte) error {
			for _, sl := range slots {
				if len(sl) != slotSize || !bytes.Equal(sl, bytes.Repeat(sl[:1], slotSize)) {
					return fmt.Errorf("%s: torn slot %x", what, sl)
				}
			}
			return nil
		}
		done := make(chan struct{})
		errs := make(chan error, 3)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			c := dial()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						errs <- nil
						return
					default:
					}
					var err error
					switch i % 3 {
					case 0:
						var got [][]byte
						if got, err = c.ReadSlots(refs); err == nil {
							err = uniform("ReadSlots", got...)
						}
					case 1:
						var got [][]byte
						if got, err = c.ReadBucket(i % numBuckets); err == nil {
							err = uniform("ReadBucket", got...)
						}
					default:
						var got []byte
						if got, err = c.ReadSlot(i%numBuckets, i%slotsPer); err == nil {
							err = uniform("ReadSlot", got)
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for e := 2; e <= epochs; e++ {
			writeEpoch(e)
		}
		close(done)
		wg.Wait()
		for r := 0; r < 3; r++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("mem", func(t *testing.T) { run(t, NewMemBackend(numBuckets), 300) })
	t.Run("recorder-mem", func(t *testing.T) { run(t, NewRecorder(NewMemBackend(numBuckets)), 300) })
	t.Run("logheap", func(t *testing.T) {
		g, err := OpenDiskGroupOpts(t.TempDir(), 1, numBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		run(t, g.Backends()[0], 100)
	})
	t.Run("disk", func(t *testing.T) {
		b := openDisk(t, t.TempDir(), numBuckets)
		defer b.Close()
		run(t, b, 100)
	})
}

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
// connection flood) leave the server serving the next connection, and a
// server backing off from Accepts that keep failing still closes at once.
func TestServerSurvivesAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fail: func(call int32) bool { return call != 4 }}
	srv := newServer(NewMemBackend(3), fl)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.NumBuckets(); err != nil || n != 3 {
		t.Fatalf("NumBuckets after failed Accepts: %d, %v", n, err)
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

// countWrites counts the WriteBuckets calls that reach a backend.
type countWrites struct {
	Backend
	calls atomic.Int32
}

func (c *countWrites) WriteBuckets(writes []BucketWrite) error {
	c.calls.Add(1)
	return c.Backend.WriteBuckets(writes)
}

// TestServerStreamsLongVectorsInGroups: a write-back vector longer than a
// pooled buffer reaches a server's store in several WriteBuckets calls, a
// group of whole buckets each.
func TestServerStreamsLongVectorsInGroups(t *testing.T) {
	const numBuckets, slotsPer = 24, 40
	writes := make([]BucketWrite, numBuckets)
	for b := range writes {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, 150)
		}
		writes[b] = BucketWrite{Bucket: b, Epoch: 1, Slots: slots}
	}
	counted := &countWrites{Backend: NewMemBackend(numBuckets)}
	srv, err := NewServer(counted, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteBuckets(writes); err != nil {
		t.Fatal(err)
	}
	if calls := counted.calls.Load(); calls < 2 {
		t.Errorf("%d WriteBuckets calls for a %d-bucket vector of 12 KB buckets: not streamed in groups", calls, numBuckets)
	}
	for b, w := range writes {
		got, err := counted.ReadBucket(b)
		if err != nil || len(got) != slotsPer || !bytes.Equal(got[slotsPer-1], w.Slots[slotsPer-1]) {
			t.Fatalf("bucket %d reads back %d slots, err %v", b, len(got), err)
		}
	}
}
