package storage

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestMemReadSlotsVector(t *testing.T) {
	m := NewMemBackend(4)
	must(t, m.WriteBucket(0, 1, slots("a0", "a1")))
	must(t, m.WriteBucket(2, 1, slots("c0", "c1", "c2")))
	got, err := m.ReadSlots([]SlotRef{{Bucket: 2, Slot: 2}, {Bucket: 0, Slot: 0}, {Bucket: 2, Slot: 0}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"c2", "a0", "c0"}
	if len(got) != len(want) {
		t.Fatalf("ReadSlots returned %d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("result %d = %q, want %q (results must be in ref order)", i, got[i], w)
		}
	}
}

func TestMemReadSlotsBadRefFailsWholeVector(t *testing.T) {
	m := NewMemBackend(2)
	must(t, m.WriteBucket(0, 1, slots("x")))
	if _, err := m.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 9, Slot: 0}}); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("bad bucket ref: %v", err)
	}
	if _, err := m.ReadSlots([]SlotRef{{Bucket: 0, Slot: 5}}); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("bad slot ref: %v", err)
	}
	if out, err := m.ReadSlots(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty vector: %v %v", out, err)
	}
}

func TestMemWriteBucketsVector(t *testing.T) {
	m := NewMemBackend(4)
	must(t, m.WriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: slots("a")},
		{Bucket: 1, Epoch: 1, Slots: slots("b")},
		{Bucket: 3, Epoch: 1, Slots: slots("d")},
	}))
	got, err := m.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 1, Slot: 0}, {Bucket: 3, Slot: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []string{"a", "b", "d"} {
		if string(got[i]) != w {
			t.Fatalf("slot %d = %q, want %q", i, got[i], w)
		}
	}
}

func TestMemWriteBucketsKeepsEpochOrdering(t *testing.T) {
	m := NewMemBackend(2)
	must(t, m.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: slots("new")}}))
	// A lower-epoch write after a higher-epoch one is an out-of-order
	// shadow-page write whether it arrives scalar or vectored.
	if err := m.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 1, Slots: slots("old")}}); err == nil {
		t.Fatal("out-of-order vectored write accepted")
	}
	// Same-epoch rewrite supersedes in place, as with scalar writes.
	must(t, m.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: slots("newer")}}))
	if n := m.VersionCount(0); n != 1 {
		t.Fatalf("same-epoch vectored rewrite left %d versions", n)
	}
}

func TestRecorderExpandsVectorOps(t *testing.T) {
	r := NewRecorder(NewMemBackend(4))
	must(t, r.WriteBuckets([]BucketWrite{
		{Bucket: 1, Epoch: 3, Slots: slots("x", "y")},
		{Bucket: 2, Epoch: 3, Slots: slots("z")},
	}))
	if _, err := r.ReadSlots([]SlotRef{{Bucket: 1, Slot: 0}, {Bucket: 2, Slot: 0}}); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Op: OpWriteBucket, Bucket: 1, Epoch: 3},
		{Op: OpWriteBucket, Bucket: 2, Epoch: 3},
		{Op: OpReadSlot, Bucket: 1, Slot: 0},
		{Op: OpReadSlot, Bucket: 2, Slot: 0},
	}
	ev := r.Events()
	if len(ev) != len(want) {
		t.Fatalf("recorded %d events, want %d: %v", len(ev), len(want), ev)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v (vector ops must expand per slot)", i, ev[i], want[i])
		}
	}
	calls := r.Calls()
	if calls.ReadSlots != 1 || calls.WriteBuckets != 1 {
		t.Fatalf("call counters: %+v", calls)
	}
	r.Reset()
	if c := r.Calls(); c != (CallStats{}) {
		t.Fatalf("Reset left call counters: %+v", c)
	}
}

func TestInvariantCheckerVectorDoubleRead(t *testing.T) {
	c := NewInvariantChecker(NewMemBackend(2))
	must(t, c.WriteBucket(0, 1, slots("a", "b")))
	if _, err := c.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 0, Slot: 1}}); err != nil {
		t.Fatal(err)
	}
	if v := c.Violation(); v != nil {
		t.Fatalf("distinct slots in one vector flagged: %v", v)
	}
	if _, err := c.ReadSlots([]SlotRef{{Bucket: 0, Slot: 1}}); err != nil {
		t.Fatal(err)
	}
	if c.Violation() == nil {
		t.Fatal("double read across vector calls not detected")
	}
}

func TestInvariantCheckerVectorWriteResets(t *testing.T) {
	c := NewInvariantChecker(NewMemBackend(2))
	must(t, c.WriteBucket(0, 1, slots("a")))
	if _, err := c.ReadSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	must(t, c.WriteBuckets([]BucketWrite{{Bucket: 0, Epoch: 2, Slots: slots("a2")}}))
	if _, err := c.ReadSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	if v := c.Violation(); v != nil {
		t.Fatalf("read after vectored rewrite flagged: %v", v)
	}
}

func TestLatencyVectorOneRoundTrip(t *testing.T) {
	inner := NewMemBackend(8)
	for b := 0; b < 8; b++ {
		must(t, inner.WriteBucket(b, 1, slots("x")))
	}
	// With MaxConcurrent 1, eight scalar reads would serialize into 8 round
	// trips (~80ms); one vectored read is a single request in a single slot.
	l := WithLatency(inner, Profile{Name: "p", Read: 10 * time.Millisecond, MaxConcurrent: 1})
	refs := make([]SlotRef, 8)
	for i := range refs {
		refs[i] = SlotRef{Bucket: i, Slot: 0}
	}
	start := time.Now()
	if _, err := l.ReadSlots(refs); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 8*time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("vectored read of 8 slots took %v, want ~one 10ms round trip", d)
	}
}

func TestLatencyVectorPerItemService(t *testing.T) {
	inner := NewMemBackend(8)
	for b := 0; b < 8; b++ {
		must(t, inner.WriteBucket(b, 1, slots("x")))
	}
	l := WithLatency(inner, Profile{Name: "p", ReadPerSlot: 2 * time.Millisecond, WritePerBucket: 2 * time.Millisecond})
	refs := make([]SlotRef, 8)
	for i := range refs {
		refs[i] = SlotRef{Bucket: i, Slot: 0}
	}
	start := time.Now()
	if _, err := l.ReadSlots(refs); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 14*time.Millisecond {
		t.Fatalf("vectored read of 8 slots with 2ms/slot service took %v, want >= ~16ms (vector calls are not free)", d)
	}
	writes := make([]BucketWrite, 8)
	for i := range writes {
		writes[i] = BucketWrite{Bucket: i, Epoch: 2, Slots: slots("y")}
	}
	start = time.Now()
	must(t, l.WriteBuckets(writes))
	if d := time.Since(start); d < 14*time.Millisecond {
		t.Fatalf("vectored write of 8 buckets with 2ms/bucket service took %v, want >= ~16ms", d)
	}
}

func TestProfileScaledVectorFields(t *testing.T) {
	p := Profile{Read: 10 * time.Millisecond, ReadPerSlot: 10 * time.Microsecond, WritePerBucket: 20 * time.Microsecond}
	q := p.Scaled(0.1)
	if q.ReadPerSlot != time.Microsecond || q.WritePerBucket != 2*time.Microsecond {
		t.Fatalf("Scaled did not scale per-item service times: %v/%v", q.ReadPerSlot, q.WritePerBucket)
	}
}

func TestRemoteVectorRoundTrip(t *testing.T) {
	c, backend := newRemotePair(t, 8)
	writes := make([]BucketWrite, 8)
	for i := range writes {
		writes[i] = BucketWrite{Bucket: i, Epoch: 1, Slots: slots(fmt.Sprintf("b%d-0", i), fmt.Sprintf("b%d-1", i))}
	}
	must(t, c.WriteBuckets(writes))
	if n := backend.VersionCount(3); n != 1 {
		t.Fatalf("vectored write did not reach backend: bucket 3 has %d versions", n)
	}
	var refs []SlotRef
	for i := 7; i >= 0; i-- {
		refs = append(refs, SlotRef{Bucket: i, Slot: 1})
	}
	got, err := c.ReadSlots(refs)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range refs {
		if want := fmt.Sprintf("b%d-1", r.Bucket); string(got[k]) != want {
			t.Fatalf("vector result %d = %q, want %q", k, got[k], want)
		}
	}
	// An empty vector is legal and cheap.
	if out, err := c.ReadSlots(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty vector over the wire: %v %v", out, err)
	}
	must(t, c.WriteBuckets(nil))
}

// TestRemoteVectorChunking drives a read vector past the per-frame ref
// bound: the client must split it across frames transparently, preserving
// ref order end-to-end.
func TestRemoteVectorChunking(t *testing.T) {
	c, _ := newRemotePair(t, 64)
	for b := 0; b < 64; b++ {
		must(t, c.WriteBucket(b, 1, slots(fmt.Sprintf("s%d", b))))
	}
	n := vectorChunkRefs*2 + 17
	refs := make([]SlotRef, n)
	for i := range refs {
		refs[i] = SlotRef{Bucket: i % 64, Slot: 0}
	}
	got, err := c.ReadSlots(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("chunked vector returned %d of %d results", len(got), n)
	}
	for i := 0; i < n; i += 997 {
		if want := fmt.Sprintf("s%d", i%64); string(got[i]) != want {
			t.Fatalf("result %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestRemoteVectorErrorsPropagate(t *testing.T) {
	c, _ := newRemotePair(t, 2)
	must(t, c.WriteBucket(0, 1, slots("x")))
	_, err := c.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}, {Bucket: 99, Slot: 0}})
	if err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("expected remote error for bad ref in vector, got %v", err)
	}
	if err := c.WriteBuckets([]BucketWrite{{Bucket: 99, Epoch: 1, Slots: slots("x")}}); err == nil {
		t.Fatal("vectored write to bad bucket succeeded")
	}
}

// TestRemoteVectorStressWithServerClose interleaves pipelined scalar calls,
// vector calls, and a mid-flight server close under -race: every in-flight
// caller must get an error or a result (no stranded waiters), and the client
// must fan the connection loss out cleanly.
func TestRemoteVectorStressWithServerClose(t *testing.T) {
	backend := NewMemBackend(64)
	for b := 0; b < 64; b++ {
		must(t, backend.WriteBucket(b, 1, slots("s0", "s1")))
	}
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				var err error
				switch (g + i) % 3 {
				case 0:
					_, err = c.ReadSlot((g+i)%64, i%2)
				case 1:
					refs := make([]SlotRef, 1+(i%17))
					for k := range refs {
						refs[k] = SlotRef{Bucket: (g + k) % 64, Slot: k % 2}
					}
					_, err = c.ReadSlots(refs)
				case 2:
					err = c.WriteBuckets([]BucketWrite{{Bucket: (g + i) % 64, Epoch: 1, Slots: slots("w0", "w1")}})
				}
				if err != nil {
					// Connection torn down mid-flight: the error must be
					// surfaced, not hung on.
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(20 * time.Millisecond)
	srv.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stranded waiters: workers still blocked 10s after server close")
	}
	// New calls on the dead connection fail fast rather than queueing.
	if _, err := c.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}}); err == nil {
		t.Fatal("vector call succeeded after connection loss")
	}
}

// TestDialTimeout covers the startup-hang fix: dialing a dead address must
// return within the configured timeout instead of blocking forever. A
// listener with a zero backlog whose accept queue is pre-filled models the
// dead shard: further SYNs are dropped, so an untimed dial would hang.
func TestDialTimeout(t *testing.T) {
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
		if conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
			defer conn.Close()
		} else {
			break // queue already full
		}
	}
	start := time.Now()
	_, err = dial(addr, 300*time.Millisecond)
	if err == nil {
		t.Skip("kernel accepted past the zero backlog; cannot simulate a hanging dial here")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dial took %v despite 300ms timeout", d)
	}
}

func TestDialTimeoutConnectsToLiveServer(t *testing.T) {
	srv, err := NewServer(NewMemBackend(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.NumBuckets(); err != nil || n != 1 {
		t.Fatalf("NumBuckets over timed dial: %d %v", n, err)
	}
}
