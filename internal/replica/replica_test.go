package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/allocgate"
	"obladi/internal/storage"
	"obladi/internal/wire"
)

// TestFailoverConformance pins the proxy-failover contract: the lease link's
// frames (a hello that refuses another protocol, version, shard count or
// lease, and a hostile length refused before anything is sized by it), lease
// semantics (heartbeats hold it, silence and a fail-stopped primary release
// it), promotion fencing (the zombie primary's next append fails loudly),
// zero acknowledged-commit loss across a handoff, and promotion as a
// restart: after a thousand epochs, across a dropped link or right after a
// truncation, it fences once per shard, scans a log bounded by public
// parameters and makes exactly a restart's storage calls.
//
// The link has no frame checksum, so nothing here flips its bytes: it
// carries no data, a damaged hello fails checkHello and a damaged heartbeat
// its kind check, and either way the standby hangs up and redials. A frame
// cut short is internal/wire's torn body (wire:TestReadFrameLengths).
func TestFailoverConformance(t *testing.T) {
	checks := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"framing/roundtrip", checkFramingRoundTrip},
		{"framing/hostile-length", checkFramingHostileLength},
		{"framing/hello", checkHelloValidation},
		{"lease/heartbeat-holds", checkLeaseHeartbeatHolds},
		{"lease/expires-on-silence", checkLeaseExpires},
		{"lease/fail-stop-releases", checkFailStopReleasesLease},
		{"promotion/fences-zombie", checkPromotionFencesZombie},
		{"handoff/zero-acked-loss-local", checkZeroAckedLoss},
		{"lifecycle/late-attach-after-truncation", checkLateAttachAfterTruncation},
		{"lifecycle/reconnect-across-truncation", checkReconnectAcrossTruncation},
		{"lifecycle/promote-right-after-truncation", checkPromoteRightAfterTruncation},
	}
	for _, c := range checks {
		t.Run(c.name, c.run)
	}
}

// --- framing ---

var testPool wire.Pool

// encode writes frames through a bufio.Writer as the sender does and returns
// the bytes a standby would read.
func encode(t *testing.T, write ...func(w *bufio.Writer) error) *bufio.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range write {
		if err := f(w); err != nil {
			t.Fatal(err)
		}
	}
	return bufio.NewReader(&buf)
}

func hello(shards int, lease time.Duration) func(*bufio.Writer) error {
	return func(w *bufio.Writer) error { return writeHello(w, shards, lease) }
}

func rawFrame(kind uint8, id uint64, payload []byte) func(*bufio.Writer) error {
	return func(w *bufio.Writer) error { return wire.Write(w, kind, id, nil, "", payload) }
}

var heartbeat = rawFrame(kindHeartbeat, 0, nil)

// readOne reads the next frame at the standby's limit.
func readOne(t *testing.T, r *bufio.Reader) *wire.Buf {
	t.Helper()
	b, err := wire.ReadFrame(r, helloLen, &testPool)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkFramingRoundTrip reads a hello and a heartbeat — and a hello at the
// largest shard count — back as the standby reads them, then a clean end.
func checkFramingRoundTrip(t *testing.T) {
	const lease = 150 * time.Millisecond
	r := encode(t, hello(3, lease), heartbeat, hello(1<<16, lease))
	for i, shards := range []int{3, 0, 1 << 16} {
		b := readOne(t, r)
		if shards == 0 {
			if b.Kind() != kindHeartbeat || b.ID() != 0 || len(b.Payload()) != 0 {
				t.Fatalf("frame %d: heartbeat read as kind %d id %d payload %x", i, b.Kind(), b.ID(), b.Payload())
			}
		} else if n, err := checkHello(b, lease); err != nil || n != shards {
			t.Fatalf("frame %d: hello read as %d shards, %v; want %d", i, n, err, shards)
		}
		wire.Put(b)
	}
	if _, err := wire.ReadFrame(r, helloLen, &testPool); err != io.EOF {
		t.Fatalf("clean tail: got %v, want io.EOF", err)
	}
}

// checkFramingHostileLength feeds a length prefix claiming a 64 MB body: the
// standby's limit, the hello's size, refuses it before anything is sized by
// it. A standby reads whatever answers at the primary's address, so a
// claimed length must not buy an allocation.
func checkFramingHostileLength(t *testing.T) {
	hostile := binary.BigEndian.AppendUint32(nil, 64<<20)
	hostile = append(hostile, bytes.Repeat([]byte{0xa5}, 64)...)
	src := bytes.NewReader(hostile)
	r := bufio.NewReader(src)
	const runs = 64
	allocgate.OneP(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		src.Reset(hostile)
		r.Reset(src)
		if _, err := wire.ReadFrame(r, helloLen, &testPool); err == nil {
			t.Fatal("a 64 MB length prefix was read")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("refusing a 64 MB length prefix allocated %d B per read, want < 1 KB", per)
	}
}

// checkHelloValidation refuses every hello but one of this protocol and
// version, with a plausible shard count and the standby's own lease.
func checkHelloValidation(t *testing.T) {
	const lease = 750 * time.Millisecond
	b := readOne(t, encode(t, hello(4, lease)))
	if n, err := checkHello(b, lease); err != nil || n != 4 {
		t.Fatalf("good hello: %d, %v", n, err)
	}
	payload := binary.BigEndian.AppendUint32([]byte(linkMagic), 750)
	bads := map[string]func(*bufio.Writer) error{
		"heartbeat kind":    rawFrame(kindHeartbeat, linkVersion<<32|4, payload),
		"version 3":         rawFrame(kindHello, 3<<32|4, payload),
		"bad magic":         rawFrame(kindHello, linkVersion<<32|4, append([]byte("NOPE"), payload[4:]...)),
		"no lease":          rawFrame(kindHello, linkVersion<<32|4, []byte(linkMagic)),
		"shard count 0":     hello(0, lease),
		"shard count 65537": hello(1<<16+1, lease),
		"lease mismatch":    hello(4, lease+time.Millisecond),
	}
	for name, f := range bads {
		b := readOne(t, encode(t, f))
		if _, err := checkHello(b, lease); !errors.Is(err, ErrBadHello) {
			t.Fatalf("%s: got %v, want ErrBadHello", name, err)
		}
	}
}

// --- lease ---

// leaseClock is what a timed lease check measured: named instants since the
// check began, and how often and how evenly it polled the standby. A check
// logs it when it fails (logOnFailure): on a loaded host a failure is a late
// poll or a late heartbeat, and these tell which.
type leaseClock struct {
	start, last time.Time
	polls       int
	maxGap      time.Duration // the longest wait between two polls
	marks       []string
}

func newLeaseClock() *leaseClock { return &leaseClock{start: time.Now()} }

func (c *leaseClock) mark(what string) {
	c.marks = append(c.marks, fmt.Sprintf("%s at %v", what, time.Since(c.start)))
}

func (c *leaseClock) poll() {
	now := time.Now()
	if c.polls > 0 {
		c.maxGap = max(c.maxGap, now.Sub(c.last))
	}
	c.polls, c.last = c.polls+1, now
}

// logOnFailure logs the clock and the standby's lease state if t failed.
func (c *leaseClock) logOnFailure(t *testing.T, sb *Standby) {
	if !t.Failed() {
		return
	}
	sb.mu.Lock()
	beat, connected := sb.lastBeat, sb.connected
	sb.mu.Unlock()
	t.Logf("lease timings: failed at %v; %v; %d polls, longest gap %v; last heartbeat %v ago, connected %v; lease %v, heartbeat every %v, read deadline %v",
		time.Since(c.start), c.marks, c.polls, c.maxGap, time.Since(beat), connected, sb.lease, sb.clock.heartbeat, sb.clock.readDeadline)
}

// holdsFor fails t if sb's lease expires within d.
func holdsFor(t *testing.T, sb *Standby, d time.Duration, c *leaseClock) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		c.poll()
		if sb.PrimaryDown() {
			t.Fatal("lease expired while the primary was heartbeating")
		}
	}
}

func checkLeaseHeartbeatHolds(t *testing.T) {
	const lease = 250 * time.Millisecond
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stores := []storage.Backend{storage.NewMemBackend(8)}
	c := newLeaseClock()
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	defer c.logOnFailure(t, sb)
	holdsFor(t, sb, 600*time.Millisecond, c)
	if !sb.Connected() {
		t.Fatal("standby never attached")
	}
}

func checkLeaseExpires(t *testing.T) {
	const lease = 100 * time.Millisecond
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	stores := []storage.Backend{storage.NewMemBackend(8)}
	c := newLeaseClock()
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	defer c.logOnFailure(t, sb)
	waitAttached(t, sb)
	c.mark("attached")
	if sb.PrimaryDown() {
		t.Fatal("lease expired under live heartbeats")
	}
	s.Close() // primary dies: heartbeats stop
	c.mark("primary closed")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := sb.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	c.mark("lease expired")
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("failover detection took %v", waited)
	}
}

func waitAttached(t *testing.T, sb *Standby) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !sb.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLinkTimingsFromLease pins every clock of the link to the lease, and
// both ends to the same default lease. The dial bound is the lease: a
// primary whose TCP connect takes longer than a fixed redial pace must
// still attach.
func TestLinkTimingsFromLease(t *testing.T) {
	for _, tc := range []struct {
		lease time.Duration
		want  timings
	}{
		{750 * time.Millisecond, timings{heartbeat: 93750 * time.Microsecond, readDeadline: 187500 * time.Microsecond, redial: 46875 * time.Microsecond, dial: 750 * time.Millisecond}},
		{150 * time.Millisecond, timings{heartbeat: 18750 * time.Microsecond, readDeadline: 37500 * time.Microsecond, redial: 9375 * time.Microsecond, dial: 150 * time.Millisecond}},
		{8 * time.Second, timings{heartbeat: time.Second, readDeadline: 2 * time.Second, redial: 500 * time.Millisecond, dial: 8 * time.Second}},
	} {
		if got := linkTimings(tc.lease); got != tc.want {
			t.Fatalf("lease %v: timings %+v, want %+v", tc.lease, got, tc.want)
		}
	}
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sb, err := NewStandby(s.Addr(), []storage.Backend{storage.NewMemBackend(8)}, StandbyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	if s.cfg.Lease != defaultLease || sb.lease != defaultLease || sb.clock != linkTimings(defaultLease) {
		t.Fatalf("default leases: sender %v, standby %v with %+v; want %v", s.cfg.Lease, sb.lease, sb.clock, defaultLease)
	}
	waitAttached(t, sb)
}

// flakyListener fails its first fails Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	fails   int32
	accepts atomic.Int32
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.accepts.Add(1) <= l.fails {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// TestSenderSurvivesAcceptErrors: failed Accepts cost the lease link
// nothing. Were the sender to stop accepting with its listener still open, a
// standby's dial would complete in the kernel's backlog and wait for a hello
// that never comes, and its lease would run out over a healthy primary.
func TestSenderSurvivesAcceptErrors(t *testing.T) {
	const lease = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}
	s := newSender(fl, SenderConfig{Shards: 1, Lease: lease})
	defer s.Close()
	c := newLeaseClock()
	sb, err := NewStandby(s.Addr(), []storage.Backend{storage.NewMemBackend(8)}, StandbyConfig{LeaseTimeout: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	defer c.logOnFailure(t, sb)
	holdsFor(t, sb, 3*lease, c)
	if !sb.Connected() || fl.accepts.Load() <= fl.fails {
		t.Fatalf("standby attached %v after %d Accept calls", sb.Connected(), fl.accepts.Load())
	}
}

// linkProxy forwards the lease link, primary to standby, through a listener
// of its own. blackhole silences every connection open at the time without
// closing either end — a half-open link: the route is dead, the primary
// alive — while connections accepted later forward again.
type linkProxy struct {
	ln      net.Listener
	target  string
	accepts atomic.Int32

	mu    sync.Mutex
	conns []*proxiedConn
}

type proxiedConn struct {
	up, down net.Conn // to the primary, to the standby
	holed    atomic.Bool
}

func newLinkProxy(t *testing.T, target string) *linkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkProxy{ln: ln, target: target}
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *linkProxy) addr() string { return p.ln.Addr().String() }

func (p *linkProxy) accept() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		pc := &proxiedConn{up: up, down: down}
		p.mu.Lock()
		p.conns = append(p.conns, pc)
		p.mu.Unlock()
		p.accepts.Add(1)
		go pc.forward()
	}
}

// forward copies the primary's bytes to the standby until the connection is
// blackholed, and drops them from then on.
func (pc *proxiedConn) forward() {
	buf := make([]byte, 256)
	for {
		n, err := pc.up.Read(buf)
		if pc.holed.Load() {
			if err != nil {
				return
			}
			continue
		}
		if err != nil {
			pc.down.Close()
			return
		}
		if _, err := pc.down.Write(buf[:n]); err != nil {
			pc.up.Close()
			return
		}
	}
}

func (p *linkProxy) blackhole() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.conns {
		pc.holed.Store(true)
	}
}

func (p *linkProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.conns {
		pc.up.Close()
		pc.down.Close()
	}
}

// TestStandbyRedialsBlackholedLink: a link that falls silent without closing
// is given up after the read deadline and redialed, so the lease holds and
// the standby reattaches. Without a read deadline it would wait on the dead
// link until its lease ran out and promote over a live primary.
func TestStandbyRedialsBlackholedLink(t *testing.T) {
	const lease = 200 * time.Millisecond
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	link := newLinkProxy(t, s.Addr())
	c := newLeaseClock()
	sb, err := NewStandby(link.addr(), []storage.Backend{storage.NewMemBackend(8)}, StandbyConfig{LeaseTimeout: lease})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	defer c.logOnFailure(t, sb)
	waitAttached(t, sb)
	c.mark("attached")
	link.blackhole()
	c.mark("link blackholed")
	holdsFor(t, sb, 3*lease, c)
	if n := link.accepts.Load(); n < 2 || !sb.Connected() {
		t.Fatalf("standby attached %v over %d connections, want reattached", sb.Connected(), n)
	}
}
