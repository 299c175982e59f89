package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

var pool Pool

// The two protocols' frame limits: internal/storage's and
// internal/clientproto's.
var limits = []int{64 << 20, 16 << 20}

// zeros is an endless source of zero bytes, so a body of any length costs
// no input buffer.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// framed is a reader holding a length prefix of n followed by body bytes
// of a frame body.
func framed(n uint32, body int64) *bufio.Reader {
	prefix := binary.BigEndian.AppendUint32(nil, n)
	return bufio.NewReader(io.MultiReader(bytes.NewReader(prefix), io.LimitReader(zeros{}, body)))
}

// TestReadFrameLengths is the one hostile-length table both protocols'
// readers answer to: a length under the header or over the limit fails
// before anything is sized by it, a frame of exactly the limit reads, and a
// body cut short fails as a torn read. PeekHeader answers the same lengths
// the same way and reads a torn body's header, leaving the frame unread.
func TestReadFrameLengths(t *testing.T) {
	for _, limit := range limits {
		for _, tc := range []struct {
			name string
			n    uint32
			body int64
			ok   bool
		}{
			{"length 0", 0, 0, false},
			{"length 8", 8, 8, false},
			{"length = header", HeaderLen, HeaderLen, true},
			{"length = limit", uint32(limit), int64(limit), true},
			{"length = limit+1", uint32(limit) + 1, int64(limit) + 1, false},
			{"length 2^32-1", 0xffffffff, 64, false},
			{"torn body", 64, 63, false},
		} {
			r := framed(tc.n, tc.body)
			_, _, payload, err := PeekHeader(r, limit)
			if peekOK := tc.ok || tc.name == "torn body"; (err == nil) != peekOK || (peekOK && payload != int(tc.n)-HeaderLen) {
				t.Fatalf("limit %d, %s: PeekHeader says %d payload bytes, err %v", limit, tc.name, payload, err)
			}
			if err == nil && r.Buffered() < PrefixLen+HeaderLen {
				t.Fatalf("limit %d, %s: PeekHeader consumed the header", limit, tc.name)
			}
			b, err := ReadFrame(r, limit, &pool)
			if tc.ok {
				if err != nil || len(b.B) != int(tc.n) {
					t.Fatalf("limit %d, %s: err %v", limit, tc.name, err)
				}
				Put(b)
				continue
			}
			if err == nil {
				t.Fatalf("limit %d, %s: read a %d byte frame", limit, tc.name, len(b.B))
			}
			if tc.name == "torn body" && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("limit %d, torn body: %v, want io.ErrUnexpectedEOF", limit, err)
			}
		}
	}
}

// frameBytes is a frame's encoding, built byte by byte.
func frameBytes(dst []byte, kind uint8, id uint64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderLen+len(payload)))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...)
}

// FuzzReadFrame reads a stream of frames until the reader stops: every frame
// it returns must re-encode, header and payload, to exactly the bytes it
// consumed, and whatever it refuses must be a length outside [HeaderLen,
// limit] or a stream that ends early.
func FuzzReadFrame(f *testing.F) {
	const limit = 64
	one := func(kind uint8, id uint64, payload string) []byte {
		return frameBytes(nil, kind, id, []byte(payload))
	}
	f.Add(one(1, 1, "payload"))
	f.Add(append(one(0x80, 1<<32|7, ""), one(0x81, 0xffffffffffffffff, "\x01boom")...))
	f.Add(one(2, 3, string(make([]byte, limit-HeaderLen))))
	f.Add(one(2, 3, string(make([]byte, limit-HeaderLen+1))))
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 20, 1})
	// The lease link's (internal/replica): a hello of version 4, 3 shards and
	// a 750 ms lease, then a heartbeat.
	f.Add(append(one(1, 4<<32|3, "OBRP\x00\x00\x02\xee"), one(2, 0, "")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var consumed []byte
		for {
			b, err := ReadFrame(r, limit, &pool)
			if err != nil {
				rest := data[len(consumed):]
				if len(rest) >= 4 {
					n := binary.BigEndian.Uint32(rest)
					if n >= HeaderLen && n <= limit && len(rest)-4 >= int(n) {
						t.Fatalf("refused a well-formed frame of %d bytes: %v", n, err)
					}
				}
				return
			}
			if len(b.B) < HeaderLen || len(b.B) > limit {
				t.Fatalf("read a %d byte body under a %d byte limit", len(b.B), limit)
			}
			consumed = frameBytes(consumed, b.Kind(), b.ID(), b.Payload())
			Put(b)
			if !bytes.HasPrefix(data, consumed) {
				t.Fatalf("re-encoded frames %x are not the stream's prefix %x", consumed, data)
			}
		}
	})
}

// TestWriteGoldenBytes pins Write's frame: header, then pre, s and p.
func TestWriteGoldenBytes(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := Write(w, 0x81, 0x0102030405060708, []byte{9, 9}, "key", []byte("value")); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 9 + 2 + 3 + 5, 0x81, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 'k', 'e', 'y', 'v', 'a', 'l', 'u', 'e'}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("Write put %x, want %x", out.Bytes(), want)
	}
}

// echoServer answers every frame with a reply of its kind, id and payload.
func echoServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, func(conn net.Conn) {
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			b, err := ReadFrame(r, 1<<20, &pool)
			if err != nil {
				return
			}
			err = Write(w, b.Kind(), b.ID(), nil, "", b.Payload())
			Put(b)
			if err != nil {
				return
			}
		}
	})
	t.Cleanup(func() { s.Close() })
	return s
}

func dialClient(t *testing.T, addr string, limit int) *Client {
	t.Helper()
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, limit, &pool)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientPipelinesAndFails sends several requests before reading any
// reply, refuses an oversized one without sending it, and fails every
// pending reply (and every later Send) once the connection is gone.
func TestClientPipelinesAndFails(t *testing.T) {
	s := echoServer(t)
	c := dialClient(t, s.Addr(), 1<<10)
	ctx := context.Background()
	var chans []chan *Buf
	for id := uint64(1); id <= 8; id++ {
		ch, err := c.Send(uint8(id), id<<32|id, []byte{byte(id)}, "k", []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		id := uint64(i + 1)
		b, ok, err := Recv(ctx, ch)
		if !ok || err != nil || b.Kind() != uint8(id) || b.ID() != id<<32|id || string(b.Payload()) != string([]byte{byte(id)})+"kv" {
			t.Fatalf("reply %d: ok %v err %v", id, ok, err)
		}
		Put(b)
	}
	if _, err := c.Send(1, 99, nil, "", make([]byte, 1<<10)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Send: %v, want ErrTooLarge", err)
	}
	if c.Err() != nil {
		t.Fatalf("an oversized request failed the connection: %v", c.Err())
	}

	// A reply that never comes: the server closes the connection under it.
	s.Close()
	ch, err := c.Send(1, 100, nil, "", nil)
	if err == nil {
		if _, ok, _ := Recv(ctx, ch); ok {
			t.Fatal("a reply arrived from a closed server")
		}
	}
	if c.Err() == nil {
		t.Fatal("the client did not record the connection's failure")
	}
	if _, err := c.Send(1, 101, nil, "", nil); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Send on a failed connection: %v", err)
	}
	c.Close()
	if _, err := c.Send(1, 102, nil, "", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
}

// TestSendWriteFailureFailsConnection: a write that fails marks the client
// lost at once and closes every pending reply's channel, without waiting for
// the read loop to notice.
func TestSendWriteFailureFailsConnection(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClient(&failWrites{Conn: cli}, 1<<10, &pool)
	defer c.Close()
	c.mu.Lock()
	pending := make(chan *Buf, 1)
	c.pending[7] = pending
	c.mu.Unlock()
	if _, err := c.Send(1, 8, nil, "", []byte("x")); err == nil {
		t.Fatal("Send over a failing connection succeeded")
	}
	if c.Err() == nil {
		t.Fatal("a failed write left the client alive")
	}
	if _, ok := <-pending; ok {
		t.Fatal("a pending reply's channel stayed open")
	}
}

type failWrites struct{ net.Conn }

func (failWrites) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// flakyListener fails its first fails Accepts with a temporary error, then
// accepts from the listener it wraps; every Accept call is counted.
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

// TestAcceptRetriesAfterErrors: three failed Accepts cost the port nothing —
// the next connection is served — and a server backing off from an Accept
// that keeps failing still closes at once.
func TestAcceptRetriesAfterErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}
	served := make(chan struct{}, 1)
	s := Serve(fl, func(net.Conn) { served <- struct{}{} })
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatalf("no connection served after %d Accept calls", fl.accepts.Load())
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	always := &flakyListener{Listener: ln2, fails: 1 << 30}
	s2 := Serve(always, func(net.Conn) {})
	// Six failures put the backoff at 320 ms and rising.
	for always.accepts.Load() < 7 {
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	s2.Close()
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Close took %v mid-backoff", d)
	}
}

// TestDrainWaitsThenCloses: Drain lets a connection that ends on its own
// within the grace finish, and closes one that would not.
func TestDrainWaitsThenCloses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grace time.Duration
	}{{"ends within grace", 10 * time.Second}, {"outlives grace", 50 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			s := Serve(ln, func(conn net.Conn) {
				close(started)
				io.Copy(io.Discard, conn) // until the client or Drain closes it
			})
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			<-started
			if tc.grace > time.Second {
				time.AfterFunc(20*time.Millisecond, func() { conn.Close() })
			}
			start := time.Now()
			if err := s.Drain(tc.grace); err != nil {
				t.Fatal(err)
			}
			d := time.Since(start)
			if tc.grace > time.Second && d > time.Second {
				t.Fatalf("Drain took %v for a connection that ended after 20ms", d)
			}
			if tc.grace < time.Second && (d < tc.grace || d > time.Second) {
				t.Fatalf("Drain took %v with a grace of %v", d, tc.grace)
			}
		})
	}
}

// TestPoolKeepsNothingOverCap reads a run of frames longer than MaxPooled
// between short ones, grows a pooled buffer past the cap, puts every buffer
// back, and then finds no pooled buffer over the cap, and after a
// collection no long buffer held at all: a long frame's buffer is its own,
// and one that outgrew the cap is held only weakly.
func TestPoolKeepsNothingOverCap(t *testing.T) {
	var p Pool
	var stream []byte
	for i, n := range []int{100, MaxPooled + 1, 300, 4 * MaxPooled, MaxPooled - HeaderLen, 700 << 10, 10} {
		stream = frameBytes(stream, 1, uint64(i), make([]byte, n))
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var held []*Buf
	for {
		b, err := ReadFrame(r, 1<<20, &p)
		if err != nil {
			break
		}
		held = append(held, b)
	}
	if len(held) != 7 {
		t.Fatalf("read %d frames, want 7", len(held))
	}
	grown := p.Get(0)
	grown.B = append(grown.B, make([]byte, 2*MaxPooled)...)
	held = append(held, grown)
	for _, b := range held {
		Put(b)
	}
	for i := 0; i < 64; i++ {
		b := p.Get(0)
		if cap(b.B) > MaxPooled {
			t.Fatalf("the pool handed out a %d byte buffer, over its %d byte cap", cap(b.B), MaxPooled)
		}
		defer Put(b)
	}
	runtime.GC()
	if b := p.long.Value(); b != nil {
		t.Fatalf("a %d byte buffer outlived a collection", cap(b.B))
	}
}

// TestPoolReusesLongBufferUntilCollected: with no collection in between, a
// long frame's buffer is handed to the next long frame that fits it, and one
// that does not fit gets a new one; a collection frees the one held.
func TestPoolReusesLongBufferUntilCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p Pool
	a := p.Get(3 * MaxPooled)
	Put(a)
	if b := p.Get(2 * MaxPooled); b != a {
		t.Fatal("a long frame did not reuse the long buffer put back before it")
	}
	Put(a)
	if b := p.Get(4 * MaxPooled); b == a || cap(b.B) < 4*MaxPooled {
		t.Fatalf("a longer frame got the %d byte buffer put back before it", cap(b.B))
	}
	Put(a)
	allocs := testing.AllocsPerRun(100, func() { Put(p.Get(2 * MaxPooled)) })
	if allocs != 0 {
		t.Errorf("%.1f allocations per long frame with no collection in between, want 0", allocs)
	}
	a = nil // the pool's is the last hold
	runtime.GC()
	if p.long.Value() != nil {
		t.Fatal("the long buffer outlived a collection")
	}
}

// TestBeginSendStreamsPayload sends a frame whose payload is written in
// pieces after BeginSend: it reaches the peer as the frame Send would have
// built, a frame over the limit is refused without taking the connection,
// and a failed write fails the connection as Send's does.
func TestBeginSendStreamsPayload(t *testing.T) {
	s := echoServer(t)
	c := dialClient(t, s.Addr(), 1<<20)
	pieces := [][]byte{[]byte("head"), bytes.Repeat([]byte{7}, 200<<10), nil, []byte("tail")}
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	if _, _, err := c.BeginSend(3, 9, 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized BeginSend: %v, want ErrTooLarge", err)
	}
	w, ch, err := c.BeginSend(3, 9, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pieces {
		w.Write(p)
	}
	if err := c.EndSend(); err != nil {
		t.Fatal(err)
	}
	b, ok, err := Recv(context.Background(), ch)
	if !ok || err != nil || b.Kind() != 3 || b.ID() != 9 || !bytes.Equal(b.Payload(), bytes.Join(pieces, nil)) {
		t.Fatalf("echo of a streamed frame: ok %v err %v", ok, err)
	}
	Put(b)
	if _, err := c.Send(1, 10, nil, "after", nil); err != nil {
		t.Fatalf("Send after a streamed frame: %v", err)
	}

	cli, srv := net.Pipe()
	defer srv.Close()
	fc := NewClient(&failWrites{Conn: cli}, 1<<20, &pool)
	defer fc.Close()
	w, ch, err = fc.BeginSend(3, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pieces {
		w.Write(p)
	}
	if err := fc.EndSend(); err == nil {
		t.Fatal("EndSend over a failing connection reported no error")
	}
	if _, ok := <-ch; ok || fc.Err() == nil {
		t.Fatalf("a failed streamed write left the connection alive (Err %v)", fc.Err())
	}
}
