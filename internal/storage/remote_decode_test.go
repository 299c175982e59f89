package storage

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"obladi/internal/allocgate"
	"obladi/internal/wire"
)

// Tests of the storage server's request decoding: hostile frames, what a
// decoded write retains, and what decoding costs.

// encodeWriteBuckets is the client's wireWriteBuckets payload for writes.
func encodeWriteBuckets(writes []BucketWrite) []byte {
	var enc encoder
	enc.u32(uint32(len(writes)))
	for _, w := range writes {
		enc.u32(uint32(w.Bucket))
		enc.u64(w.Epoch)
		enc.u32(uint32(len(w.Slots)))
		for _, s := range w.Slots {
			enc.bytes(s)
		}
	}
	return enc.buf
}

func be32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

// hostileFrame is one malformed request.
type hostileFrame struct {
	name    string
	op      wireOp
	payload []byte
}

// hostileFrames lists write and read frames whose counts or lengths promise
// more than the payload holds; every strict prefix of two valid write frames
// and of a log append (the formats are self-delimiting, so each of those is
// short); every strict prefix of each mutation that carries one u64; each of
// those mutations, the write frame and the append with a byte behind it
// (each would change seededStore); a fence with a payload; and every
// reserved op, carrying the payload its retired call sent.
func hostileFrames() []hostileFrame {
	oneBucket := encodeWriteBuckets([]BucketWrite{{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), []byte("bravo"), []byte("gamma")}}})
	vector := encodeWriteBuckets([]BucketWrite{
		{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), []byte("bravo")}},
		{Bucket: 2, Epoch: 1, Slots: [][]byte{[]byte("gamma")}},
	})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hdr := cat(be32(1), be32(0), be32(1)) // bucket 1, epoch 1 (u64)
	one := cat(be32(1), hdr)              // a one-bucket vector up to its slot count
	frames := []hostileFrame{
		{"bucket slot count 2^20 over no slots", wireWriteBuckets, cat(one, be32(1<<20))},
		{"bucket slot count 2^32-1", wireWriteBuckets, cat(one, be32(0xffffffff))},
		{"bucket slot count one too many", wireWriteBuckets, cat(one, be32(2), be32(1), []byte("x"))},
		{"bucket slot length 2^31-1", wireWriteBuckets, cat(one, be32(1), be32(0x7fffffff), []byte("x"))},
		{"bucket slot length 2^32-1", wireWriteBuckets, cat(one, be32(1), be32(0xffffffff), []byte("x"))},
		{"bucket second slot overruns", wireWriteBuckets, cat(one, be32(2), be32(1), []byte("x"), be32(9), []byte("short"))},
		{"vector bucket count 2^20", wireWriteBuckets, cat(be32(1<<20), hdr, be32(0))},
		{"vector bucket count 2^32-1", wireWriteBuckets, be32(0xffffffff)},
		{"vector bucket count one too many", wireWriteBuckets, cat(be32(2), hdr, be32(0))},
		{"vector slot count 2^20", wireWriteBuckets, cat(be32(1), hdr, be32(1<<20), be32(0))},
		{"vector slot length 64 MiB", wireWriteBuckets, cat(be32(1), hdr, be32(1), be32(64<<20), []byte("x"))},
		{"vector second bucket inflated", wireWriteBuckets, cat(be32(2), hdr, be32(1), be32(1), []byte("x"), hdr, be32(3), be32(1<<30))},
		{"read-slots count 2^20", wireReadSlots, cat(be32(1<<20), be32(0), be32(0))},
		{"read-slots count one too many", wireReadSlots, cat(be32(2), be32(0), be32(0))},
		{"retired scalar slot read", 1, cat(be32(0), be32(0))},
		{"retired scalar bucket write", 3, oneBucket[4:]},
		{"retired KV get", 7, cat(be32(1), []byte("k"))},
		{"retired KV put", 8, cat(be32(1), []byte("k"), be32(1), []byte("v"))},
		{"retired KV delete", 9, cat(be32(1), []byte("k"))},
	}
	for cut := 0; cut < len(oneBucket); cut++ {
		frames = append(frames, hostileFrame{fmt.Sprintf("one-bucket write cut at %d", cut), wireWriteBuckets, oneBucket[:cut]})
	}
	for cut := 0; cut < len(vector); cut++ {
		frames = append(frames, hostileFrame{fmt.Sprintf("write-buckets cut at %d", cut), wireWriteBuckets, vector[:cut]})
	}
	frames = append(frames, hostileFrame{"write-buckets with a trailing byte", wireWriteBuckets, append(vector, 0)})
	appendRec := cat(be32(3), []byte("rec"))
	for cut := 0; cut < len(appendRec); cut++ {
		frames = append(frames, hostileFrame{fmt.Sprintf("log-append cut at %d", cut), wireLogAppend, appendRec[:cut]})
	}
	frames = append(frames,
		hostileFrame{"log-append with a trailing byte", wireLogAppend, append(appendRec, 0)},
		hostileFrame{"fence with a payload", wireFence, []byte{0}})
	for _, m := range []struct {
		name string
		op   wireOp
		v    uint64
	}{{"commit-epoch", wireCommitEpoch, 2}, {"rollback-to", wireRollbackTo, 0}, {"truncate", wireLogTruncate, 2}} {
		full := binary.BigEndian.AppendUint64(nil, m.v)
		for cut := 0; cut < len(full); cut++ {
			frames = append(frames, hostileFrame{fmt.Sprintf("%s cut at %d", m.name, cut), m.op, full[:cut]})
		}
		frames = append(frames, hostileFrame{m.name + " with a trailing byte", m.op, append(full, 0)})
	}
	return frames
}

// seededStore is a store any stray mutation visibly changes: bucket 0 holds
// an epoch-2 version over the committed epoch-1 one, and the log two
// records.
func seededStore(t *testing.T) *MemBackend {
	mem := NewMemBackend(8)
	must(t, mem.WriteBucket(0, 1, [][]byte{[]byte("one")}))
	must(t, mem.CommitEpoch(1))
	must(t, mem.WriteBucket(0, 2, [][]byte{[]byte("two")}))
	for _, rec := range []string{"r1", "r2"} {
		if _, err := mem.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// storeState renders what a mutation can change: the committed epoch, every
// bucket's newest version and version count, and the log.
func storeState(mem *MemBackend) string {
	var b strings.Builder
	fmt.Fprintf(&b, "committed %d;", mem.CommittedEpoch())
	for i := range mem.ix.buckets {
		slots, err := mem.ReadBucket(i)
		fmt.Fprintf(&b, " bucket %d: %d versions, newest %q %v;", i, mem.VersionCount(i), slots, err)
	}
	last, err := mem.LastSeq()
	recs, _ := mem.Scan(0)
	fmt.Fprintf(&b, " log to %d %v: %q", last, err, recs)
	return b.String()
}

// TestServerHandleRejectsHostileFrames: a frame that promises more than it
// carries, or a mutation whose payload is not exactly its fields, fails as a
// per-request error before anything is sized by its length fields, and
// leaves the store and the fence register as they were. Write-backs do not
// reach handle; TestStreamedWriteBucketsRefusesHostileFrames covers them.
func TestServerHandleRejectsHostileFrames(t *testing.T) {
	// TotalAlloc is process-wide, so nothing but this goroutine may allocate
	// while a window is open. The collector is off. With one P (OneP) no
	// other goroutine runs during a window, and this one cannot move to a P
	// whose sync.Pool cache holds no fmt printer, where an error message
	// would allocate a fresh one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.OneP(t)
	for _, hf := range hostileFrames() {
		if hf.op == wireWriteBuckets {
			continue
		}
		mem := seededStore(t)
		before := storeState(mem)
		s := &Server{backend: mem}
		var hs scratch
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		status, resp := s.handle(&connState{}, &hs, hf.op, hf.payload, nil)
		runtime.ReadMemStats(&m1)
		if status != statusErr || len(resp) == 0 {
			t.Errorf("%s: status %d, response %q; want an error", hf.name, status, resp)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4096 {
			t.Errorf("%s: %d bytes allocated rejecting a %d byte payload", hf.name, grew, len(hf.payload))
		}
		if cap(hs.refs) > len(hf.payload) {
			t.Errorf("%s: scratch grew to %d refs on a %d byte payload", hf.name, cap(hs.refs), len(hf.payload))
		}
		// A frame that does not decode never reaches the backend, not even
		// with the entries ahead of the bad one.
		if after := storeState(mem); after != before {
			t.Errorf("%s changed the store:\n%s\nto\n%s", hf.name, before, after)
		}
		if s.fence.highest != 0 {
			t.Errorf("%s issued fence token %d", hf.name, s.fence.highest)
		}
	}
}

// checkWellFormed decodes a successful response to op and requires it to be
// exactly one value of the op's response type.
func checkWellFormed(t *testing.T, op wireOp, resp []byte) {
	t.Helper()
	d := decoder{buf: resp}
	switch op {
	case wireFence, wireLogAppend, wireLogLastSeq:
		d.u64()
	case wireNumBuckets:
		d.u32()
	case wireReadBucket, wireReadSlots, wireLogScan:
		d.fields()
	}
	if d.err != nil || len(d.buf) != 0 {
		t.Fatalf("op %d: malformed response %x (err %v, %d bytes left over)", op, resp, d.err, len(d.buf))
	}
}

// reservedOps are the op numbers a server answers as unknown: the retired
// scalar slot read (1) and bucket write (3), and the baselines' retired
// key-value get, put and delete (7-9).
var reservedOps = []wireOp{1, 3, 7, 8, 9}

// FuzzServerHandle throws arbitrary requests at the server's handler over a
// small seeded MemBackend: it must not panic, must answer with an error or a
// well-formed response, a refused mutation or a reserved op must leave the
// store as it was and a reserved op be refused. A write-back never reaches
// handle (FuzzStreamWriteBuckets fuzzes those).
func FuzzServerHandle(f *testing.F) {
	for _, hf := range hostileFrames() {
		f.Add(byte(hf.op), hf.payload)
	}
	valid := encodeWriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: [][]byte{[]byte("alpha"), []byte("bravo"), []byte("gamma")}},
		{Bucket: 3, Epoch: 1, Slots: nil},
		{Bucket: 7, Epoch: 2, Slots: [][]byte{bytes.Repeat([]byte{7}, 300)}},
	})
	f.Add(byte(wireWriteBuckets), valid)
	f.Add(byte(wireRollbackTo), binary.BigEndian.AppendUint64(nil, 1))
	f.Add(byte(wireReadSlots), bytes.Join([][]byte{be32(1), be32(0), be32(0)}, nil))
	f.Add(byte(wireReadBucket), be32(0))
	f.Add(byte(wireLogAppend), bytes.Join([][]byte{be32(3), []byte("rec")}, nil))
	f.Add(byte(wireLogScan), make([]byte, 8))
	f.Add(byte(wireLogScan), bytes.Repeat([]byte{0xb9}, 8)) // found by this fuzzer: a from past 2^63 panicked MemBackend.Scan
	f.Add(byte(wireNumBuckets), []byte{})
	f.Add(byte(wireLogLastSeq), []byte{})
	f.Add(byte(wireFence), []byte{})
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		if wireOp(op) == wireWriteBuckets {
			return
		}
		// Something to read, so read ops have successful answers too, and to
		// lose, so a stray mutation shows.
		mem := seededStore(t)
		before := storeState(mem)
		s := &Server{backend: mem}
		var hs scratch
		status, resp := s.handle(&connState{}, &hs, wireOp(op), payload, nil)
		if slices.Contains(reservedOps, wireOp(op)) {
			if status != statusErr {
				t.Fatalf("reserved op %d answered %d: %x", op, status, resp)
			}
			if after := storeState(mem); after != before {
				t.Fatalf("reserved op %d changed the store:\n%s\nto\n%s", op, before, after)
			}
		}
		switch status {
		case statusErr:
			if len(resp) == 0 {
				t.Fatalf("op %d: error without a message", op)
			}
			if mutatingOp(wireOp(op)) {
				if after := storeState(mem); after != before {
					t.Fatalf("op %d: refused with %q but changed the store:\n%s\nto\n%s", op, resp, before, after)
				}
			}
		case statusOK:
			checkWellFormed(t, wireOp(op), resp)
		default:
			t.Fatalf("op %d: status %d", op, status)
		}
		if cap(hs.refs) > len(payload) {
			t.Fatalf("op %d: scratch grew to %d refs on a %d byte payload", op, cap(hs.refs), len(payload))
		}
	})
}

// checkRetained requires what seededStore mem keeps beyond its seeded
// versions to be sized by the n-byte payload that wrote it: one exact-length
// slab per version, no more slots than the payload could describe and no
// more bytes than it had.
func checkRetained(t *testing.T, mem *MemBackend, n int) {
	t.Helper()
	retained := 0
	for b, vs := range mem.ix.buckets {
		for _, v := range vs {
			if b == 0 && (string(v.mirror) == "one" || string(v.mirror) == "two") {
				continue // a seeded version
			}
			if cap(v.mirror) != v.layout.span(0) {
				t.Fatalf("bucket %d keeps %d slot bytes in a %d byte slab", b, v.layout.span(0), cap(v.mirror))
			}
			if 4*int(v.layout.n) > n {
				t.Fatalf("bucket %d holds %d slots from a %d byte payload", b, v.layout.n, n)
			}
			retained += cap(v.mirror)
		}
	}
	if retained > n {
		t.Fatalf("the store retains %d bytes from a %d byte payload", retained, n)
	}
}

// wholeBuckets decodes a write-buckets payload a bucket at a time, as the
// server does, up to the first bucket that does not decode: the buckets
// before it, the payload offset each one ends at, and why the payload does
// not decode (errShort, errTrailing), nil when it does. It is the model the
// server's streamed decode is held to.
func wholeBuckets(payload []byte) (writes []BucketWrite, ends []int, err error) {
	d := decoder{buf: payload}
	n := d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		w := BucketWrite{Bucket: int(d.u32()), Epoch: d.u64()}
		m := d.count(4)
		for j := 0; j < m && d.err == nil; j++ {
			w.Slots = append(w.Slots, d.view())
		}
		if d.err == nil {
			writes = append(writes, w)
			ends = append(ends, len(payload)-len(d.buf))
		}
	}
	return writes, ends, d.end()
}

// badFramePrefix opens the server's refusal of a write-buckets payload that
// does not decode; badFrame is the whole refusal of one that fails with err.
const badFramePrefix = "storage: bad write-buckets frame"

func badFrame(err error) string { return badFramePrefix + ": " + err.Error() }

// installedPrefix returns k when mem's state is seededStore's with the
// first k of writes installed, and fails t when it is no such state: a
// refused or torn streamed vector may leave a prefix of its whole buckets,
// and nothing else.
func installedPrefix(t *testing.T, mem *MemBackend, writes []BucketWrite) int {
	t.Helper()
	got := storeState(mem)
	model := seededStore(t)
	for k := 0; ; k++ {
		if storeState(model) == got {
			return k
		}
		// A refused entry stops the vector here as it stops the server's.
		if k == len(writes) || model.WriteBuckets(writes[k:k+1]) != nil {
			break
		}
	}
	t.Fatalf("the store is no prefix of the %d whole buckets installed:\n%s", len(writes), got)
	return 0
}

// serve serves backend and returns the server's address.
func serve(t *testing.T, backend Backend) string {
	t.Helper()
	s, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Addr()
}

// dialServed serves backend and returns a client of it, both closed when t
// ends.
func dialServed(t *testing.T, backend Backend) *Client {
	t.Helper()
	c, err := Dial(serve(t, backend))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawConn is a storage connection driven frame by frame.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rc *rawConn) send(frames ...[]byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(bytes.Join(frames, nil)); err != nil {
		rc.t.Fatal(err)
	}
}

// reply reads the next reply, which must answer id; nil when the server
// closed the connection instead.
func (rc *rawConn) reply(id uint64) *wire.Buf {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	b, err := wire.ReadFrame(rc.r, maxFrame, &bufs)
	if err != nil {
		if err != io.EOF {
			rc.t.Fatalf("reading the reply to %d: %v", id, err)
		}
		return nil
	}
	if b.ID() != id {
		rc.t.Fatalf("reply to %d where %d was due: the connection is out of sync", b.ID(), id)
	}
	return b
}

// probe asks for the bucket count and requires the answer: the frames
// before it were consumed whole.
func (rc *rawConn) probe(id uint64, want int) {
	rc.t.Helper()
	rc.send(oracleRequest(wireNumBuckets, id, nil))
	b := rc.reply(id)
	if b == nil || b.Kind() != statusOK || !bytes.Equal(b.Payload(), be32(uint32(want))) {
		rc.t.Fatalf("probe %d after a refused frame: %v", id, b)
	}
	wire.Put(b)
}

// streamVector is a valid write-back vector over seededStore's buckets
// whose frame is longer than a pooled buffer: 24 buckets of 12 slots of 300
// bytes.
func streamVector() []BucketWrite {
	long := goldenWriteVectors()[1]
	for i := range long {
		long[i].Bucket %= 8
		long[i].Epoch = 3
	}
	return long
}

// TestStreamedWriteBucketsRefusesHostileFrames streams every write-buckets
// frame of hostileFrames, and a valid vector longer than the server's read
// buffer with a byte behind it, through streamWriteBuckets off a read buffer
// of bufio's least (16 bytes) and one of the server's own size. Each is
// refused with an error reply, a bad-frame one naming the model's decode
// error (wholeBuckets), and the reader is left at the next frame. The store
// holds at most a prefix of the whole buckets ahead of the bad one, and
// none when the payload fits one window, as every hostile frame fits the
// server's. Refusing a hostile frame allocates no more than its error and a
// group scratch sized by its payload, which then pins no slot.
func TestStreamedWriteBucketsRefusesHostileFrames(t *testing.T) {
	// As in TestServerHandleRejectsHostileFrames: nothing but this goroutine
	// allocates while a window is open.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.OneP(t)
	frames := []hostileFrame{{"long vector with a trailing byte", wireWriteBuckets, append(encodeWriteBuckets(streamVector()), 0)}}
	for _, hf := range hostileFrames() {
		if hf.op == wireWriteBuckets {
			frames = append(frames, hf)
		}
	}
	next := oracleRequest(wireNumBuckets, 77, nil)
	for _, size := range []int{16, serverReadBuf} {
		var in bytes.Reader
		r := bufio.NewReaderSize(&in, size)
		for _, hf := range frames {
			mem := seededStore(t)
			before := storeState(mem)
			var out bytes.Buffer
			out.Grow(4096)
			sc := &serverConn{s: &Server{backend: mem}, w: bufio.NewWriter(&out)}
			in.Reset(append(slices.Clip(hf.payload), next...))
			r.Reset(&in)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ok := sc.streamWriteBuckets(r, 42, len(hf.payload))
			runtime.ReadMemStats(&m1)
			if hf.name != frames[0].name {
				if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4096 {
					t.Errorf("%d-byte window, %s: %d bytes allocated refusing a %d byte payload", size, hf.name, grew, len(hf.payload))
				}
			}
			g := &sc.group
			if cap(g.writes) > len(hf.payload) || cap(g.slots) > len(hf.payload) {
				t.Errorf("%d-byte window, %s: scratch grew to %d writes / %d slots on a %d byte payload", size, hf.name, cap(g.writes), cap(g.slots), len(hf.payload))
			}
			for _, v := range g.slots[:cap(g.slots)] {
				if v != nil {
					t.Fatalf("%d-byte window, %s: the scratch pins a slot", size, hf.name)
				}
			}
			reply, err := wire.ReadFrame(bufio.NewReader(&out), maxFrame, &bufs)
			if !ok || err != nil || reply.ID() != 42 || reply.Kind() != statusErr {
				t.Fatalf("%d-byte window, %s: ok %v, reply %v, err %v; want an error reply", size, hf.name, ok, reply, err)
			}
			whole, _, derr := wholeBuckets(hf.payload)
			resp := string(reply.Payload())
			if derr == nil || strings.HasPrefix(resp, badFramePrefix) && resp != badFrame(derr) {
				t.Fatalf("%d-byte window, %s: refused with %q, the model's decode error is %v", size, hf.name, resp, derr)
			}
			if fb, err := wire.ReadFrame(r, maxFrame, &bufs); err != nil || fb.ID() != 77 {
				t.Fatalf("%d-byte window, %s: the next frame: %v; the reader is out of sync", size, hf.name, err)
			}
			k := installedPrefix(t, mem, whole)
			if oneWindow := len(hf.payload)-4 <= size; oneWindow && (resp != badFrame(derr) || k > 0) {
				t.Errorf("%d-byte window, %s: a payload of one window refused with %q, %d buckets installed:\n%s\nto\n%s", size, hf.name, resp, k, before, storeState(mem))
			}
			if hf.name == frames[0].name && k == len(whole) {
				t.Fatal("the last group of a vector with trailing bytes was installed")
			}
		}
	}
}

// TestStreamedWriteBucketsFenced: a fenced connection's streamed vector is
// refused with the fence's error before anything reaches the store, and the
// connection stays in sync.
func TestStreamedWriteBucketsFenced(t *testing.T) {
	mem := seededStore(t)
	addr := serve(t, mem)
	before := storeState(mem)
	zombie, successor := dialRaw(t, addr), dialRaw(t, addr)
	for _, rc := range []*rawConn{zombie, successor} {
		rc.send(oracleRequest(wireFence, 1, nil))
		if b := rc.reply(1); b == nil || b.Kind() != statusOK {
			t.Fatalf("fence: %v", b)
		}
	}
	zombie.send(oracleRequest(wireWriteBuckets, 2, encodeWriteBuckets(streamVector())))
	b := zombie.reply(2)
	if b == nil || b.Kind() != statusErr || !strings.HasPrefix(string(b.Payload()), ErrFenced.Error()) {
		t.Fatalf("a fenced streamed vector answered %v, want the fence's error", b)
	}
	zombie.probe(3, 8)
	if after := storeState(mem); after != before {
		t.Fatalf("a fenced streamed vector changed the store:\n%s\nto\n%s", before, after)
	}
	successor.send(oracleRequest(wireWriteBuckets, 2, encodeWriteBuckets(streamVector())))
	if b := successor.reply(2); b == nil || b.Kind() != statusOK {
		t.Fatalf("the fence holder's streamed vector answered %v", b)
	}
}

// TestStreamedWriteBucketsTorn cuts a streamed vector's frame at points
// inside it — after the bucket count, mid-bucket, on a bucket's boundary and
// one byte short — and closes the connection. The server closes it without
// a reply, and the store holds a prefix of the buckets that arrived whole,
// uncommitted: what a crash between two WriteBuckets calls leaves.
func TestStreamedWriteBucketsTorn(t *testing.T) {
	vector := streamVector()
	payload := encodeWriteBuckets(vector)
	whole, ends, _ := wholeBuckets(payload)
	frame := oracleRequest(wireWriteBuckets, 1, payload)
	head := len(frame) - len(payload)
	for _, cut := range []int{4, ends[9] + 700, ends[15], len(payload) - 1} {
		mem := seededStore(t)
		rc := dialRaw(t, serve(t, mem))
		rc.send(frame[:head+cut])
		rc.conn.(*net.TCPConn).CloseWrite()
		if b := rc.reply(1); b != nil {
			t.Fatalf("cut at %d: a torn frame was answered (status %d)", cut, b.Kind())
		}
		arrived := 0
		for arrived < len(ends) && ends[arrived] <= cut {
			arrived++
		}
		if k := installedPrefix(t, mem, whole); k > arrived {
			t.Fatalf("cut at %d: %d buckets installed, %d arrived whole", cut, k, arrived)
		}
		if mem.CommittedEpoch() != 1 {
			t.Fatalf("cut at %d: committed epoch %d", cut, mem.CommittedEpoch())
		}
	}
}

// FuzzStreamWriteBuckets drives the server's write-buckets decode over a
// seeded MemBackend with arbitrary payloads, a frame torn short by torn
// bytes, and a read buffer of 16 + window bytes, and holds it to a model: the
// payload decoded whole (wholeBuckets) and, when it decodes, installed in one
// WriteBuckets call on a twin store. A whole frame is answered OK when the
// model installs it, refused with the model's decode error when that fails,
// and the reader is left at the next frame; a torn one is reported torn. A
// vector the model installs, or one the read buffer holds whole, leaves the
// twin's store; any other leaves a prefix of the buckets that arrived whole
// (none when torn inside one window), and what the store keeps is sized by
// the payload. The group scratch pins no slot.
func FuzzStreamWriteBuckets(f *testing.F) {
	for _, hf := range hostileFrames() {
		if hf.op == wireWriteBuckets {
			f.Add(hf.payload, uint16(0), uint16(16))
		}
	}
	valid := encodeWriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 3, Slots: [][]byte{[]byte("alpha"), []byte("bravo"), []byte("gamma")}},
		{Bucket: 3, Epoch: 3, Slots: nil},
		{Bucket: 7, Epoch: 2, Slots: [][]byte{bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{8}, 300)}},
		{Bucket: 2, Epoch: 2, Slots: [][]byte{{}, {}}},
	})
	for _, window := range []uint16{0, 9, 64, 700} {
		f.Add(valid, uint16(0), window)
		f.Add(append(valid, 0), uint16(0), window)
		f.Add(valid, uint16(5), window)
		f.Add(valid, uint16(400), window)
	}
	f.Fuzz(func(t *testing.T, payload []byte, torn, window uint16) {
		if int(torn) > len(payload) {
			torn = 0
		}
		arrived := len(payload) - int(torn)
		mem := seededStore(t)
		var out bytes.Buffer
		sc := &serverConn{s: &Server{backend: mem}, w: bufio.NewWriter(&out)}
		next := oracleRequest(wireNumBuckets, 77, nil)
		in := payload[:arrived]
		if torn == 0 {
			in = append(slices.Clip(in), next...)
		}
		r := bufio.NewReaderSize(bytes.NewReader(in), 16+int(window))
		ok := sc.streamWriteBuckets(r, 42, len(payload))
		if ok != (torn == 0) {
			t.Fatalf("%d of %d bytes arrived: reported ok %v", arrived, len(payload), ok)
		}

		whole, ends, derr := wholeBuckets(payload)
		n := 0
		for n < len(ends) && ends[n] <= arrived {
			n++
		}
		twin := seededStore(t)
		var wantStatus byte = statusErr
		if derr == nil && twin.WriteBuckets(whole) == nil {
			wantStatus = statusOK
		}
		k := installedPrefix(t, mem, whole[:n])
		// A payload the read buffer holds whole is parsed in one window:
		// installed as the model installs it, or, torn, not at all.
		oneWindow := len(payload)-4 <= r.Size()
		if !ok && oneWindow && k > 0 {
			t.Fatalf("a torn payload of one window installed %d buckets", k)
		}
		if ok {
			reply, err := wire.ReadFrame(bufio.NewReader(&out), maxFrame, &bufs)
			if err != nil || reply.ID() != 42 {
				t.Fatalf("reply: %v", err)
			}
			status, resp := reply.Kind(), string(reply.Payload())
			if status != wantStatus {
				t.Fatalf("answered %d %q, the model %d (decode error %v)", status, resp, wantStatus, derr)
			}
			// A group installed before the bad one may have been refused by
			// the store first; a payload of one window reaches it only whole.
			if bad := strings.HasPrefix(resp, badFramePrefix); bad && (derr == nil || resp != badFrame(derr)) || !bad && derr != nil && oneWindow {
				t.Fatalf("refused with %q, the model's decode error is %v", resp, derr)
			}
			if (status == statusOK || oneWindow) && storeState(mem) != storeState(twin) {
				t.Fatalf("installed %d of %d buckets: the store differs from the model's", k, len(whole))
			}
			if fb, err := wire.ReadFrame(r, maxFrame, &bufs); err != nil || fb.ID() != 77 {
				t.Fatalf("the next frame: %v; the reader is out of sync", err)
			}
		}
		checkRetained(t, mem, len(payload))
		g := &sc.group
		if len(g.writes) != 0 || len(g.slots) != 0 {
			t.Fatalf("scratch left with %d writes, %d slots", len(g.writes), len(g.slots))
		}
		for _, v := range g.slots[:cap(g.slots)] {
			if v != nil {
				t.Fatal("the scratch pins a slot")
			}
		}
	})
}

// TestRemoteWritesDoNotAliasPooledFrames writes buckets through a real
// connection, then pushes enough unrelated traffic of every size through
// the same wire to recycle every pooled buffer, and the connection's
// streamed-vector scratch, many times over, and reads each written slot
// back: a slot the store retained as a view of its request frame or of that
// scratch would by then hold somebody else's bytes. The written vector and
// every other garbage vector are longer than the server's read buffer, so
// they are streamed in several windows, the others in one.
func TestRemoteWritesDoNotAliasPooledFrames(t *testing.T) {
	const numBuckets, slotsPer = 24, 12
	c, _ := newRemotePair(t, numBuckets+8)

	slot := func(b, i int) []byte {
		return bytes.Repeat([]byte{byte(b + 1), byte(i + 1), 0x5a}, 80+3*b)
	}
	var writes []BucketWrite
	for b := 0; b < numBuckets-1; b++ {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = slot(b, i)
		}
		writes = append(writes, BucketWrite{Bucket: b, Epoch: 1, Slots: slots})
	}
	if err := c.WriteBuckets(writes); err != nil {
		t.Fatal(err)
	}
	last := make([][]byte, slotsPer)
	for i := range last {
		last[i] = slot(numBuckets-1, i)
	}
	if err := c.WriteBucket(numBuckets-1, 1, last); err != nil {
		t.Fatal(err)
	}

	// Unrelated traffic: garbage vectors as large as the real one (to other
	// buckets), large and small log records, and reads of them.
	junk := func(n int) []byte { return bytes.Repeat([]byte{0xee}, n) }
	for round := 0; round < 40; round++ {
		var garbage []BucketWrite
		for b := numBuckets; b < numBuckets+8; b++ {
			n := 2048 << (round % 2)
			garbage = append(garbage, BucketWrite{Bucket: b, Epoch: 1, Slots: [][]byte{junk(n), junk(n), junk(n)}})
		}
		if err := c.WriteBuckets(garbage); err != nil {
			t.Fatal(err)
		}
		seq, err := c.Append(junk(64 << 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scan(seq); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append(junk(300 + round)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadBucket(numBuckets + round%8); err != nil {
			t.Fatal(err)
		}
		if err := c.CommitEpoch(1); err != nil {
			t.Fatal(err)
		}
	}

	var refs []SlotRef
	for b := 0; b < numBuckets; b++ {
		got, err := c.ReadBucket(b)
		if err != nil || len(got) != slotsPer {
			t.Fatalf("bucket %d: %d slots, err %v", b, len(got), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], slot(b, i)) {
				t.Fatalf("bucket %d slot %d changed under later traffic: a pooled frame is aliased", b, i)
			}
			refs = append(refs, SlotRef{Bucket: b, Slot: i})
		}
	}
	got, err := c.ReadSlots(refs)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range refs {
		if !bytes.Equal(got[k], slot(r.Bucket, r.Slot)) {
			t.Fatalf("bucket %d slot %d changed under later traffic: a pooled frame is aliased", r.Bucket, r.Slot)
		}
	}
}

// TestClientAppendSendsRecordInPlace pins the append path's request: the frame
// on the wire is the one the copying encoder built — header, then the record
// behind its 4-byte length — and the client builds it without a buffer of the
// record's size. The peer is a frame reader with preallocated buffers, so what
// the process allocates during a call is the client's; a real server's round
// trip follows.
func TestClientAppendSendsRecordInPlace(t *testing.T) {
	gate := allocgate.Begin(t)
	record := bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, 64<<10/3)
	cliConn, srvConn := net.Pipe()
	c := &Client{wc: wire.NewClient(cliConn, maxFrame, &bufs)}
	defer c.Close()

	frame := make([]byte, 4+9+4+len(record))
	reply := make([]byte, 4+9+8)
	binary.BigEndian.PutUint32(reply, 9+8)
	reply[4] = statusOK
	peerErr := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		for seq := uint64(1); ; seq++ {
			if _, err := io.ReadFull(srvConn, frame); err != nil {
				peerErr <- err
				return
			}
			copy(reply[5:13], frame[5:13]) // request ID
			binary.BigEndian.PutUint64(reply[13:], seq)
			if _, err := srvConn.Write(reply); err != nil {
				peerErr <- err
				return
			}
		}
	}()
	seq, err := c.Append(record)
	if err != nil || seq != 1 {
		t.Fatalf("Append = %d, %v", seq, err)
	}
	var enc encoder // the encoding Append sent before it stopped copying
	enc.u32(uint32(9 + 4 + len(record)))
	enc.buf = append(enc.buf, byte(wireLogAppend))
	enc.u64(1)
	enc.bytes(record)
	if !bytes.Equal(frame, enc.buf) {
		t.Fatal("append frame differs from the copying encoder's")
	}

	const runs = 50
	var m0, m1 runtime.MemStats
	gate.Settle()
	allocgate.OneP(t)
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := c.Append(record); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	perCall := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1)
	t.Logf("Append of %d bytes: %.1f allocations, %d bytes allocated per call", len(record), allocs, perCall)
	if perCall >= 1<<10 {
		t.Errorf("%d bytes allocated per %d-byte Append: the record is copied again", perCall, len(record))
	}
	select {
	case err := <-peerErr:
		t.Fatalf("peer: %v", err)
	default:
	}

	rc, _ := newRemotePair(t, 4)
	if seq, err := rc.Append(record); err != nil || seq != 1 {
		t.Fatalf("Append to a server = %d, %v", seq, err)
	}
	got, err := rc.Scan(0)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], record) {
		t.Fatalf("Scan returned %d records, err %v; want the appended one", len(got), err)
	}
}

// oracleResponse is the server's response writer from before the storage
// wire moved onto internal/wire, kept unchanged as the oracle the shared
// framing must reproduce.
func oracleResponse(w *bufio.Writer, status byte, reqID uint64, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(9+len(payload)))
	hdr = append(hdr, status)
	hdr = binary.BigEndian.AppendUint64(hdr, reqID)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// oracleRequest is the request frame the client built before the move:
// header, then the payload.
func oracleRequest(op wireOp, id uint64, payload []byte) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, uint32(9+len(payload)))
	hdr = append(hdr, byte(op))
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	return append(hdr, payload...)
}

// goldenWriteVectors are the write-back vectors TestWireGoldenBytes sends: a
// few buckets, one holding a zero-length slot and one none, and a vector
// whose frame is longer than a pooled frame buffer's 64 KiB (a client that
// streams its payload sends it in pieces).
func goldenWriteVectors() [][]BucketWrite {
	short := []BucketWrite{
		{Bucket: 3, Epoch: 7, Slots: [][]byte{[]byte("alpha"), []byte("bravo")}},
		{Bucket: 0, Epoch: 7, Slots: [][]byte{{}, {}}},
		{Bucket: 1 << 20, Epoch: 1<<40 | 5, Slots: nil},
		{Bucket: 9, Epoch: 8, Slots: [][]byte{[]byte("x")}},
	}
	var long []BucketWrite
	for b := 0; b < 24; b++ {
		slots := make([][]byte, 12)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i), 0x5a}, 100)
		}
		long = append(long, BucketWrite{Bucket: b, Epoch: uint64(b / 8), Slots: slots})
	}
	return [][]BucketWrite{short, long}
}

// goldenWriteDigests are the SHA-256 digests of the goldenWriteVectors
// request frames (ids 4 and 5), taken from the client that encoded each
// frame whole into one buffer.
var goldenWriteDigests = []string{
	"9c58fa95e341743c3278b2d67c119835f313700da11121dc57ebefe683d6edaa",
	"87638236a5205686fd312f32c2c7b62d93ca334d6de7b0dd12fb8bdbc505664b",
}

// TestWireGoldenBytes requires the storage wire's bytes to be what they were
// before it moved onto internal/wire: the client's requests (a u64 mutation,
// a log append — a length-prefixed mutation —, a bucket read, and bucket
// write-backs, short and longer than a pooled frame, also pinned by digest)
// and the server's responses (a u32, a slot vector, an error), the error
// also for each reserved op of the baselines' retired key-value calls.
func TestWireGoldenBytes(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := &Client{wc: wire.NewClient(cliConn, maxFrame, &bufs)}
	defer c.Close()
	slots := [][]byte{[]byte("alpha"), {}, []byte("gamma")}
	var app, get encoder
	app.bytes([]byte("record"))
	get.u32(5)
	vectors := goldenWriteVectors()
	want := [][]byte{
		oracleRequest(wireCommitEpoch, 1, binary.BigEndian.AppendUint64(nil, 0x0102030405060708)),
		oracleRequest(wireLogAppend, 2, app.buf),
		oracleRequest(wireReadBucket, 3, get.buf),
		oracleRequest(wireWriteBuckets, 4, encodeWriteBuckets(vectors[0])),
		oracleRequest(wireWriteBuckets, 5, encodeWriteBuckets(vectors[1])),
	}
	if n := len(want[4]); n <= 4+64<<10 {
		t.Fatalf("the long vector's frame is %d bytes, not longer than a pooled buffer", n)
	}
	for i, d := range goldenWriteDigests {
		if got := fmt.Sprintf("%x", sha256.Sum256(want[3+i])); got != d {
			t.Fatalf("write-back request %d: digest %s, want %s", 4+i, got, d)
		}
	}
	replies := [][]byte{nil, binary.BigEndian.AppendUint64(nil, 9), appendFields(nil, slots), nil, nil}
	peer := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		w := bufio.NewWriter(srvConn)
		for i, frame := range want {
			got := make([]byte, len(frame))
			if _, err := io.ReadFull(srvConn, got); err != nil {
				peer <- err
				return
			}
			if !bytes.Equal(got, frame) {
				peer <- fmt.Errorf("request %d on the wire:\n%x\nwant the oracle's\n%x", i, got, frame)
				return
			}
			if err := oracleResponse(w, statusOK, uint64(i+1), replies[i]); err != nil || w.Flush() != nil {
				peer <- fmt.Errorf("reply %d: %v", i, err)
				return
			}
		}
		peer <- nil
	}()
	if err := c.CommitEpoch(0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if seq, err := c.Append([]byte("record")); err != nil || seq != 9 {
		t.Fatalf("Append = %d, %v", seq, err)
	}
	if got, err := c.ReadBucket(5); err != nil || len(got) != len(slots) {
		t.Fatalf("ReadBucket = %q, %v", got, err)
	}
	for _, v := range vectors {
		if err := c.WriteBuckets(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-peer; err != nil {
		t.Fatal(err)
	}

	mem := NewMemBackend(2)
	stored := [][]byte{slots[0], []byte("bravo"), slots[2]} // a version's slots have one length
	must(t, mem.WriteBucket(1, 1, stored))
	var out, wantOut bytes.Buffer
	sc := &serverConn{s: &Server{backend: mem}, w: bufio.NewWriter(&out)}
	oracle := bufio.NewWriter(&wantOut)
	var hs scratch
	refs := bytes.Join([][]byte{be32(2), be32(1), be32(0), be32(1), be32(2)}, nil)
	for _, rq := range []struct {
		op      wireOp
		id      uint64
		payload []byte
		status  byte
		reply   []byte
	}{
		{wireNumBuckets, 7, nil, statusOK, be32(2)},
		{wireReadSlots, 1 << 40, refs, statusOK, appendFields(nil, [][]byte{slots[0], slots[2]})},
		{wireOp(1), 0xffffffffffffffff, nil, statusErr, []byte("storage: unknown op 1")},
		{wireOp(7), 3, append(be32(1), 'k'), statusErr, []byte("storage: unknown op 7")},
		{wireOp(8), 4, bytes.Join([][]byte{be32(1), []byte("k"), be32(1), []byte("v")}, nil), statusErr, []byte("storage: unknown op 8")},
		{wireOp(9), 5, append(be32(1), 'k'), statusErr, []byte("storage: unknown op 9")},
	} {
		fb, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(oracleRequest(rq.op, rq.id, rq.payload))), maxFrame, &bufs)
		if err != nil {
			t.Fatal(err)
		}
		sc.serve(fb, &hs)
		must(t, oracleResponse(oracle, rq.status, rq.id, rq.reply))
	}
	must(t, oracle.Flush())
	if !bytes.Equal(out.Bytes(), wantOut.Bytes()) {
		t.Fatalf("responses on the wire:\n%x\nwant the oracle's\n%x", out.Bytes(), wantOut.Bytes())
	}
}
