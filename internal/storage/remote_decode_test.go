package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"obladi/internal/wire"
)

// Tests of the storage server's request decoding: hostile frames, what a
// decoded write retains, and what decoding costs.

// encodeWriteBuckets is the client's wireWriteBuckets payload for writes.
func encodeWriteBuckets(writes []BucketWrite) []byte {
	var enc encoder
	enc.u32(uint32(len(writes)))
	for _, w := range writes {
		enc.bucket(w.Bucket, w.Epoch, w.Slots)
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
// (the format is self-delimiting, so each of those is short); every strict
// prefix of each mutation that carries one u64, and the same u64 with a byte
// behind it (each value would change seededStore); and every reserved op,
// carrying the payload its retired call sent.
func hostileFrames() []hostileFrame {
	oneBucket := encodeWriteBuckets([]BucketWrite{{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), {}, []byte("gamma")}}})
	vector := encodeWriteBuckets([]BucketWrite{
		{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), []byte("beta")}},
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
	must(t, mem.WriteBucket(0, 1, [][]byte{[]byte("one"), {}}))
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
// carries, or a u64 mutation whose payload is not exactly its u64, fails as
// a per-request error before anything is sized by its length fields, and
// leaves the store as it was.
func TestServerHandleRejectsHostileFrames(t *testing.T) {
	// TotalAlloc is process-wide, so nothing but this goroutine may allocate
	// while a window is open. The collector is off. With one P no other
	// goroutine runs during a window, and this one cannot move to a P whose
	// sync.Pool cache holds no fmt printer, where an error message would
	// allocate a fresh one. The Gosched first lets whatever is runnable —
	// another test's teardown, the runtime's work after the last collection —
	// run to its end.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	for _, hf := range hostileFrames() {
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
		if cap(hs.refs) > len(hf.payload) || cap(hs.writes) > len(hf.payload) {
			t.Errorf("%s: scratch grew to %d refs / %d writes on a %d byte payload", hf.name, cap(hs.refs), cap(hs.writes), len(hf.payload))
		}
		// A frame that does not decode never reaches the backend, not even
		// with the entries ahead of the bad one.
		if after := storeState(mem); after != before {
			t.Errorf("%s changed the store:\n%s\nto\n%s", hf.name, before, after)
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
// store as it was and a reserved op be refused, and whatever a write leaves
// behind in the store must be sized by the payload that carried it — one
// exact-length slab per version, no more bytes than the frame had.
func FuzzServerHandle(f *testing.F) {
	for _, hf := range hostileFrames() {
		f.Add(byte(hf.op), hf.payload)
	}
	valid := encodeWriteBuckets([]BucketWrite{
		{Bucket: 0, Epoch: 1, Slots: [][]byte{[]byte("alpha"), {}, []byte("gamma")}},
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
			// A write-back vector that decoded may fail part way and leave
			// its prefix installed, as BucketStore allows; any other refused
			// mutation must not have reached the store.
			partial := wireOp(op) == wireWriteBuckets && !strings.HasPrefix(string(resp), "storage: bad write-buckets frame")
			if mutatingOp(wireOp(op)) && !partial {
				if after := storeState(mem); after != before {
					t.Fatalf("op %d: refused with %q but changed the store:\n%s\nto\n%s", op, resp, before, after)
				}
			}
		case statusOK:
			checkWellFormed(t, wireOp(op), resp)
		default:
			t.Fatalf("op %d: status %d", op, status)
		}
		if cap(hs.refs) > len(payload) || cap(hs.writes) > len(payload) || cap(hs.slots) > len(payload) {
			t.Fatalf("op %d: scratch grew to %d refs / %d writes / %d slots on a %d byte payload", op, cap(hs.refs), cap(hs.writes), cap(hs.slots), len(payload))
		}
		retained := 0
		for b, vs := range mem.ix.buckets {
			for _, v := range vs {
				if b == 0 && (string(v.mirror) == "one" || string(v.mirror) == "two") {
					continue // a seeded version
				}
				if cap(v.mirror) != v.layout.span(0) {
					t.Fatalf("op %d: bucket %d keeps %d slot bytes in a %d byte slab", op, b, v.layout.span(0), cap(v.mirror))
				}
				if 4*v.layout.n > len(payload) {
					t.Fatalf("op %d: bucket %d holds %d slots from a %d byte payload", op, b, v.layout.n, len(payload))
				}
				retained += cap(v.mirror)
			}
		}
		if retained > len(payload) {
			t.Fatalf("op %d: the store retains %d bytes from a %d byte payload", op, retained, len(payload))
		}
	})
}

// TestServerHandleWriteBucketsAllocBudget pins the write decode's shape: the
// server hands a vector's slots to the store as views of the request frame,
// and the store copies each bucket into a slab a retired version left, so
// once warm a vector of n buckets allocates nothing at all.
func TestServerHandleWriteBucketsAllocBudget(t *testing.T) {
	const n, slotsPer, slotSize = 16, 40, 300
	writes := make([]BucketWrite, n)
	for b := range writes {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
		}
		writes[b] = BucketWrite{Bucket: b, Epoch: 1, Slots: slots}
	}
	payload := encodeWriteBuckets(writes)
	mem := NewMemBackend(n)
	s, cs, hs := &Server{backend: mem}, &connState{}, new(scratch)
	handle := func() {
		if status, resp := s.handle(cs, hs, wireWriteBuckets, payload, nil); status != statusOK {
			t.Fatalf("handle: %s", resp)
		}
	}
	// Same-epoch rewrites replace versions, retiring the slabs the next run
	// reuses: from the second run on the store allocates nothing.
	handle()
	handle()
	allocs := testing.AllocsPerRun(50, handle)
	t.Logf("wireWriteBuckets of %d buckets × %d slots: %.1f allocations", n, slotsPer, allocs)
	if allocs > 0 {
		t.Errorf("%.1f allocations for %d buckets, want 0: the write path decodes or copies into fresh memory again", allocs, n)
	}
	for b, w := range writes {
		got, err := mem.ReadBucket(b)
		if err != nil || len(got) != slotsPer {
			t.Fatalf("bucket %d: %d slots, err %v", b, len(got), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], w.Slots[i]) {
				t.Fatalf("bucket %d slot %d differs", b, i)
			}
		}
	}
}

// TestRemoteWritesDoNotAliasPooledFrames writes buckets through a real
// connection, then pushes enough unrelated traffic of every size through
// the same wire to recycle every pooled buffer many times over, and reads
// each written slot back: a slot the store retained as a view of its request
// frame would by then hold somebody else's bytes.
func TestRemoteWritesDoNotAliasPooledFrames(t *testing.T) {
	const numBuckets, slotsPer = 24, 12
	c, _ := newRemotePair(t, numBuckets+8)

	slot := func(b, i int) []byte {
		return bytes.Repeat([]byte{byte(b + 1), byte(i + 1), 0x5a}, 40+3*i)
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
			garbage = append(garbage, BucketWrite{Bucket: b, Epoch: 1, Slots: [][]byte{junk(2048), junk(2048), junk(2048)}})
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

// TestWireGoldenBytes requires the storage wire's bytes to be what they were
// before it moved onto internal/wire: the client's requests (a u64 mutation,
// a log append — a length-prefixed mutation —, a bucket read) and the
// server's responses (a u32, a slot vector, an error), the error also for
// each reserved op of the baselines' retired key-value calls.
func TestWireGoldenBytes(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := &Client{wc: wire.NewClient(cliConn, maxFrame, &bufs)}
	defer c.Close()
	slots := [][]byte{[]byte("alpha"), {}, []byte("gamma")}
	var app, get encoder
	app.bytes([]byte("record"))
	get.u32(5)
	want := [][]byte{
		oracleRequest(wireCommitEpoch, 1, binary.BigEndian.AppendUint64(nil, 0x0102030405060708)),
		oracleRequest(wireLogAppend, 2, app.buf),
		oracleRequest(wireReadBucket, 3, get.buf),
	}
	replies := [][]byte{nil, binary.BigEndian.AppendUint64(nil, 9), appendFields(nil, slots)}
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
	if err := <-peer; err != nil {
		t.Fatal(err)
	}

	mem := NewMemBackend(2)
	must(t, mem.WriteBucket(1, 1, slots))
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
