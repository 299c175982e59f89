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
	"testing"
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
// more than the payload holds, and every strict prefix of two valid write
// frames (the format is self-delimiting, so each of those is short).
func hostileFrames() []hostileFrame {
	oneBucket := encodeWriteBuckets([]BucketWrite{{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), {}, []byte("gamma")}}})
	vector := encodeWriteBuckets([]BucketWrite{
		{Bucket: 1, Epoch: 1, Slots: [][]byte{[]byte("alpha"), []byte("beta")}},
		{Bucket: 2, Epoch: 1, Slots: [][]byte{[]byte("gamma")}},
	})
	single := oneBucket[4:] // wireWriteBucket carries one entry without the vector count
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hdr := cat(be32(1), be32(0), be32(1)) // bucket 1, epoch 1 (u64)
	frames := []hostileFrame{
		{"bucket slot count 2^20 over no slots", wireWriteBucket, cat(hdr, be32(1<<20))},
		{"bucket slot count 2^32-1", wireWriteBucket, cat(hdr, be32(0xffffffff))},
		{"bucket slot count one too many", wireWriteBucket, cat(hdr, be32(2), be32(1), []byte("x"))},
		{"bucket slot length 2^31-1", wireWriteBucket, cat(hdr, be32(1), be32(0x7fffffff), []byte("x"))},
		{"bucket slot length 2^32-1", wireWriteBucket, cat(hdr, be32(1), be32(0xffffffff), []byte("x"))},
		{"bucket second slot overruns", wireWriteBucket, cat(hdr, be32(2), be32(1), []byte("x"), be32(9), []byte("short"))},
		{"vector bucket count 2^20", wireWriteBuckets, cat(be32(1<<20), hdr, be32(0))},
		{"vector bucket count 2^32-1", wireWriteBuckets, be32(0xffffffff)},
		{"vector bucket count one too many", wireWriteBuckets, cat(be32(2), hdr, be32(0))},
		{"vector slot count 2^20", wireWriteBuckets, cat(be32(1), hdr, be32(1<<20), be32(0))},
		{"vector slot length 64 MiB", wireWriteBuckets, cat(be32(1), hdr, be32(1), be32(64<<20), []byte("x"))},
		{"vector second bucket inflated", wireWriteBuckets, cat(be32(2), hdr, be32(1), be32(1), []byte("x"), hdr, be32(3), be32(1<<30))},
		{"read-slots count 2^20", wireReadSlots, cat(be32(1<<20), be32(0), be32(0))},
		{"read-slots count one too many", wireReadSlots, cat(be32(2), be32(0), be32(0))},
	}
	for cut := 0; cut < len(single); cut++ {
		frames = append(frames, hostileFrame{fmt.Sprintf("write-bucket cut at %d", cut), wireWriteBucket, single[:cut]})
	}
	for cut := 0; cut < len(vector); cut++ {
		frames = append(frames, hostileFrame{fmt.Sprintf("write-buckets cut at %d", cut), wireWriteBuckets, vector[:cut]})
	}
	return frames
}

// TestServerHandleRejectsHostileFrames: a frame that promises more than it
// carries fails as a per-request error before anything is sized by its
// length fields, and installs nothing.
func TestServerHandleRejectsHostileFrames(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, hf := range hostileFrames() {
		mem := NewMemBackend(8)
		s := &Server{backend: mem}
		rb := new(wireBuf)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		status, resp := s.handle(&connState{}, hf.op, hf.payload, rb)
		runtime.ReadMemStats(&m1)
		if status != statusErr || len(resp) == 0 {
			t.Errorf("%s: status %d, response %q; want an error", hf.name, status, resp)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4096 {
			t.Errorf("%s: %d bytes allocated rejecting a %d byte payload", hf.name, grew, len(hf.payload))
		}
		if cap(rb.refs) > len(hf.payload) || cap(rb.writes) > len(hf.payload) {
			t.Errorf("%s: scratch grew to %d refs / %d writes on a %d byte payload", hf.name, cap(rb.refs), cap(rb.writes), len(hf.payload))
		}
		// A frame that does not decode never reaches the backend, not even
		// with the entries ahead of the bad one.
		for b := 0; b < 8; b++ {
			if mem.VersionCount(b) != 0 {
				t.Errorf("%s: bucket %d was written", hf.name, b)
			}
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
	case wireReadSlot:
		d.view()
	case wireReadBucket, wireReadSlots, wireLogScan:
		d.fields()
	case wireKVGet:
		if d.u8() == 1 {
			d.view()
		}
	}
	if d.err != nil || len(d.buf) != 0 {
		t.Fatalf("op %d: malformed response %x (err %v, %d bytes left over)", op, resp, d.err, len(d.buf))
	}
}

// FuzzServerHandle throws arbitrary requests at the server's handler over a
// small MemBackend: it must not panic, must answer with an error or a
// well-formed response, and whatever a write leaves behind in the store must
// be sized by the payload that carried it — exactly-clipped slices, no more
// bytes than the frame had.
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
	f.Add(byte(wireWriteBucket), valid[4:])
	f.Add(byte(wireReadSlots), bytes.Join([][]byte{be32(1), be32(0), be32(0)}, nil))
	f.Add(byte(wireReadBucket), be32(0))
	f.Add(byte(wireLogAppend), bytes.Join([][]byte{be32(3), []byte("rec")}, nil))
	f.Add(byte(wireLogScan), make([]byte, 8))
	f.Add(byte(wireLogScan), bytes.Repeat([]byte{0xb9}, 8)) // found by this fuzzer: a from past 2^63 panicked MemBackend.Scan
	f.Add(byte(wireKVPut), bytes.Join([][]byte{be32(1), []byte("k"), be32(1), []byte("v")}, nil))
	f.Add(byte(wireKVGet), bytes.Join([][]byte{be32(1), []byte("k")}, nil))
	f.Add(byte(wireFence), []byte{})
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		const numBuckets = 8
		mem := NewMemBackend(numBuckets)
		// Something to read, so read ops have successful answers too.
		seed := [][]byte{[]byte("seed"), {}}
		if err := mem.WriteBucket(0, 0, seed); err != nil {
			t.Fatal(err)
		}
		s := &Server{backend: mem}
		rb := new(wireBuf)
		status, resp := s.handle(&connState{}, wireOp(op), payload, rb)
		switch status {
		case statusErr:
			if len(resp) == 0 {
				t.Fatalf("op %d: error without a message", op)
			}
		case statusOK:
			checkWellFormed(t, wireOp(op), resp)
		default:
			t.Fatalf("op %d: status %d", op, status)
		}
		if cap(rb.refs) > len(payload) || cap(rb.writes) > len(payload) {
			t.Fatalf("op %d: scratch grew to %d refs / %d writes on a %d byte payload", op, cap(rb.refs), cap(rb.writes), len(payload))
		}
		retained := 0
		for b := 0; b < numBuckets; b++ {
			slots, _ := mem.ReadBucket(b)
			if b == 0 && len(slots) == len(seed) && &slots[0][0] == &seed[0][0] {
				continue // still the seed version
			}
			if 4*len(slots) > len(payload) {
				t.Fatalf("op %d: bucket %d holds %d slots from a %d byte payload", op, b, len(slots), len(payload))
			}
			for _, sl := range slots {
				retained += cap(sl)
			}
		}
		if retained > len(payload) {
			t.Fatalf("op %d: the store retains %d bytes from a %d byte payload", op, retained, len(payload))
		}
	})
}

// TestServerHandleWriteBucketsAllocBudget pins the write decode's shape: a
// vector of n buckets costs each bucket its arena and its slot table — both
// retained by the store — and nothing per slot or per request.
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
	s, cs, rb := &Server{backend: mem}, &connState{}, new(wireBuf)
	// Same-epoch rewrites replace versions in place: the store itself
	// allocates nothing after the first run.
	allocs := testing.AllocsPerRun(50, func() {
		if status, resp := s.handle(cs, wireWriteBuckets, payload, rb); status != statusOK {
			t.Fatalf("handle: %s", resp)
		}
	})
	t.Logf("wireWriteBuckets of %d buckets × %d slots: %.1f allocations", n, slotsPer, allocs)
	if allocs > 2*n+4 {
		t.Errorf("%.1f allocations for %d buckets, budget %d: the write decode allocates per slot again", allocs, n, 2*n+4)
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
	// buckets), large and small values, log records, and reads of them.
	junk := func(n int) []byte { return bytes.Repeat([]byte{0xee}, n) }
	for round := 0; round < 40; round++ {
		var garbage []BucketWrite
		for b := numBuckets; b < numBuckets+8; b++ {
			garbage = append(garbage, BucketWrite{Bucket: b, Epoch: 1, Slots: [][]byte{junk(2048), junk(2048), junk(2048)}})
		}
		if err := c.WriteBuckets(garbage); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("junk", junk(64<<10)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get("junk"); err != nil {
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
	c := &Client{conn: cliConn, w: bufio.NewWriterSize(cliConn, 1<<16), pending: make(map[uint64]chan response)}
	go c.readLoop()
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
	enc.u8(uint8(wireLogAppend))
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
