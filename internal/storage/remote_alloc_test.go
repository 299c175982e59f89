package storage

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"obladi/internal/allocgate"
)

// TestReadSlotsRoundTripAllocBudget pins the storage wire's per-call cost:
// a ReadSlots round trip against an in-process Server allocates nothing at
// either end when every ref has a destination (SlotRef.Into) but a share of a
// chunk the client carves its result vectors from (a 64-slot vector is 1.5
// KiB of a 48 KiB chunk) — no frame header, no per-request goroutine, no
// result vector of its own, and none on the server, which encodes the reply
// under the store's lock — and one buffer more for a vector without
// destinations. Measured: 0.05 to 0.12 and 1.05 to 1.15, the runtime's
// network poller included; a result vector allocated per call adds 1.
func TestReadSlotsRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gate := allocgate.Begin(t)
	const numBuckets, slotsPer, slotSize = 16, 4, 300
	backend := NewMemBackend(numBuckets)
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var refs []SlotRef
	for b := 0; b < numBuckets; b++ {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
			refs = append(refs, SlotRef{Bucket: b, Slot: i})
		}
		if err := backend.WriteBucket(b, 1, slots); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		refs   []SlotRef
		budget float64
	}{{"destinations", withDestinations(refs, slotSize), 0.25}, {"no destinations", refs, 1.25}} {
		call := func() {
			got, err := c.ReadSlots(tc.refs)
			if err != nil || len(got) != len(tc.refs) {
				t.Fatalf("ReadSlots: %d slots, err %v", len(got), err)
			}
		}
		for i := 0; i < 10; i++ {
			call()
		}
		gate.Settle()
		allocs := mallocsPerCall(t, 500, call)
		t.Logf("ReadSlots of %d slots, %s: %.3f allocations per round trip, both ends", len(refs), tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%.2f allocations per ReadSlots round trip with %s, budget %.2f (a share of a carved chunk, and one buffer for the refs without a destination): the wire allocates per call again", allocs, tc.name, tc.budget)
		}
	}
}

// TestServerReadReplyAllocBudget pins the server's side of a ReadSlots round
// trip over a MemBackend: once the server has learned the slot length, the
// store copies every slot straight into its field of the reply, whose bytes
// are the wire's count-prefixed fields, so a warm reply allocates no buffer
// of its own, only the store's result vector, carved: a 64-slot vector is 1.5
// KiB of a 48 KiB chunk (0.031 a call).
func TestServerReadReplyAllocBudget(t *testing.T) {
	const numBuckets, slotsPer, slotSize, budget = 16, 4, 300, 0.05
	gate := allocgate.Begin(t)
	mem := NewMemBackend(numBuckets)
	var want [][]byte
	enc := encoder{}
	enc.u32(numBuckets * slotsPer)
	for b := 0; b < numBuckets; b++ {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
			enc.u32(uint32(b))
			enc.u32(uint32(i))
		}
		must(t, mem.WriteBucket(b, 1, slots))
		want = append(want, slots...)
	}
	reply := appendFields(nil, want)
	s := &Server{backend: mem}
	var cs connState
	var hs scratch
	var out []byte
	call := func() {
		status, resp := s.handle(&cs, &hs, wireReadSlots, enc.buf, out)
		if status != statusOK || !bytes.Equal(resp, reply) {
			t.Fatalf("status %d, reply of %d bytes: not the slots' count-prefixed fields", status, len(resp))
		}
		out = resp[:0]
	}
	call() // encoded again from the results: the server learns the slot length
	call()
	gate.Settle()
	allocs := mallocsPerCall(t, 2000, call)
	t.Logf("a warm reply of %d slots: %.3f allocations", len(want), allocs)
	if allocs > budget {
		t.Errorf("%.3f allocations per warm read-slots reply, budget %.2f (a share of the store's carved result vector): the reply allocates per call again", allocs, budget)
	}
}

// mallocsPerCall is testing.AllocsPerRun without its rounding down, so a
// share of a carved chunk counts: the allocations of calls runs of f, a
// collection never interrupting them, per run, on one P (allocgate.OneP).
func mallocsPerCall(t *testing.T, calls int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.OneP(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range calls {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// TestWriteBucketsRoundTripAllocBudget pins a write-back's cost: a warm
// WriteBuckets round trip, against an in-process Server over a MemBackend,
// allocates nothing at either end, for a vector whose frame is longer than
// the server's read buffer and for one that fits it. The client writes the
// frame from the caller's slots through the connection's writer, the server
// decodes it into the connection's group scratch a window at a time, and
// same-epoch rewrites hand the store back the slabs it retires.
func TestWriteBucketsRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gate := allocgate.Begin(t)
	const numBuckets, slotsPer, slotSize = 24, 40, 300
	c, backend := newRemotePair(t, numBuckets)
	writes := make([]BucketWrite, numBuckets)
	size := 4
	for b := range writes {
		slots := make([][]byte, slotsPer)
		for i := range slots {
			slots[i] = bytes.Repeat([]byte{byte(b), byte(i)}, slotSize/2)
			size += 4 + slotSize
		}
		writes[b] = BucketWrite{Bucket: b, Epoch: 1, Slots: slots}
		size += 16
	}
	if size <= serverReadBuf {
		t.Fatalf("a %d byte vector is not longer than the server's read buffer", size)
	}
	for _, tc := range []struct {
		name   string
		writes []BucketWrite
	}{{"long", writes}, {"short", writes[:4]}} {
		call := func() {
			if err := c.WriteBuckets(tc.writes); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			call()
		}
		gate.Settle()
		allocs := testing.AllocsPerRun(100, call)
		t.Logf("%s WriteBuckets (%d buckets × %d slots): %.2f allocations per round trip, both ends", tc.name, len(tc.writes), slotsPer, allocs)
		if allocs > 0 {
			t.Errorf("%.2f allocations per %s WriteBuckets round trip, want 0: the vector is buffered whole again, or the send allocates per call", allocs, tc.name)
		}
	}
	for b, w := range writes {
		got, err := backend.ReadBucket(b)
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
