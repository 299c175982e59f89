package storage

import (
	"bytes"
	"testing"
)

// reusedReadsBackend answers vectored reads out of one reused slice, so a
// round trip's allocations are the wire's alone. Calls must not overlap.
type reusedReadsBackend struct {
	*MemBackend
	out [][]byte
}

func (b *reusedReadsBackend) ReadSlots(refs []SlotRef) ([][]byte, error) {
	b.out = b.out[:0]
	for _, r := range refs {
		d, err := b.ReadSlot(r.Bucket, r.Slot)
		if err != nil {
			return nil, err
		}
		b.out = append(b.out, d)
	}
	return b.out, nil
}

// TestReadSlotsRoundTripAllocBudget pins the storage wire's per-call cost:
// a ReadSlots round trip against an in-process Server allocates the reply
// arena the caller keeps (its bytes and its slot table) and nothing else at
// either end — no frame header, no per-request goroutine.
func TestReadSlotsRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const numBuckets, slotsPer, slotSize = 16, 4, 300
	backend := &reusedReadsBackend{MemBackend: NewMemBackend(numBuckets)}
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
	call := func() {
		got, err := c.ReadSlots(refs)
		if err != nil || len(got) != len(refs) {
			t.Fatalf("ReadSlots: %d slots, err %v", len(got), err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(200, call)
	t.Logf("ReadSlots of %d slots: %.2f allocations per round trip, both ends", len(refs), allocs)
	if allocs > 2 {
		t.Errorf("%.2f allocations per ReadSlots round trip, budget 2 (the reply arena): the wire allocates per call again", allocs)
	}
}
