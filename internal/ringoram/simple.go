package ringoram

import (
	"fmt"

	"obladi/internal/cryptoutil"
)

// Store is the slot-granularity storage interface the sequential client
// drives. Implementations decide how writes map onto shadow-paged epochs. A
// store must not retain the slots WriteBucket is handed: the client reuses
// their bytes once the call returns.
type Store interface {
	ReadSlot(bucket, slot int) ([]byte, error)
	WriteBucket(bucket int, slots [][]byte) error
}

// Seq is a synchronous, sequential Ring ORAM: every logical operation's
// physical reads execute one at a time and evictions write back immediately.
// It is the canonical construction the paper benchmarks against (the
// "Sequential" series of Figure 10a) and the reference oracle for the
// parallel executor's tests.
type Seq struct {
	oram  *ORAM
	store Store
	arena SealArena // each bucket is sealed into it and written at once
}

// NewSeq creates a sequential Ring ORAM over store and writes its fresh tree,
// one bucket at a time in heap order.
func NewSeq(store Store, key *cryptoutil.Key, p Params) (*Seq, error) {
	o, err := New(key, p)
	if err != nil {
		return nil, err
	}
	s := &Seq{oram: o, store: store}
	for b := 0; b < o.geo.NumBuckets; b++ {
		slots, err := o.SealFresh(b, &s.arena)
		if err != nil {
			return nil, err
		}
		if err := store.WriteBucket(b, slots); err != nil {
			return nil, fmt.Errorf("ringoram: initializing bucket %d: %w", b, err)
		}
		s.arena.Reset()
	}
	return s, nil
}

// ORAM exposes the underlying client (for inspection in tests).
func (s *Seq) ORAM() *ORAM { return s.oram }

// Read returns the value of key, or found=false if the key was never
// written (or was deleted).
func (s *Seq) Read(key string) ([]byte, bool, error) {
	plan, due, err := s.oram.PlanRead(key)
	if err != nil {
		return nil, false, err
	}
	val, found, err := s.runAccess(plan)
	if err != nil {
		return nil, false, err
	}
	if err := s.maintain(due); err != nil {
		return nil, false, err
	}
	return val, found, nil
}

// Write stores value under key.
func (s *Seq) Write(key string, value []byte) error {
	return s.write(key, value, false)
}

// Delete removes key. The key keeps its position-map entry (removing it
// would leak the delete); subsequent reads observe found=false.
func (s *Seq) Delete(key string) error {
	return s.write(key, nil, true)
}

func (s *Seq) write(key string, value []byte, tombstone bool) error {
	if err := s.oram.PlanWrite(key, value, tombstone); err != nil {
		return err
	}
	return s.maintain(nil)
}

// DummyRead issues a padding access (used by callers that must keep a fixed
// request rate).
func (s *Seq) DummyRead() error {
	plan, due, err := s.oram.PlanDummyRead()
	if err != nil {
		return err
	}
	if _, _, err := s.runAccess(plan); err != nil {
		return err
	}
	return s.maintain(due)
}

// runAccess performs the plan's physical reads sequentially and completes it.
func (s *Seq) runAccess(plan *AccessPlan) ([]byte, bool, error) {
	var data [][]byte
	if !plan.Cached() {
		data = make([][]byte, len(plan.Reads))
		for i, r := range plan.Reads {
			d, err := s.store.ReadSlot(r.Bucket, r.Slot)
			if err != nil {
				return nil, false, fmt.Errorf("ringoram: reading bucket %d slot %d: %w", r.Bucket, r.Slot, err)
			}
			data[i] = d
		}
	}
	return s.oram.CompleteAccess(plan, data)
}

// maintain runs due early reshuffles, then any due evictions, writing
// buckets back immediately.
func (s *Seq) maintain(reshuffle []int) error {
	for _, b := range reshuffle {
		plan, err := s.oram.PlanReshuffle(b)
		if err != nil {
			return err
		}
		if err := s.runEviction(plan); err != nil {
			return err
		}
	}
	for s.oram.EvictDue() {
		plan, err := s.oram.PlanEvict()
		if err != nil {
			return err
		}
		if err := s.runEviction(plan); err != nil {
			return err
		}
	}
	return nil
}

func (s *Seq) runEviction(plan *EvictPlan) error {
	data := make([][]byte, len(plan.Reads))
	for i, r := range plan.Reads {
		d, err := s.store.ReadSlot(r.Bucket, r.Slot)
		if err != nil {
			return fmt.Errorf("ringoram: eviction read bucket %d slot %d: %w", r.Bucket, r.Slot, err)
		}
		data[i] = d
	}
	images, err := s.oram.CompleteEvict(plan, data)
	if err != nil {
		return err
	}
	defer func() {
		for i := range images {
			images[i].Recycle()
		}
	}()
	for _, im := range images {
		slots, err := s.oram.SealImage(im, &s.arena)
		if err != nil {
			return err
		}
		err = s.store.WriteBucket(im.Bucket, slots)
		s.arena.Reset()
		if err != nil {
			return fmt.Errorf("ringoram: eviction write bucket %d: %w", im.Bucket, err)
		}
	}
	return nil
}
