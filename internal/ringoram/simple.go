package ringoram

import (
	"errors"
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/slab"
	"obladi/internal/storage"
)

// Seq is a synchronous, sequential Ring ORAM: it plans each logical
// operation whole on the machine (its access, then the early reshuffles and
// evict-paths the access makes due, as meta's PlanRead and PlanWrite lay them
// out), then runs the steps one at a time, reading one slot per call and
// writing each bucket an eviction rewrites back at once, one bucket per call.
// It is the canonical construction the paper benchmarks against (the
// "Sequential" series of Figure 10a) and the reference oracle for the
// parallel executor's tests.
//
// Seq drives a storage.BucketStore with vectors of one: a ReadSlots call of
// one ref per slot, a WriteBuckets call of one bucket per write. Every write
// is tagged epoch 0: Seq has no epochs, commits nothing and never rolls back,
// and a store replaces a bucket's version of the same epoch, so the store
// holds just the newest version of every bucket.
type Seq struct {
	oram    *ORAM
	store   storage.BucketStore
	arena   SealArena     // each bucket is sealed into it and written at once
	steps   []*meta.Plan  // the operation being run, reused
	evicted []BucketImage // an eviction's images, reused
	vals    slab.Bytes    // carves the values Read returns, which escape
	// reads is where a step's slots are read into, a slot frame each,
	// reused step after step: a completion opens every slot it delivers.
	reads []byte
	ref   [1]storage.SlotRef
}

// NewSeq creates a sequential Ring ORAM over store and writes its fresh tree,
// one bucket at a time in heap order.
func NewSeq(store storage.BucketStore, key *cryptoutil.Key, p Params) (*Seq, error) {
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
		if err := s.storeBucket(b, slots); err != nil {
			return nil, fmt.Errorf("ringoram: initializing bucket %d: %w", b, err)
		}
	}
	return s, nil
}

// ORAM exposes the underlying client (for inspection in tests).
func (s *Seq) ORAM() *ORAM { return s.oram }

// Read returns the value of key, or found=false if the key was never
// written (or was deleted).
func (s *Seq) Read(key string) ([]byte, bool, error) {
	steps, err := s.oram.m.PlanRead(key, s.steps[:0])
	s.steps = steps
	if err != nil {
		return nil, false, err
	}
	return s.run(steps)
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
	if key == "" {
		return errors.New("ringoram: empty key")
	}
	steps, err := s.oram.m.PlanWrite(key, value, tombstone, s.steps[:0])
	s.steps = steps
	if err == nil {
		_, _, err = s.run(steps)
	}
	return err
}

// DummyRead issues a padding access (used by callers that must keep a fixed
// request rate).
func (s *Seq) DummyRead() error {
	_, _, err := s.Read("")
	return err
}

// run performs an operation's steps in plan order: each step's reads one slot
// at a time, its completion, and the buckets it rewrites one at a time. It
// returns a copy of the access's value.
func (s *Seq) run(steps []*meta.Plan) ([]byte, bool, error) {
	defer clear(steps)
	var value []byte
	var found bool
	size := s.oram.SlotSize()
	for _, p := range steps {
		data := make([][]byte, len(p.Reads))
		if n := len(p.Reads) * size; cap(s.reads) < n {
			s.reads = make([]byte, n)
		}
		for i, r := range p.Reads {
			s.ref[0] = storage.SlotRef{Bucket: r.Bucket, Slot: r.Slot, Into: s.reads[i*size : (i+1)*size : (i+1)*size]}
			d, err := s.store.ReadSlots(s.ref[:])
			if err != nil {
				return nil, false, fmt.Errorf("ringoram: reading bucket %d slot %d: %w", r.Bucket, r.Slot, err)
			}
			data[i] = d[0]
		}
		v, f, images, err := s.oram.Complete(p, data, s.evicted[:0])
		s.evicted = images
		if err == nil {
			err = s.writeBack(images)
		}
		if err != nil {
			return nil, false, err
		}
		if f {
			value, found = s.vals.Copy(v), true
		}
	}
	return value, found, nil
}

// writeBack seals and writes an eviction's images, one bucket per call.
func (s *Seq) writeBack(images []BucketImage) error {
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
		if err := s.storeBucket(im.Bucket, slots); err != nil {
			return fmt.Errorf("ringoram: eviction write bucket %d: %w", im.Bucket, err)
		}
	}
	return nil
}

// storeBucket stores one sealed bucket, tagged epoch 0, and resets the arena
// its slots were carved from: the store copied what it keeps.
func (s *Seq) storeBucket(bucket int, slots [][]byte) error {
	defer s.arena.Reset()
	return s.store.WriteBuckets([]storage.BucketWrite{{Bucket: bucket, Epoch: 0, Slots: slots}})
}
