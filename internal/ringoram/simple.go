package ringoram

import (
	"errors"
	"fmt"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
	"obladi/internal/slab"
)

// Store is the slot-granularity storage interface the sequential client
// drives. Implementations decide how writes map onto shadow-paged epochs. A
// store must not retain the slots WriteBucket is handed: the client reuses
// their bytes once the call returns.
type Store interface {
	ReadSlot(bucket, slot int) ([]byte, error)
	WriteBucket(bucket int, slots [][]byte) error
}

// Seq is a synchronous, sequential Ring ORAM: it plans each logical
// operation whole on the machine (its access, then the early reshuffles and
// evict-paths the access makes due, as meta's PlanRead and PlanWrite lay them
// out), then runs the steps one at a time, reading one slot per call and
// writing each bucket an eviction rewrites back at once, one bucket per call.
// It is the canonical construction the paper benchmarks against (the
// "Sequential" series of Figure 10a) and the reference oracle for the
// parallel executor's tests.
type Seq struct {
	oram    *ORAM
	store   Store
	arena   SealArena     // each bucket is sealed into it and written at once
	steps   []*meta.Plan  // the operation being run, reused
	evicted []BucketImage // an eviction's images, reused
	vals    slab.Bytes    // carves the values Read returns, which escape
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
	steps, err := s.oram.planWrite(key, value, tombstone, s.steps[:0])
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
	for _, p := range steps {
		data := make([][]byte, len(p.Reads))
		for i, r := range p.Reads {
			d, err := s.store.ReadSlot(r.Bucket, r.Slot)
			if err != nil {
				return nil, false, fmt.Errorf("ringoram: reading bucket %d slot %d: %w", r.Bucket, r.Slot, err)
			}
			data[i] = d
		}
		v, f, images, err := s.oram.complete(p, data, s.evicted[:0])
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

// planWrite plans a logical write (or delete, when tombstone is set) of key
// on the machine, as a driver does: a value over ValueSize is refused before
// anything is planned, and the block the machine returns is encoded (Put).
func (o *ORAM) planWrite(key string, value []byte, tombstone bool, dst []*meta.Plan) ([]*meta.Plan, error) {
	if len(value) > o.p.ValueSize {
		return dst, fmt.Errorf("ringoram: value of %d bytes exceeds ValueSize %d", len(value), o.p.ValueSize)
	}
	dst, b, err := o.m.PlanWrite(key, dst)
	if b != 0 {
		if perr := o.Put(b, key, value, tombstone); err == nil {
			err = perr
		}
	}
	return dst, err
}

// complete completes step p on the machine with the slots data holds, the
// ORAM as its plane, as a driver does. It returns the value an access
// returns — a view of its block's slot, valid until the block's next write
// or eviction — and images with the images an eviction placed while the
// local-version table is off (Evicted) appended.
func (o *ORAM) complete(p *meta.Plan, data [][]byte, images []BucketImage) ([]byte, bool, []BucketImage, error) {
	b, err := o.m.Complete(p, data, o)
	if err != nil {
		return nil, false, images, err
	}
	images = o.Evicted(images)
	if b == 0 {
		return nil, false, images, nil
	}
	v, tombstone, err := o.Value(b, o.m.Key(b))
	return v, err == nil && !tombstone, images, err
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
		err = s.store.WriteBucket(im.Bucket, slots)
		s.arena.Reset()
		if err != nil {
			return fmt.Errorf("ringoram: eviction write bucket %d: %w", im.Bucket, err)
		}
	}
	return nil
}
