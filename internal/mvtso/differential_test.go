package mvtso

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The reference model: MVTSO as the package comment states it, on maps and
// freshly allocated objects, with none of the manager's slabs, inline arrays,
// index arithmetic or spill paths. Transactions are visited in timestamp
// order wherever the rules visit "every transaction".

type refVersion struct {
	writer, marker Timestamp
	value          []byte
	absent, tomb   bool
}

type refTxn struct {
	ts               Timestamp
	status           Status
	deps, dependents map[Timestamp]bool
	writes           map[string]bool
}

type refModel struct {
	next                Timestamp
	chains              map[string][]*refVersion
	hasBase             map[string]bool
	txns                map[Timestamp]*refTxn
	perShard            int
	counts              [2]int
	charged             map[string]bool
	conflicts, cascades int64
}

func newRefModel(perShard int) *refModel {
	return &refModel{chains: map[string][]*refVersion{}, hasBase: map[string]bool{}, txns: map[Timestamp]*refTxn{},
		perShard: perShard, charged: map[string]bool{}}
}

func refShard(key string) int { return int(key[len(key)-1]) & 1 }

func (r *refModel) begin() *refTxn {
	r.next++
	t := &refTxn{ts: r.next, deps: map[Timestamp]bool{}, dependents: map[Timestamp]bool{}, writes: map[string]bool{}}
	r.txns[t.ts] = t
	return t
}

func (r *refModel) inOrder() []*refTxn {
	var out []*refTxn
	for _, t := range r.txns {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ts < out[j].ts })
	return out
}

func (r *refModel) installBase(key string, value []byte, found bool) {
	if !r.hasBase[key] {
		r.hasBase[key] = true
		r.chains[key] = append([]*refVersion{{value: value, absent: !found}}, r.chains[key]...)
	}
}

func refGate(t *refTxn) error {
	switch t.status {
	case StatusAborted:
		return ErrAborted
	case StatusActive:
		return nil
	}
	return ErrNotActive
}

func (r *refModel) read(t *refTxn, key string) ([]byte, bool, error) {
	if err := refGate(t); err != nil {
		return nil, false, err
	}
	var vis *refVersion
	for _, v := range r.chains[key] {
		if v.writer <= t.ts {
			vis = v
		}
	}
	if vis == nil {
		return nil, false, ErrNeedFetch
	}
	vis.marker = max(vis.marker, t.ts)
	if vis.writer != 0 && vis.writer != t.ts {
		t.deps[vis.writer] = true
		r.txns[vis.writer].dependents[t.ts] = true
	}
	if vis.absent || vis.tomb {
		return nil, false, nil
	}
	return vis.value, true, nil
}

func (r *refModel) write(t *refTxn, key string, value []byte, tomb bool) error {
	if err := refGate(t); err != nil {
		return err
	}
	if r.perShard > 0 && !r.charged[key] {
		if r.counts[refShard(key)] >= r.perShard {
			return ErrWriteBatchFull
		}
		r.charged[key] = true
		r.counts[refShard(key)]++
	}
	c := r.chains[key]
	idx := sort.Search(len(c), func(i int) bool { return c[i].writer >= t.ts })
	own := idx < len(c) && c[idx].writer == t.ts
	if own && c[idx].marker > t.ts || !own && idx > 0 && c[idx-1].marker > t.ts {
		r.conflicts++
		r.abort(t)
		return ErrAborted
	}
	if own {
		c[idx].value, c[idx].tomb, c[idx].absent = value, tomb, false
	} else {
		r.chains[key] = slices.Insert(c, idx, &refVersion{writer: t.ts, value: value, tomb: tomb})
	}
	t.writes[key] = true
	return nil
}

func (r *refModel) commit(t *refTxn) error {
	if err := refGate(t); err != nil {
		return err
	}
	t.status = StatusFinished
	return nil
}

func (r *refModel) abort(t *refTxn) {
	if t.status == StatusAborted || t.status == StatusCommitted {
		return
	}
	t.status = StatusAborted
	for key := range t.writes {
		r.chains[key] = slices.DeleteFunc(r.chains[key], func(v *refVersion) bool { return v.writer == t.ts })
	}
	for dep := range t.dependents {
		if reader := r.txns[dep]; reader.status != StatusAborted {
			r.cascades++
			r.abort(reader)
		}
	}
}

func (r *refModel) reset() {
	r.chains, r.hasBase, r.txns = map[string][]*refVersion{}, map[string]bool{}, map[Timestamp]*refTxn{}
	r.counts, r.charged = [2]int{}, map[string]bool{}
}

func (r *refModel) finalize() Outcome {
	txns := r.inOrder()
	for _, t := range txns {
		if t.status == StatusActive {
			r.abort(t)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range txns {
			for dep := range t.deps {
				if t.status == StatusFinished && r.txns[dep].status == StatusAborted {
					r.cascades++
					r.abort(t)
					changed = true
				}
			}
		}
	}
	out := Outcome{Committed: []Timestamp{}, Aborted: []Timestamp{}, Writes: []WriteSetEntry{}}
	for _, t := range txns {
		if t.status == StatusFinished {
			t.status = StatusCommitted
			out.Committed = append(out.Committed, t.ts)
		} else {
			out.Aborted = append(out.Aborted, t.ts)
		}
	}
	for key, c := range r.chains {
		if n := len(c); n > 0 && c[n-1].writer != 0 {
			out.Writes = append(out.Writes, WriteSetEntry{Key: key, Value: c[n-1].value, Tombstone: c[n-1].tomb})
		}
	}
	sort.Slice(out.Writes, func(i, j int) bool { return out.Writes[i].Key < out.Writes[j].Key })
	r.reset()
	return out
}

func (r *refModel) abortAll() []Timestamp {
	var out []Timestamp
	for _, t := range r.inOrder() {
		r.abort(t)
		out = append(out, t.ts)
	}
	r.reset()
	return out
}

// errClass reduces an error to the sentinel callers match on.
func errClass(err error) error {
	for _, s := range []error{ErrAborted, ErrNotActive, ErrNeedFetch, ErrWriteBatchFull} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// differential drives the manager and the reference model with one operation
// stream and fails on the first return value that differs.
type differential struct {
	t    *testing.T
	seed uint64
	m    *Manager
	r    *refModel
	live []handlePair // this epoch's transactions
	old  []handlePair // handles kept from earlier epochs
	nval int
}

type handlePair struct {
	tx  *Txn
	ref *refTxn
}

func (d *differential) failf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d: %s", d.seed, fmt.Sprintf(format, args...))
}

func (d *differential) begin() handlePair {
	h := handlePair{d.m.Begin(), d.r.begin()}
	if h.tx.TS() != h.ref.ts {
		d.failf("Begin: timestamp %d, model %d", h.tx.TS(), h.ref.ts)
	}
	d.live = append(d.live, h)
	return h
}

func (d *differential) base(key string) {
	found := len(key)%2 == 0
	d.m.InstallBase(key, []byte("base-"+key), found)
	d.r.installBase(key, []byte("base-"+key), found)
}

func (d *differential) read(h handlePair, key string) {
	v, found, err := h.tx.Read(key)
	rv, rfound, rerr := d.r.read(h.ref, key)
	if errClass(err) != rerr || found != rfound || !bytes.Equal(v, rv) {
		d.failf("txn %d Read(%q) = %q %v %v, model %q %v %v", h.ref.ts, key, v, found, err, rv, rfound, rerr)
	}
}

func (d *differential) write(h handlePair, key string, tomb bool) {
	d.nval++
	var value []byte
	var err error
	if tomb {
		err = h.tx.Delete(key)
	} else {
		value = fmt.Appendf(nil, "v%d", d.nval)
		err = h.tx.Write(key, value)
	}
	if rerr := d.r.write(h.ref, key, value, tomb); errClass(err) != rerr {
		d.failf("txn %d write(%q, tomb=%v) = %v, model %v", h.ref.ts, key, tomb, err, rerr)
	}
}

func (d *differential) commit(h handlePair) {
	if err, rerr := h.tx.Commit(), d.r.commit(h.ref); errClass(err) != rerr {
		d.failf("txn %d Commit = %v, model %v", h.ref.ts, err, rerr)
	}
}

func (d *differential) abort(h handlePair) {
	h.tx.Abort()
	d.r.abort(h.ref)
}

func (d *differential) checkStatus() {
	for _, h := range d.live {
		if got := h.tx.Status(); got != h.ref.status {
			d.failf("Status(%d) = %v, model %v", h.ref.ts, got, h.ref.status)
		}
	}
	conf, casc := d.m.Stats()
	if conf != d.r.conflicts || casc != d.r.cascades {
		d.failf("Stats = %d conflict, %d cascading; model %d, %d", conf, casc, d.r.conflicts, d.r.cascades)
	}
}

func (d *differential) endEpoch(abandon bool) {
	d.checkStatus()
	if abandon {
		if got, want := d.m.AbortAll(), d.r.abortAll(); !slices.Equal(got, want) {
			d.failf("AbortAll = %v, model %v", got, want)
		}
	} else {
		got, want := d.m.FinalizeEpoch(), d.r.finalize()
		if !reflect.DeepEqual(got, want) {
			d.failf("FinalizeEpoch = %+v\nmodel %+v", got, want)
		}
	}
	d.old = append(d.old, d.live...)
	d.live = d.live[:0]
	d.checkStatus()
	// Handles of dead epochs answer from their final status alone.
	for _, h := range d.old {
		if h.tx.status != h.ref.status {
			d.failf("stale txn %d is %v, model %v", h.ref.ts, h.tx.status, h.ref.status)
		}
	}
}

// TestDifferentialAgainstReferenceModel runs seeded interleavings of every
// operation against the manager and the reference model: every return value,
// every Outcome (fates, write set with values) and the abort counters must
// agree. Each seed adds the shapes that leave the inline arrays: a transaction
// with more than 40 writes, a writer with more than 100 dependents, a key
// with a long version chain, rewrites by the same transaction, reads from a
// writer that already requested commit (the edge the boundary's fixpoint
// guards), a write budget, and operations on handles of earlier epochs.
func TestDifferentialAgainstReferenceModel(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		runDifferential(t, seed)
	}
}

func runDifferential(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x6f626c61))
	perShard := 0
	if seed%2 == 0 {
		perShard = 4 + int(seed%37)
	}
	d := &differential{t: t, seed: seed, m: NewManager(), r: newRefModel(perShard)}
	if perShard > 0 {
		d.m.SetWriteBudget(2, perShard, refShard)
	}
	keys := make([]string, 4+rng.IntN(8))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%0*d", 1+i%3, i)
	}
	key := func() string { return keys[rng.IntN(len(keys))] }
	for epoch := 0; epoch < 3; epoch++ {
		for op, nops := 0, 40+rng.IntN(160); op < nops; op++ {
			if len(d.live) == 0 || rng.IntN(8) == 0 {
				d.begin()
				continue
			}
			h := d.live[rng.IntN(len(d.live))]
			if len(d.old) > 0 && rng.IntN(12) == 0 {
				h = d.old[rng.IntN(len(d.old))]
			}
			switch c := rng.IntN(20); {
			case c < 2:
				d.base(key())
			case c < 9:
				d.read(h, key())
			case c < 14:
				d.write(h, key(), false)
			case c < 15:
				d.write(h, key(), true)
			case c < 16:
				k := key() // a rewrite by the same transaction
				d.write(h, k, false)
				d.write(h, k, rng.IntN(4) == 0)
			case c < 18:
				d.commit(h)
			default:
				d.abort(h)
			}
		}
		switch (int(seed) + epoch) % 3 {
		case 0:
			// One transaction writes 48 keys; then a writer requests commit and
			// 110 later transactions read what it wrote.
			wide := d.begin()
			for i := 0; i < 48; i++ {
				d.write(wide, fmt.Sprintf("wide%02d", i), i%7 == 0)
			}
			d.commit(wide)
			for i := 0; i < 110; i++ {
				r := d.begin()
				d.read(r, "wide03")
				d.read(r, "wide03")
				if i%3 == 0 {
					d.commit(r)
				}
			}
			if rng.IntN(2) == 0 {
				d.abort(wide) // a finished transaction can still be aborted: all 110 cascade
			}
		case 1:
			// A long chain on one key, read along the way, then its oldest
			// writer aborts: the cascade fans out through the readers.
			var writers []handlePair
			for i := 0; i < 12; i++ {
				w := d.begin()
				d.read(w, "hot")
				d.write(w, "hot", false)
				writers = append(writers, w)
			}
			d.base("hot")
			for _, w := range writers {
				d.read(w, "hot")
			}
			d.abort(writers[rng.IntN(3)])
		}
		d.endEpoch(seed%5 == 0 && epoch == 1)
	}
}
