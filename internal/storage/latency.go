package storage

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Profile models a storage backend's latency and concurrency behaviour.
// These correspond to the four backends of the paper's Figure 10:
//
//	dummy      — local, zero latency (measures proxy CPU)
//	server     — remote in-memory server, 0.3 ms ping
//	server WAN — remote in-memory server, 10 ms ping
//	dynamo     — DynamoDB-like: 1 ms reads, 3 ms writes, limited parallel
//	             request slots (models its blocking HTTP client)
type Profile struct {
	Name string
	// Read and Write are the per-request round-trip latencies. A request is
	// one storage call, however many slots or buckets it carries. This is
	// what makes the latency model honest for batched I/O — a vectored call
	// pays the round trip once, not once per element.
	Read  time.Duration
	Write time.Duration
	// ReadPerSlot and WritePerBucket are per-item service times charged on
	// top of the round trip: a vectored read of n slots costs
	// Read + n*ReadPerSlot, a vectored write-back of b buckets costs
	// Write + b*WritePerBucket (ReadSlot and WriteBucket are vectors of
	// one). They keep vectored calls from being modeled as free.
	ReadPerSlot    time.Duration
	WritePerBucket time.Duration
	// MaxConcurrent caps in-flight requests (0 means unlimited). A vectored
	// call occupies a single request slot.
	MaxConcurrent int
}

// Canonical profiles. Round trips follow §11 of the paper; per-item service
// times model the storage-side cost of carrying more items per request
// (in-memory server lookups, DynamoDB batch item charges).
var (
	ProfileDummy     = Profile{Name: "dummy"}
	ProfileServer    = Profile{Name: "server", Read: 300 * time.Microsecond, Write: 300 * time.Microsecond, ReadPerSlot: 2 * time.Microsecond, WritePerBucket: 10 * time.Microsecond}
	ProfileServerWAN = Profile{Name: "server WAN", Read: 10 * time.Millisecond, Write: 10 * time.Millisecond, ReadPerSlot: 2 * time.Microsecond, WritePerBucket: 10 * time.Microsecond}
	ProfileDynamo    = Profile{Name: "dynamo", Read: 1 * time.Millisecond, Write: 3 * time.Millisecond, ReadPerSlot: 5 * time.Microsecond, WritePerBucket: 25 * time.Microsecond, MaxConcurrent: 128}
)

// Profiles lists the canonical profiles in the order the paper plots them.
func Profiles() []Profile {
	return []Profile{ProfileDummy, ProfileServer, ProfileServerWAN, ProfileDynamo}
}

// Scaled returns a copy of the profile with latencies multiplied by factor.
// The benchmark harness uses factors < 1 to keep paper-scale experiments
// CI-friendly while preserving latency ratios between backends.
func (p Profile) Scaled(factor float64) Profile {
	q := p
	q.Read = time.Duration(float64(p.Read) * factor)
	q.Write = time.Duration(float64(p.Write) * factor)
	q.ReadPerSlot = time.Duration(float64(p.ReadPerSlot) * factor)
	q.WritePerBucket = time.Duration(float64(p.WritePerBucket) * factor)
	return q
}

// Pacer paces the calls to a modelled remote store: each call holds one of
// at most MaxConcurrent request slots and waits out its delay before it
// reaches the store. Latency paces the ORAM's store through one; the
// baselines' key-value store (internal/baseline) paces its calls through
// another.
type Pacer struct {
	slots   chan struct{} // nil when unlimited
	charged atomic.Int64  // nanoseconds of delay paced in all
}

// NewPacer returns a Pacer admitting at most maxConcurrent calls at once
// (0 means unlimited).
func NewPacer(maxConcurrent int) *Pacer {
	p := &Pacer{}
	if maxConcurrent > 0 {
		p.slots = make(chan struct{}, maxConcurrent)
	}
	return p
}

// Pace takes a request slot and waits d. The call it paces runs next, still
// holding the slot, which the returned release frees: a paced method opens
// with defer p.Pace(d)().
func (p *Pacer) Pace(d time.Duration) (release func()) {
	release = func() {}
	if p.slots != nil {
		p.slots <- struct{}{}
		release = func() { <-p.slots }
	}
	p.charged.Add(int64(d))
	delay(d)
	return release
}

// Charged reports the delay the Pacer has paced in all: the modelled time
// of the calls it paced, however they overlapped.
func (p *Pacer) Charged() time.Duration { return time.Duration(p.charged.Load()) }

// Latency wraps a Backend, injecting the profile's per-operation latency and
// concurrency cap. Sleeps happen outside the inner backend's locks, so
// independent operations overlap exactly as they would against a remote
// server with the given round-trip time.
type Latency struct {
	inner  Backend
	prof   Profile
	pace   *Pacer
	closed atomic.Bool // set by Close: over an inner without LogBatcher, SyncLog has no call that could fail
}

var (
	_ Backend        = (*Latency)(nil)
	_ streamedWriter = (*Latency)(nil)
)

// WithLatency wraps inner with the given profile.
func WithLatency(inner Backend, prof Profile) *Latency {
	return &Latency{inner: inner, prof: prof, pace: NewPacer(prof.MaxConcurrent)}
}

// Profile returns the wrapper's profile.
func (l *Latency) Profile() Profile { return l.prof }

// sleepGranularity is the portion of a delay left to a calibrated
// spin-wait: time.Sleep on stock Linux kernels rounds small sleeps up to
// roughly a tick (~1ms), which would erase the difference between the
// "server" (0.3ms) and "server WAN" (10ms) profiles.
const sleepGranularity = 1500 * time.Microsecond

// delay waits d: a sleep for all but the last sleepGranularity, then a
// spin-wait to the deadline.
func delay(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepGranularity {
		time.Sleep(d - sleepGranularity)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

func (l *Latency) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(l, bucket, slot) }

// ReadSlots charges one round trip for the whole vector plus per-slot
// service time, occupying a single concurrency slot: the vectored call is
// one request on the wire.
func (l *Latency) ReadSlots(refs []SlotRef) ([][]byte, error) {
	defer l.pace.Pace(l.prof.Read + time.Duration(len(refs))*l.prof.ReadPerSlot)()
	return l.inner.ReadSlots(refs)
}

func (l *Latency) ReadBucket(bucket int) ([][]byte, error) {
	defer l.pace.Pace(l.prof.Read)()
	return l.inner.ReadBucket(bucket)
}

func (l *Latency) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(l, bucket, epoch, slots)
}

// WriteBuckets charges one round trip for the whole write-back vector plus
// per-bucket service time, occupying a single concurrency slot.
func (l *Latency) WriteBuckets(writes []BucketWrite) error {
	return l.writeStreamed(writes, true)
}

// writeStreamed is WriteBuckets of one group of a vector the storage server
// streams in groups: the vector's round trip is charged with the group that
// opens it, each bucket's service time with its group.
func (l *Latency) writeStreamed(writes []BucketWrite, opens bool) error {
	d := time.Duration(len(writes)) * l.prof.WritePerBucket
	if opens {
		d += l.prof.Write
	}
	defer l.pace.Pace(d)()
	return l.inner.WriteBuckets(writes)
}

func (l *Latency) CommitEpoch(epoch uint64) error {
	defer l.pace.Pace(l.prof.Write)()
	return l.inner.CommitEpoch(epoch)
}

func (l *Latency) RollbackTo(epoch uint64) error {
	defer l.pace.Pace(l.prof.Write)()
	return l.inner.RollbackTo(epoch)
}

func (l *Latency) NumBuckets() (int, error) {
	return l.inner.NumBuckets()
}

// Get, Put and Delete implement KVStore: no store keeps a namespace, so
// they answer the inner store's refusal unpaced.
func (l *Latency) Get(key string) ([]byte, bool, error) { return l.inner.Get(key) }
func (l *Latency) Put(key string, value []byte) error   { return l.inner.Put(key, value) }
func (l *Latency) Delete(key string) error              { return l.inner.Delete(key) }

func (l *Latency) Append(record []byte) (uint64, error) {
	defer l.pace.Pace(l.prof.Write)()
	return l.inner.Append(record)
}

// AppendNoSync implements LogBatcher: a deferred append models a pipelined,
// unacknowledged send — no round trip is charged until the SyncLog barrier.
func (l *Latency) AppendNoSync(record []byte) (uint64, error) {
	if lb, ok := l.inner.(LogBatcher); ok {
		return lb.AppendNoSync(record)
	}
	return l.inner.Append(record)
}

// SyncLog implements LogBatcher: the durability barrier is where the round
// trip is paid.
func (l *Latency) SyncLog() error {
	defer l.pace.Pace(l.prof.Write)()
	if lb, ok := l.inner.(LogBatcher); ok {
		return lb.SyncLog()
	}
	if l.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (l *Latency) Scan(from uint64) ([][]byte, error) {
	defer l.pace.Pace(l.prof.Read)()
	return l.inner.Scan(from)
}

func (l *Latency) Truncate(before uint64) error {
	defer l.pace.Pace(l.prof.Write)()
	return l.inner.Truncate(before)
}

func (l *Latency) LastSeq() (uint64, error) {
	defer l.pace.Pace(l.prof.Read)()
	return l.inner.LastSeq()
}

func (l *Latency) Close() error {
	l.closed.Store(true)
	return l.inner.Close()
}
