package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"obladi/internal/storage"
)

// This file holds the two places where the benchmark counts what crosses a
// layer boundary: a storage.Backend wrapper between the proxy and its store,
// and a net.Listener wrapper under the client wire. Both count with atomics
// on every pass; the storage wrapper additionally records a span per call
// when a tracer is installed (traced pass only).

// callKind classifies a Backend call for the per-layer storage metrics.
type callKind uint8

const (
	callRead    callKind = iota // ReadSlot, ReadSlots, ReadBucket
	callWrite                   // WriteBucket, WriteBuckets
	callAppend                  // Append, AppendNoSync
	callBarrier                 // SyncLog, CommitEpoch
	callOther                   // everything else (metadata, scans, KV)
	numCallKinds
)

var callKindSpan = [numCallKinds]spanName{spanStorageRead, spanStorageWrite, spanStorageAppend, spanStorageBarrier, spanStorageOther}

// storageCounters is shared by every shard's wrapper of one environment.
type storageCounters struct {
	calls    [numCallKinds]atomic.Int64
	nanos    [numCallKinds]atomic.Int64
	bytesIn  atomic.Int64 // bytes returned to the proxy (slots, scanned records)
	bytesOut atomic.Int64 // bytes handed to the store (buckets, log records)
	logBytes atomic.Int64 // the log-record share of bytesOut
	barriers atomic.Int64 // durability barriers: SyncLog, synchronous Append, CommitEpoch
	// The two ways an epoch can be retired: CommitEpoch pays its own barrier,
	// CommitEpochNoSync rides the round's SyncLog (the unified commit).
	commitsInline atomic.Int64
	commitsNoSync atomic.Int64
	// commitDone is the monotonic time (ns) at which the newest boundary
	// commit's last barrier returned: CommitEpoch's return, or the return of
	// the first SyncLog issued after a CommitEpochNoSync.
	commitDone atomic.Int64

	tracer atomic.Pointer[tracer]
}

// storageSnapshot is a plain copy of the counters.
type storageSnapshot struct {
	calls    [numCallKinds]int64
	nanos    [numCallKinds]int64
	bytesIn  int64
	bytesOut int64
	logBytes int64
	barriers int64
}

func (c *storageCounters) snapshot() storageSnapshot {
	var s storageSnapshot
	for k := range s.calls {
		s.calls[k] = c.calls[k].Load()
		s.nanos[k] = c.nanos[k].Load()
	}
	s.bytesIn = c.bytesIn.Load()
	s.bytesOut = c.bytesOut.Load()
	s.logBytes = c.logBytes.Load()
	s.barriers = c.barriers.Load()
	return s
}

func (s storageSnapshot) sub(o storageSnapshot) storageSnapshot {
	for k := range s.calls {
		s.calls[k] -= o.calls[k]
		s.nanos[k] -= o.nanos[k]
	}
	s.bytesIn -= o.bytesIn
	s.bytesOut -= o.bytesOut
	s.logBytes -= o.logBytes
	s.barriers -= o.barriers
	return s
}

func (s storageSnapshot) totalCalls() int64 {
	var n int64
	for _, c := range s.calls {
		n += c
	}
	return n
}

// meter wraps a storage.Backend. It exposes exactly the Backend methods;
// the optional capabilities live on the embedding types below so that a
// type assertion on the wrapper answers as it would on the wrapped store.
type meter struct {
	inner storage.Backend
	c     *storageCounters
}

// meterFence adds Fenceable (MemBackend, remote Client).
type meterFence struct{ meter }

// meterBatch adds LogBatcher (disk shards on per-shard files).
type meterBatch struct {
	meter
	lb storage.LogBatcher
}

// meterUnified adds LogBatcher and EpochCommitBatcher (logheap shards): the
// pair the proxy probes for before taking the single-barrier commit.
type meterUnified struct {
	meterBatch
	ecb storage.EpochCommitBatcher
	// syncOwed is set by CommitEpochNoSync and taken by the next SyncLog,
	// whose return is the boundary commit's durability point.
	syncOwed atomic.Bool
}

// meterBackends wraps every shard's store with one shared counter set,
// preserving each store's optional capabilities. A capability set the
// wrapper types cannot mirror is an error: silently hiding one would change
// the commit path being measured.
func meterBackends(stores []storage.Backend, c *storageCounters) ([]storage.Backend, error) {
	out := make([]storage.Backend, len(stores))
	for i, st := range stores {
		m := meter{inner: st, c: c}
		lb, isLB := st.(storage.LogBatcher)
		ecb, isECB := st.(storage.EpochCommitBatcher)
		_, isF := st.(storage.Fenceable)
		switch {
		case isLB && isECB && !isF:
			out[i] = &meterUnified{meterBatch: meterBatch{meter: m, lb: lb}, ecb: ecb}
		case isLB && !isECB && !isF:
			out[i] = &meterBatch{meter: m, lb: lb}
		case isF && !isLB && !isECB:
			out[i] = &meterFence{m}
		case !isF && !isLB && !isECB:
			out[i] = &m
		default:
			return nil, fmt.Errorf("benchmark: store %T has a capability set the meter cannot mirror (batch=%v unified=%v fence=%v)", st, isLB, isECB, isF)
		}
	}
	return out, nil
}

// end accounts one forwarded call that began at start.
func (m *meter) end(kind callKind, start int64) int64 {
	end := nanotime()
	m.c.calls[kind].Add(1)
	m.c.nanos[kind].Add(end - start)
	if tr := m.c.tracer.Load(); tr != nil {
		tr.storageSpan(callKindSpan[kind], start, end)
	}
	return end
}

func slotBytes(slots [][]byte) int64 {
	var n int64
	for _, s := range slots {
		n += int64(len(s))
	}
	return n
}

func (m *meter) ReadSlot(bucket, slot int) ([]byte, error) {
	t := nanotime()
	b, err := m.inner.ReadSlot(bucket, slot)
	m.c.bytesIn.Add(int64(len(b)))
	m.end(callRead, t)
	return b, err
}

func (m *meter) ReadSlots(refs []storage.SlotRef) ([][]byte, error) {
	t := nanotime()
	out, err := m.inner.ReadSlots(refs)
	m.c.bytesIn.Add(slotBytes(out))
	m.end(callRead, t)
	return out, err
}

func (m *meter) ReadBucket(bucket int) ([][]byte, error) {
	t := nanotime()
	out, err := m.inner.ReadBucket(bucket)
	m.c.bytesIn.Add(slotBytes(out))
	m.end(callRead, t)
	return out, err
}

func (m *meter) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	t := nanotime()
	m.c.bytesOut.Add(slotBytes(slots))
	err := m.inner.WriteBucket(bucket, epoch, slots)
	m.end(callWrite, t)
	return err
}

func (m *meter) WriteBuckets(writes []storage.BucketWrite) error {
	t := nanotime()
	var n int64
	for i := range writes {
		n += slotBytes(writes[i].Slots)
	}
	m.c.bytesOut.Add(n)
	err := m.inner.WriteBuckets(writes)
	m.end(callWrite, t)
	return err
}

func (m *meter) CommitEpoch(epoch uint64) error {
	t := nanotime()
	err := m.inner.CommitEpoch(epoch)
	m.c.commitsInline.Add(1)
	m.c.barriers.Add(1)
	m.c.commitDone.Store(m.end(callBarrier, t))
	return err
}

func (m *meter) RollbackTo(epoch uint64) error {
	t := nanotime()
	err := m.inner.RollbackTo(epoch)
	m.end(callOther, t)
	return err
}

func (m *meter) NumBuckets() (int, error) {
	t := nanotime()
	n, err := m.inner.NumBuckets()
	m.end(callOther, t)
	return n, err
}

func (m *meter) Get(key string) ([]byte, bool, error) {
	t := nanotime()
	v, ok, err := m.inner.Get(key)
	m.c.bytesIn.Add(int64(len(v)))
	m.end(callOther, t)
	return v, ok, err
}

func (m *meter) Put(key string, value []byte) error {
	t := nanotime()
	m.c.bytesOut.Add(int64(len(key) + len(value)))
	err := m.inner.Put(key, value)
	m.end(callOther, t)
	return err
}

func (m *meter) Delete(key string) error {
	t := nanotime()
	err := m.inner.Delete(key)
	m.end(callOther, t)
	return err
}

// Append is the synchronous append: the record and its barrier in one call.
func (m *meter) Append(record []byte) (uint64, error) {
	t := nanotime()
	m.c.bytesOut.Add(int64(len(record)))
	m.c.logBytes.Add(int64(len(record)))
	seq, err := m.inner.Append(record)
	m.c.barriers.Add(1)
	m.end(callAppend, t)
	return seq, err
}

func (m *meter) Scan(from uint64) ([][]byte, error) {
	t := nanotime()
	out, err := m.inner.Scan(from)
	m.c.bytesIn.Add(slotBytes(out))
	m.end(callOther, t)
	return out, err
}

func (m *meter) Truncate(before uint64) error {
	t := nanotime()
	err := m.inner.Truncate(before)
	m.end(callOther, t)
	return err
}

func (m *meter) LastSeq() (uint64, error) {
	t := nanotime()
	seq, err := m.inner.LastSeq()
	m.end(callOther, t)
	return seq, err
}

func (m *meter) Close() error { return m.inner.Close() }

// AcquireFence forwards Fenceable; the returned view is metered too, so a
// fenced generation's calls stay counted.
func (m *meterFence) AcquireFence() (storage.Backend, uint64, error) {
	view, token, err := m.inner.(storage.Fenceable).AcquireFence()
	if err != nil {
		return nil, 0, err
	}
	wrapped, err := meterBackends([]storage.Backend{view}, m.c)
	if err != nil {
		return nil, 0, err
	}
	return wrapped[0], token, nil
}

func (m *meterBatch) AppendNoSync(record []byte) (uint64, error) {
	t := nanotime()
	m.c.bytesOut.Add(int64(len(record)))
	m.c.logBytes.Add(int64(len(record)))
	seq, err := m.lb.AppendNoSync(record)
	m.end(callAppend, t)
	return seq, err
}

func (m *meterBatch) SyncLog() error {
	t := nanotime()
	err := m.lb.SyncLog()
	m.c.barriers.Add(1)
	m.end(callBarrier, t)
	return err
}

func (m *meterUnified) SyncLog() error {
	owed := m.syncOwed.Swap(false)
	t := nanotime()
	err := m.lb.SyncLog()
	m.c.barriers.Add(1)
	end := m.end(callBarrier, t)
	if owed {
		m.c.commitDone.Store(end)
	}
	return err
}

func (m *meterUnified) CommitEpochNoSync(epoch uint64) error {
	t := nanotime()
	err := m.ecb.CommitEpochNoSync(epoch)
	m.c.commitsNoSync.Add(1)
	m.end(callOther, t)
	m.syncOwed.Store(true)
	return err
}

// CommitStream forwards the wrapped store's stream identity unchanged: the
// proxy compares it across shards, and every shard of a logheap group must
// keep reporting the same physical log.
func (m *meterUnified) CommitStream() any { return m.ecb.CommitStream() }

// wireCounters counts what crosses the client wire, on the server side of
// the loopback connection.
type wireCounters struct {
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// countingListener wraps accepted connections with byte counters.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

// runStart anchors nanotime; monotonic readings are taken relative to it.
var runStart = time.Now()

// nanotime is the monotonic clock all spans and block timings share.
func nanotime() int64 { return int64(time.Since(runStart)) }
