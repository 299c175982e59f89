package storage

import (
	"bytes"
	"fmt"
	"path"
	"sync"
)

// The barrier oracle checks every durability call at its return instead of
// only after a crash: when Append, SyncLog, CommitEpoch or RollbackTo
// returns nil on a crash sweep's handle, every record appended before the
// call must lie inside the durable prefix of the whole physical log, as the
// crashFS's per-file durable bytes show it. A record in a later segment is
// durable only if every record before it is, because an open drops the
// segments after one whose tail tore. The recovery checks alone miss an
// early ack whenever the crash point happens not to fall in its window.

// barrierOracle holds the first violation it saw; the sweeps report it.
// "Appended before the call" means written by an append call that had
// returned when the durability call began: a record another goroutine is
// still appending is that call's business, not this one's.
type barrierOracle struct {
	fsys *crashFS
	mu   sync.Mutex
	done uint64 // highest physical record a returned append call wrote
	bad  error
}

// violation reports the first call that returned before its records were
// durable.
func (o *barrierOracle) violation() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bad
}

// wrote notes that an append call that wrote records up to phys returned.
func (o *barrierOracle) wrote(phys uint64) {
	o.mu.Lock()
	o.done = max(o.done, phys)
	o.mu.Unlock()
}

func (o *barrierOracle) returned() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.done
}

// check records a violation when l's durable prefix ends below want. It
// checks nothing once the disk lies about fsync: a dropped fsync makes
// nothing durable by construction.
func (o *barrierOracle) check(l *diskLog, call string, want uint64) {
	if o.fsys.lying() {
		return
	}
	if got := durablePrefix(o.fsys, l); got < want {
		o.mu.Lock()
		if o.bad == nil {
			o.bad = fmt.Errorf("%s returned nil with physical record %d appended before it, but the log is durable only through %d", call, want, got)
		}
		o.mu.Unlock()
	}
}

// durablePrefix returns the highest physical sequence number whose whole
// prefix of l's retained records lies in fsys's durable bytes.
func durablePrefix(fsys *crashFS, l *diskLog) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	for _, seg := range l.segs {
		n := fsys.nodes[path.Clean(joinPath(l.dir, seg.name))]
		for i, off := range seg.offs {
			end := off + int64(seg.lens[i])
			if n == nil || int64(len(n.durable)) < end || !bytes.Equal(n.durable[off:end], n.data[off:end]) {
				return seg.base + uint64(i) - 1
			}
		}
	}
	return l.lastSeq.Load()
}

// checkedShard is a shard whose durability calls the oracle checks at their
// return, and whose append calls tell it what they wrote (a nil oracle
// checks nothing).
type checkedShard struct {
	*LogHeap
	o *barrierOracle
}

// checkShards wraps g's shards for o.
func checkShards(g *DiskGroup, o *barrierOracle) []checkedShard {
	out := make([]checkedShard, len(g.shards))
	for i, v := range g.shards {
		out[i] = checkedShard{v, o}
	}
	return out
}

// streamPhys is the physical record of the shard's log record seq, or 0
// once a Truncate dropped it.
func (s checkedShard) streamPhys(seq uint64) uint64 {
	s.log.mu.RLock()
	defer s.log.mu.RUnlock()
	st := &s.log.streams[s.walStream]
	if seq < st.floor {
		return 0
	}
	return st.phys[seq-st.floor]
}

// heapWrote notes the shard's heap records once a call appending them
// returned.
func (s checkedShard) heapWrote(err error) error {
	if err == nil && s.o != nil {
		s.mu.RLock()
		phys := s.lastPhys
		s.mu.RUnlock()
		s.o.wrote(phys)
	}
	return err
}

// barrier runs a durability call and checks it against the records appended
// before it.
func (s checkedShard) barrier(call string, fn func() error) error {
	if s.o == nil {
		return fn()
	}
	want := s.o.returned()
	err := fn()
	if err == nil {
		s.o.check(s.log, call, want)
	}
	return err
}

func (s checkedShard) Append(record []byte) (uint64, error) {
	seq, err := s.LogHeap.Append(record)
	if err == nil && s.o != nil {
		phys := s.streamPhys(seq)
		s.o.wrote(phys)
		s.o.check(s.log, "Append", phys)
	}
	return seq, err
}

func (s checkedShard) AppendNoSync(record []byte) (uint64, error) {
	seq, err := s.LogHeap.AppendNoSync(record)
	if err == nil && s.o != nil {
		s.o.wrote(s.streamPhys(seq))
	}
	return seq, err
}

func (s checkedShard) WriteBuckets(writes []BucketWrite) error {
	return s.heapWrote(s.LogHeap.WriteBuckets(writes))
}

func (s checkedShard) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(s, bucket, epoch, slots)
}

func (s checkedShard) SyncLog() error {
	return s.barrier("SyncLog", s.LogHeap.SyncLog)
}

func (s checkedShard) CommitEpoch(epoch uint64) error {
	return s.barrier("CommitEpoch", func() error { return s.heapWrote(s.LogHeap.CommitEpoch(epoch)) })
}

func (s checkedShard) RollbackTo(epoch uint64) error {
	return s.barrier("RollbackTo", func() error { return s.heapWrote(s.LogHeap.RollbackTo(epoch)) })
}

// checkedBatcher is a checkedShard with the EpochCommitBatcher face a
// logheap group's Backends expose.
type checkedBatcher struct{ checkedShard }

func (s checkedBatcher) CommitEpochNoSync(epoch uint64) error {
	return s.heapWrote(s.commitEpochNoSync(epoch))
}

func (s checkedBatcher) CommitStream() any { return s.log }
