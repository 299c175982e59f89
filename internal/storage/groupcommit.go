package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds a disk group: its shards, the durable frontier of its one
// physical log, and its background maintenance.

// GroupStats counts a log's barrier work. Barriers/Syncs is the
// amortization factor its waves achieved.
type GroupStats struct {
	Barriers uint64        // barrier requests served
	Syncs    uint64        // fsyncs issued
	Waves    uint64        // fsyncs issued (== Syncs: a wave that straddles a rotation counts one per segment)
	SyncTime time.Duration // cumulative time spent inside fsync calls
}

// CommitGroup is a disk log's durable frontier, the one number every
// barrier waits on: durable is the highest physical sequence number whose
// whole prefix is on disk. The log's record order is its durability order,
// so no per-file or per-record state is needed. Barriers form fsync waves:
// a barrier with no wave in flight leads one itself, on its own goroutine,
// and every barrier arriving meanwhile waits for it to land and then
// returns or leads the next (diskLog.barrier).
type CommitGroup struct {
	mu      sync.Mutex
	landed  sync.Cond // broadcast (L = mu) when a wave lands
	durable uint64
	syncing bool // a barrier is leading a wave
	stats   GroupStats
}

// Stats snapshots the frontier's counters.
func (g *CommitGroup) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// ---- DiskGroup: N shards sharing one directory and one log ----

// DiskGroup is the deployment unit for group commit: n shards rooted in
// subdirectories of one data dir. The group owns one physical log (diskLog,
// in shard-000) that every shard's recovery-log stream and bucket versions
// ride (see logStream and LogHeap), so cross-shard barriers wait on one
// durable frontier and actually coalesce instead of merely running in
// parallel. shard-<i> holds only shard i's index checkpoint.
type DiskGroup struct {
	log *diskLog
	// views are set once the open has replayed the log and attached the
	// heaps to it.
	views []*GroupShard
	heaps []*LogHeap // one per shard
	// batchCommits is DiskOptions.LogHeap: Backends exposes
	// EpochCommitBatcher.
	batchCommits bool

	// Background maintenance (checkpoint + segment GC); nil channels when
	// off (crash-harness opens drive Checkpoint / EvacuateSegment explicitly
	// for determinism).
	maintainKick chan struct{}
	maintainStop chan struct{}
	maintainWG   sync.WaitGroup
}

// GroupShard is one shard of a DiskGroup as the proxy consumes it: its
// recovery-log face is its stream on the group's physical log, its bucket
// face its LogHeap on the same log. It keeps no key-value namespace
// (ErrNoKV).
type GroupShard struct {
	log    *diskLog
	stream uint32 // its WAL stream on log
	heap   *LogHeap
	// closed marks this shard logically closed. Its files belong to the
	// group — every shard's log stream rides the one physical log — so Close
	// cannot close them; the flag keeps the per-shard ErrClosed contract
	// (every op on a closed shard fails, the siblings keep working), and the
	// files close with the group.
	closed atomic.Bool
}

func (s *GroupShard) guard() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (s *GroupShard) Append(record []byte) (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	seq, phys, err := s.log.appendStream(s.stream, record)
	if err != nil {
		return 0, err
	}
	// The barrier runs outside the log's lock, so every stream's barrier
	// waits on the same frontier and coalesces.
	if err := s.log.barrier(phys); err != nil {
		return 0, err
	}
	return seq, nil
}
func (s *GroupShard) Scan(from uint64) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.log.scanStream(s.stream, from)
}
func (s *GroupShard) Truncate(before uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.log.truncateStream(s.stream, before)
}
func (s *GroupShard) LastSeq() (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	return s.log.streamLast(s.stream)
}

// AppendNoSync and SyncLog implement LogBatcher, where the one log earns
// its keep: shards append back to back, the first SyncLog's lone fsync
// covers the whole round — every stream's deferred records, on one wave —
// and the other shards' SyncLogs ride it or find it landed.
func (s *GroupShard) AppendNoSync(record []byte) (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	seq, _, err := s.log.appendStream(s.stream, record)
	return seq, err
}
func (s *GroupShard) SyncLog() error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.log.syncLog()
}

func (s *GroupShard) NumBuckets() (int, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	return s.heap.NumBuckets()
}
func (s *GroupShard) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(s, bucket, slot) }
func (s *GroupShard) ReadSlots(refs []SlotRef) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.heap.ReadSlots(refs)
}
func (s *GroupShard) ReadBucket(bucket int) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.heap.ReadBucket(bucket)
}
func (s *GroupShard) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	if err := s.guard(); err != nil {
		return dst, err
	}
	return s.heap.encodeSlots(dst, refs)
}
func (s *GroupShard) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	if err := s.guard(); err != nil {
		return dst, err
	}
	return s.heap.encodeBucket(dst, bucket)
}
func (s *GroupShard) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(s, bucket, epoch, slots)
}
func (s *GroupShard) WriteBuckets(writes []BucketWrite) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.heap.WriteBuckets(writes)
}
func (s *GroupShard) CommitEpoch(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.heap.CommitEpoch(epoch)
}
func (s *GroupShard) RollbackTo(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.heap.RollbackTo(epoch)
}

// CommittedEpoch / VersionCount mirror the bucket stores' test helpers.
func (s *GroupShard) CommittedEpoch() uint64      { return s.heap.CommittedEpoch() }
func (s *GroupShard) VersionCount(bucket int) int { return s.heap.VersionCount(bucket) }

// Get, Put and Delete implement KVStore: a shard keeps no namespace.
func (s *GroupShard) Get(string) ([]byte, bool, error) { return nil, false, s.noKV() }
func (s *GroupShard) Put(string, []byte) error         { return s.noKV() }
func (s *GroupShard) Delete(string) error              { return s.noKV() }

func (s *GroupShard) noKV() error {
	if err := s.guard(); err != nil {
		return err
	}
	if err := s.log.checkUsable(); err != nil {
		return err
	}
	return ErrNoKV
}

// Close closes the shard logically (see closed).
func (s *GroupShard) Close() error {
	s.closed.Store(true)
	return nil
}

// logHeapShard is the Backend face of a shard of a group opened with
// DiskOptions.LogHeap: a GroupShard that also exposes CommitEpochNoSync. The
// deferral is safe because a shard's commit record rides the same physical
// log as the WAL's committing checkpoint it depends on, after it, so prefix
// durability orders them for free.
type logHeapShard struct{ *GroupShard }

// CommitEpochNoSync implements EpochCommitBatcher.
func (s logHeapShard) CommitEpochNoSync(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.heap.CommitEpochNoSync(epoch)
}

// CommitStream implements EpochCommitBatcher: every shard of a group appends
// into the group's one physical log.
func (s logHeapShard) CommitStream() any { return s.log }

// OpenDiskGroupOpts opens (or creates) a group of shards under
// dir/shard-<i>, each provisioned with numBuckets buckets, sharing one
// physical log the group owns and closes.
// numBuckets fixes the tree size at creation; reopening with a different
// non-zero count fails loudly (0 adopts the stored size). obladi-storage
// opens its data dir with opts.LogHeap set.
func OpenDiskGroupOpts(dir string, shards, numBuckets int, opts DiskOptions) (*DiskGroup, error) {
	return openDiskGroupOpts(osFS{}, dir, shards, numBuckets, diskOpts{DiskOptions: opts, autoMaintain: true})
}

// openDiskGroupOpts is the vfs-injectable group constructor (the crash sweep
// opens groups on its fault-modeling filesystem through it). The open runs
// in dependency order: shard-000's meta gives the tree size; the heaps load
// their index checkpoints, whose retention floors are the gate the log opens
// under; the log's demux scan then replays each heap above its checkpoint.
func openDiskGroupOpts(fsys vfs, dir string, shards, numBuckets int, opts diskOpts) (*DiskGroup, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("storage: disk group needs a positive shard count (got %d)", shards)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating group dir: %w", err)
	}
	if err := checkGroupLayout(fsys, dir); err != nil {
		return nil, err
	}
	g := &DiskGroup{batchCommits: opts.LogHeap}
	fail := func(what string, err error) (*DiskGroup, error) {
		g.Close()
		return nil, fmt.Errorf("storage: opening disk group %s: %w", what, err)
	}
	shardDir := func(i int) string { return joinPath(dir, fmt.Sprintf("shard-%03d", i)) }
	for i := 0; i < shards; i++ {
		if err := prepareShardDir(fsys, shardDir(i)); err != nil {
			return fail(fmt.Sprintf("shard %d", i), err)
		}
	}
	nb, trunc, err := openMeta(fsys, shardDir(0), numBuckets)
	if err != nil {
		return fail("meta", err)
	}
	for i := 0; i < shards; i++ {
		lh, err := newLogHeap(fsys, shardDir(i), uint32(shards+i), nb)
		if err != nil {
			return fail(fmt.Sprintf("shard %d logheap", i), err)
		}
		g.heaps = append(g.heaps, lh)
	}
	if g.log, err = openDiskLog(fsys, shardDir(0), nb, trunc, opts, g.retainFloor); err != nil {
		return fail("log", err)
	}
	if err := g.log.openStreams(shards, g.heaps); err != nil {
		return fail("log streams", err)
	}
	var kick func()
	if opts.autoMaintain {
		g.maintainKick = make(chan struct{}, 1)
		g.maintainStop = make(chan struct{})
		kick = func() {
			select {
			case g.maintainKick <- struct{}{}:
			default:
			}
		}
	}
	for i, lh := range g.heaps {
		lh.attach(g.log, kick)
		g.views = append(g.views, &GroupShard{log: g.log, stream: uint32(i), heap: lh})
	}
	if kick != nil {
		g.maintainWG.Add(1)
		go g.maintainLoop()
	}
	return g, nil
}

// retainFloor is the group's retention gate: the first physical sequence
// any heap still needs on disk.
func (g *DiskGroup) retainFloor() uint64 {
	floor := ^uint64(0)
	for _, lh := range g.heaps {
		floor = min(floor, lh.retainFloor.Load())
	}
	return floor
}

// maintainLoop runs maintenance off the commit path: it copies live bucket
// versions out of the segments WAL truncation has left behind, checkpoints
// the heaps, and drops what that frees.
func (g *DiskGroup) maintainLoop() {
	defer g.maintainWG.Done()
	for {
		select {
		case <-g.maintainStop:
			return
		case <-g.maintainKick:
		}
		g.maintainOnce()
	}
}

// maintainOnce is one maintenance pass. Every sealed segment wholly below
// the WAL truncation floor holds nothing but dead WAL records and bucket
// versions; each heap re-appends its live ones at the log head. One index
// checkpoint per heap then covers the whole pass — it makes the copies
// durable, stops pointing into the old segments and raises the retention
// gate — and is also the periodic checkpoint that bounds open-time replay,
// so a pass costs the checkpoints it would have written anyway plus the
// copies. Only then can the segments go.
func (g *DiskGroup) maintainOnce() {
	moved := make([]int, len(g.heaps))
	for _, base := range g.log.gcCandidates() {
		for i, lh := range g.heaps {
			n, err := lh.EvacuateSegment(base)
			if err != nil {
				return // wedged or closing; the next kick retries
			}
			moved[i] += n
		}
	}
	for i, lh := range g.heaps {
		lh.mu.RLock()
		due := lh.dirty >= maintainEvery
		lh.mu.RUnlock()
		if due || moved[i] > 0 {
			if err := lh.Checkpoint(); err != nil {
				return
			}
		}
	}
	g.log.dropDeadSegments()
}

// Backends returns the shards as Backend values (the shape core.NewSharded
// and the bench harness consume), each with its log stream routed through
// the group's one physical log. A group opened with DiskOptions.LogHeap
// wraps them in the type that additionally satisfies EpochCommitBatcher.
func (g *DiskGroup) Backends() []Backend {
	out := make([]Backend, len(g.views))
	for i, v := range g.views {
		out[i] = v
		if g.batchCommits {
			out[i] = logHeapShard{v}
		}
	}
	return out
}

// Group returns the log's durable frontier (its stats live there).
func (g *DiskGroup) Group() *CommitGroup { return &g.log.group }

// Close closes the log. The heaps checkpoint first (best effort — replay
// would rebuild the same state, a checkpoint just makes the next open
// cheap), while the log is still open.
func (g *DiskGroup) Close() error {
	if g.maintainStop != nil {
		close(g.maintainStop)
		g.maintainWG.Wait()
		g.maintainStop = nil
	}
	if g.views != nil {
		for _, lh := range g.heaps {
			_ = lh.Checkpoint()
		}
	}
	if g.log == nil {
		return nil
	}
	return g.log.Close()
}
