package storage

import (
	"fmt"
	"sync"
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
	log    *diskLog
	shards []*LogHeap
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

// logHeapShard is the Backend face of a shard of a group opened with
// DiskOptions.LogHeap: a LogHeap that also exposes CommitEpochNoSync. The
// deferral is safe because a shard's commit record rides the same physical
// log as the WAL's committing checkpoint it depends on, after it, so prefix
// durability orders them for free.
type logHeapShard struct{ *LogHeap }

// CommitEpochNoSync implements EpochCommitBatcher.
func (s logHeapShard) CommitEpochNoSync(epoch uint64) error { return s.commitEpochNoSync(epoch) }

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
		lh, err := newLogHeap(fsys, shardDir(i), uint32(i), uint32(shards+i), nb)
		if err != nil {
			return fail(fmt.Sprintf("shard %d logheap", i), err)
		}
		g.shards = append(g.shards, lh)
	}
	if g.log, err = openDiskLog(fsys, shardDir(0), nb, trunc, opts, g.retainFloor); err != nil {
		return fail("log", err)
	}
	if err := g.log.openStreams(shards, g.shards); err != nil {
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
	for _, lh := range g.shards {
		lh.attach(g.log, kick)
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
	for _, lh := range g.shards {
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
	moved := make([]int, len(g.shards))
	for _, base := range g.log.gcCandidates() {
		for i, lh := range g.shards {
			n, err := lh.EvacuateSegment(base)
			if err != nil {
				return // wedged or closing; the next kick retries
			}
			moved[i] += n
		}
	}
	for i, lh := range g.shards {
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
	out := make([]Backend, len(g.shards))
	for i, lh := range g.shards {
		out[i] = lh
		if g.batchCommits {
			out[i] = logHeapShard{lh}
		}
	}
	return out
}

// Group returns the log's durable frontier (its stats live there).
func (g *DiskGroup) Group() *CommitGroup { return &g.log.group }

// Close closes the log. The heaps checkpoint first (best effort — replay
// would rebuild the same state, a checkpoint just makes the next open
// cheap), while the log is still open: every heap the open attached to it,
// closed shards' included.
func (g *DiskGroup) Close() error {
	if g.maintainStop != nil {
		close(g.maintainStop)
		g.maintainWG.Wait()
		g.maintainStop = nil
	}
	for _, lh := range g.shards {
		if lh.log != nil {
			_ = lh.Checkpoint()
		}
	}
	if g.log == nil {
		return nil
	}
	return g.log.Close()
}
