package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the group-commit scheduler: a per-data-dir fsync coalescer
// shared by every segment of a disk group's physical log. Writers append
// their records unsynced and then stand on a barrier (BarrierTicket). The
// barriers on one file form fsync waves: a barrier with no fsync of its file
// in flight issues one itself, and every barrier the in-flight fsync covers
// waits for it and shares its outcome — fsyncs of *different* files never
// wait on one another. The ack contract is unchanged: nothing is
// acknowledged before its covering barrier lands; what moves is how many
// acks one fsync covers.

// GroupStats counts a CommitGroup's work. Barriers/Syncs is the
// amortization factor the scheduler achieved.
type GroupStats struct {
	Barriers uint64        // barrier requests served
	Syncs    uint64        // fsyncs issued
	Waves    uint64        // fsync rounds (== Syncs: one round syncs one file once)
	SyncTime time.Duration // cumulative time spent inside fsync calls
}

// fileSync is one file's barrier state. The entry persists until Forget —
// the ticket counters must outlive idle gaps, or a ticket stamped before a
// retire could never be matched again.
type fileSync struct {
	written uint64 // write tickets issued for this file (see Wrote)
	acked   uint64 // highest ticket covered by a *successful* fsync
	flying  uint64 // highest ticket the in-flight fsync covers
	syncing bool   // a barrier is leading an fsync of this file
	waves   uint64 // fsyncs of this file that have returned
	// err is the first failed fsync's error. It sticks: after a failed
	// fsync the kernel may have dropped the dirty pages, so a later fsync
	// that succeeds proves nothing about the bytes the failed one covered.
	err    error
	landed sync.Cond // broadcast (L = CommitGroup.mu) when an fsync returns
}

// CommitGroup is the shared fsync scheduler. It has no goroutine of its own:
// a barrier's caller leads the fsync its file needs, so a lone committer
// never waits for company, and barriers arriving while an fsync is in flight
// batch into the file's next one. Close drains every accepted barrier before
// returning.
type CommitGroup struct {
	mu     sync.Mutex
	files  map[vfile]*fileSync
	closed bool
	stats  GroupStats
	wg     sync.WaitGroup // accepted barriers not yet returned
}

// NewCommitGroup starts a scheduler.
func NewCommitGroup() *CommitGroup {
	return &CommitGroup{files: make(map[vfile]*fileSync)}
}

// Wrote records that the caller just finished writing bytes to f and returns
// a ticket for them. A later BarrierTicket with that ticket is satisfied by
// any fsync of f *issued* after Wrote returned — including one already in
// flight when the barrier arrives, which is the classic group-commit ride:
// the flush was issued after the bytes landed, so it covers them.
func (g *CommitGroup) Wrote(f vfile) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	fs := g.fileLocked(f)
	fs.written++
	return fs.written
}

// fileLocked returns (creating if needed) f's entry.
func (g *CommitGroup) fileLocked(f vfile) *fileSync {
	fs := g.files[f]
	if fs == nil {
		fs = &fileSync{}
		fs.landed.L = &g.mu
		g.files[f] = fs
	}
	return fs
}

// BarrierTicket blocks until an fsync of f issued after ticket (stamped by
// an earlier Wrote) returns, and reports that fsync's error: the durability
// point every group-routed ack stands on. It returns at once when a
// successful fsync already covered the ticket. Otherwise, if an fsync of f
// in flight covers it, the barrier waits for that fsync and returns its
// error; if none is in flight, the barrier issues the fsync itself, on its
// own goroutine; and if the one in flight started too early to cover it, the
// barrier waits for it to land and then leads — or rides — the next. Once an
// fsync of f has failed, every barrier on f not already covered fails with
// its error. Each ticket backs at most one BarrierTicket call.
func (g *CommitGroup) BarrierTicket(f vfile, ticket uint64) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("storage: commit group: %w", ErrClosed)
	}
	g.wg.Add(1)
	defer g.wg.Done()
	g.stats.Barriers++
	fs := g.fileLocked(f)
	for {
		switch {
		case ticket <= fs.acked:
			g.mu.Unlock()
			return nil
		case fs.err != nil:
			g.mu.Unlock()
			return fs.err
		case !fs.syncing:
			return g.leadLocked(f, fs)
		}
		for w := fs.waves; fs.waves == w; {
			fs.landed.Wait()
		}
	}
}

// leadLocked issues one fsync of f covering every ticket stamped so far,
// publishes its outcome to the barriers waiting on it, and returns its
// error. Called with g.mu held; returns with it released.
func (g *CommitGroup) leadLocked(f vfile, fs *fileSync) error {
	fs.syncing, fs.flying = true, fs.written
	g.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	g.mu.Lock()
	fs.syncing = false
	fs.waves++
	if err != nil {
		if fs.err == nil {
			fs.err = err
		}
	} else if fs.flying > fs.acked {
		fs.acked = fs.flying
	}
	g.stats.Syncs++
	g.stats.Waves++
	g.stats.SyncTime += elapsed
	fs.landed.Broadcast()
	g.mu.Unlock()
	return err
}

// Forget drops f's entry. Call only once f is closed and nothing can stamp
// or barrier it again (a dropped segment); without it a long-lived group
// accumulates an entry per retired file.
func (g *CommitGroup) Forget(f vfile) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fs := g.files[f]; fs != nil && !fs.syncing {
		delete(g.files, f)
	}
}

// Stats snapshots the scheduler's counters.
func (g *CommitGroup) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Close rejects new barriers and waits for every barrier already accepted
// to return. Backends using the group must be closed first (or be prepared
// to see ErrClosed from their barriers).
func (g *CommitGroup) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
	return nil
}

// ---- DiskGroup: N shards sharing one directory and one scheduler ----

// DiskGroup is the deployment unit for group commit: n shards rooted in
// subdirectories of one data dir. The group owns one physical log (diskLog,
// in shard-000) that every shard's recovery-log stream and bucket versions
// ride (see SharedLog and LogHeap), so cross-shard barriers land on one file
// and actually coalesce instead of merely running in parallel; and one
// CommitGroup every durability barrier goes through. shard-<i> holds only
// shard i's index checkpoint.
type DiskGroup struct {
	group  *CommitGroup
	log    *diskLog
	shared *SharedLog // set once the open has replayed the log
	views  []*GroupShard
	heaps  []*LogHeap // one per shard
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
	log     *diskLog
	logView *LogView
	heap    *LogHeap
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
	return s.logView.Append(record)
}
func (s *GroupShard) Scan(from uint64) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.logView.Scan(from)
}
func (s *GroupShard) Truncate(before uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.logView.Truncate(before)
}
func (s *GroupShard) LastSeq() (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	return s.logView.LastSeq()
}

// The deferred-barrier capability routes through the shared log too — this
// is where it earns its keep: shards append back to back and the first
// SyncLog's lone fsync covers the whole round; the other shards' SyncLogs
// ride it.
func (s *GroupShard) AppendNoSync(record []byte) (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	return s.logView.AppendNoSync(record)
}
func (s *GroupShard) SyncLog() error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.logView.SyncLog()
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
// physical log and one fsync scheduler the group owns and closes.
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
	if opts.group == nil {
		opts.group = NewCommitGroup()
	}
	g := &DiskGroup{group: opts.group, batchCommits: opts.LogHeap}
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
		lh, err := newLogHeap(fsys, shardDir(i), i, nb)
		if err != nil {
			return fail(fmt.Sprintf("shard %d logheap", i), err)
		}
		g.heaps = append(g.heaps, lh)
	}
	if g.log, err = openDiskLog(fsys, shardDir(0), nb, trunc, opts, g.retainFloor); err != nil {
		return fail("log", err)
	}
	shared, err := newSharedLog(g.log, shards, g.heaps)
	if err != nil {
		return fail("shared log", err)
	}
	for i, lh := range g.heaps {
		g.views = append(g.views, &GroupShard{log: g.log, logView: shared.View(i), heap: lh})
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
	for _, lh := range g.heaps {
		lh.attach(shared, kick)
	}
	g.shared = shared
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
// the group's shared physical log. A group opened with DiskOptions.LogHeap
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

// Group returns the shared scheduler (stats live there).
func (g *DiskGroup) Group() *CommitGroup { return g.group }

// Close closes the log, then the scheduler. The heaps checkpoint first (best
// effort — replay would rebuild the same state, a checkpoint just makes the
// next open cheap), while the log is still open.
func (g *DiskGroup) Close() error {
	if g.maintainStop != nil {
		close(g.maintainStop)
		g.maintainWG.Wait()
		g.maintainStop = nil
	}
	if g.shared != nil {
		for _, lh := range g.heaps {
			_ = lh.Checkpoint()
		}
	}
	var first error
	if g.log != nil {
		first = g.log.Close()
	}
	if err := g.group.Close(); first == nil {
		first = err
	}
	return first
}
