package storage

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the group-commit scheduler: a per-data-dir fsync coalescer
// shared by every DiskBackend shard rooted under one directory. Shards append
// their commit records (and log/KV records) unsynced and then stand on a
// barrier (BarrierTicket); the scheduler runs one syncer per file with
// pending barriers, so every barrier that lands on a file while its fsync is
// in flight rides the next fsync of that file together — and fsyncs of
// *different* files never wait on one another. The ack contract is unchanged: nothing is acknowledged
// before its covering barrier lands; what moves is how many acks one fsync
// covers.

// GroupStats counts a CommitGroup's work. Barriers/Syncs is the
// amortization factor the scheduler achieved.
type GroupStats struct {
	Barriers uint64        // barrier requests served
	Syncs    uint64        // fsyncs issued
	Waves    uint64        // fsync rounds (== Syncs: one round syncs one file once)
	SyncTime time.Duration // cumulative time spent inside fsync calls
}

type groupReq struct {
	ticket uint64
	done   chan error
}

// fileSync is the per-file barrier queue; its syncer goroutine lives exactly
// as long as the file has pending barriers. The entry itself persists until
// Forget — the ticket counters must outlive idle gaps, or a ticket stamped
// before a retire could never be matched again.
type fileSync struct {
	pending []*groupReq
	written uint64 // write tickets issued for this file (see Wrote)
	acked   uint64 // highest ticket covered by a *successful* fsync
	syncing bool   // a runFile goroutine is serving this file
}

// CommitGroup is the shared fsync scheduler. Each file with pending barriers
// gets a syncer goroutine, which fsyncs as soon as it runs: barriers arriving
// while an fsync is in flight batch into the file's next one, so concurrent
// committers share waves without a lone committer waiting for company.
// Close drains every accepted barrier before returning.
type CommitGroup struct {
	mu     sync.Mutex
	files  map[vfile]*fileSync
	closed bool
	stats  GroupStats
	wg     sync.WaitGroup
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

// fileLocked returns (creating if needed) f's queue. A queue created here
// with no pending barriers has no syncer yet; BarrierTicket spawns one on
// demand.
func (g *CommitGroup) fileLocked(f vfile) *fileSync {
	fs := g.files[f]
	if fs == nil {
		fs = &fileSync{}
		g.files[f] = fs
	}
	return fs
}

// BarrierTicket blocks until an fsync of f issued after ticket (stamped by
// an earlier Wrote) returns, and reports that fsync's error: the durability
// point every group-routed ack stands on. Callers that stamp right after
// their write ride fsyncs already in flight — and return immediately when a
// successful fsync already covered the ticket. Each ticket backs at most one
// BarrierTicket call.
func (g *CommitGroup) BarrierTicket(f vfile, ticket uint64) error {
	req := &groupReq{ticket: ticket, done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("storage: commit group: %w", ErrClosed)
	}
	fs := g.fileLocked(f)
	if ticket <= fs.acked {
		g.stats.Barriers++
		g.mu.Unlock()
		return nil
	}
	fs.pending = append(fs.pending, req)
	if !fs.syncing {
		fs.syncing = true
		g.wg.Add(1)
		go g.runFile(f, fs)
	}
	g.mu.Unlock()
	return <-req.done
}

// Forget drops f's queue entry. Call only once f is closed and nothing can
// stamp or barrier it again (segment dropped, compacted file swapped out);
// without it a long-lived group accumulates an entry per retired file.
func (g *CommitGroup) Forget(f vfile) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fs := g.files[f]; fs != nil && !fs.syncing && len(fs.pending) == 0 {
		delete(g.files, f)
	}
}

// Stats snapshots the scheduler's counters.
func (g *CommitGroup) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Close rejects new barriers, waits for every barrier already accepted to be
// served, and stops the syncers. Backends using the group must be closed
// first (or be prepared to see ErrClosed from in-flight barriers).
func (g *CommitGroup) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
	return nil
}

// runFile serves one file's barriers: snapshot the write-ticket frontier,
// fsync once, answer every pending barrier whose ticket that fsync covers —
// including barriers that arrived while it was in flight, as long as their
// bytes were written before it was issued — then repeat until nothing is
// pending and retire. Clearing syncing under the same lock as the emptiness
// check keeps the invariant exact: a barrier either queues behind this
// goroutine or spawns the next one.
func (g *CommitGroup) runFile(f vfile, fs *fileSync) {
	defer g.wg.Done()
	for {
		g.mu.Lock()
		if len(fs.pending) == 0 {
			fs.syncing = false
			g.mu.Unlock()
			return
		}
		syncTicket := fs.written
		g.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		elapsed := time.Since(start)
		g.mu.Lock()
		var ack []*groupReq
		keep := fs.pending[:0]
		for _, r := range fs.pending {
			// Every request pending when the frontier was snapshotted has
			// ticket <= syncTicket (tickets are stamped before queueing,
			// under the same lock); only mid-flight arrivals can exceed it.
			if r.ticket <= syncTicket {
				ack = append(ack, r)
			} else {
				keep = append(keep, r)
			}
		}
		fs.pending = keep
		if err == nil && syncTicket > fs.acked {
			fs.acked = syncTicket
		}
		g.stats.Barriers += uint64(len(ack))
		g.stats.Syncs++
		g.stats.Waves++
		g.stats.SyncTime += elapsed
		g.mu.Unlock()
		for _, r := range ack {
			r.done <- err
		}
	}
}

// ---- DiskGroup: N shards sharing one directory and one scheduler ----

// DiskGroup is the deployment unit for group commit: n DiskBackend shards
// rooted in subdirectories of one data dir, all routing their durability
// barriers through one CommitGroup so commits arriving together across
// shards share a single fsync wave — and all multiplexing their recovery-log
// streams into shard 0's physical log (see SharedLog), so cross-shard log
// barriers land on one file and actually coalesce instead of merely running
// in parallel.
type DiskGroup struct {
	group  *CommitGroup
	shards []*DiskBackend
	shared *SharedLog
	views  []*GroupShard
	heaps  []*LogHeap // logheap mode: one per shard, else nil

	// Background logheap maintenance (checkpoint + segment GC); nil
	// channels when off (crash-harness opens drive Checkpoint /
	// EvacuateSegment explicitly for determinism).
	maintainKick chan struct{}
	maintainStop chan struct{}
	maintainWG   sync.WaitGroup
}

// GroupShard is one shard of a DiskGroup as the proxy consumes it: the
// shard's own DiskBackend for buckets and KV, with the recovery-log face
// rerouted onto the group's shared physical log — and, in logheap mode,
// the bucket face rerouted onto the shard's LogHeap.
type GroupShard struct {
	*DiskBackend
	logView *LogView
	heap    *LogHeap // logheap mode only
	// closed marks this shard logically closed in logheap mode. The
	// underlying files belong to the physical log the OTHER shards still
	// share, so Close cannot close them; the flag keeps the per-shard
	// ErrClosed contract (every op on a closed shard fails, the siblings
	// keep working) that DiskBackend.Close provides in per-shard-file mode.
	closed atomic.Bool
}

// guard is the logheap-mode closed check; per-shard-file mode relies on the
// embedded backend's own state.
func (s *GroupShard) guard() error {
	if s.heap != nil && s.closed.Load() {
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
// SyncLog's lone fsync covers the whole round.
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

// Bucket ops route to the LogHeap in logheap mode.

func (s *GroupShard) NumBuckets() (int, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	if s.heap != nil {
		return s.heap.NumBuckets()
	}
	return s.DiskBackend.NumBuckets()
}
func (s *GroupShard) ReadSlot(bucket, slot int) ([]byte, error) { return readSlot(s, bucket, slot) }
func (s *GroupShard) ReadSlots(refs []SlotRef) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	if s.heap != nil {
		return s.heap.ReadSlots(refs)
	}
	return s.DiskBackend.ReadSlots(refs)
}
func (s *GroupShard) ReadBucket(bucket int) ([][]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	if s.heap != nil {
		return s.heap.ReadBucket(bucket)
	}
	return s.DiskBackend.ReadBucket(bucket)
}
func (s *GroupShard) encodeSlots(dst []byte, refs []SlotRef) ([]byte, error) {
	if err := s.guard(); err != nil {
		return dst, err
	}
	if s.heap != nil {
		return s.heap.encodeSlots(dst, refs)
	}
	return encodeSlotsFrom(s.DiskBackend, dst, refs)
}
func (s *GroupShard) encodeBucket(dst []byte, bucket int) ([]byte, error) {
	if err := s.guard(); err != nil {
		return dst, err
	}
	if s.heap != nil {
		return s.heap.encodeBucket(dst, bucket)
	}
	return encodeBucketFrom(s.DiskBackend, dst, bucket)
}
func (s *GroupShard) WriteBucket(bucket int, epoch uint64, slots [][]byte) error {
	return writeBucket(s, bucket, epoch, slots)
}
func (s *GroupShard) WriteBuckets(writes []BucketWrite) error {
	if err := s.guard(); err != nil {
		return err
	}
	if s.heap != nil {
		return s.heap.WriteBuckets(writes)
	}
	return s.DiskBackend.WriteBuckets(writes)
}
func (s *GroupShard) CommitEpoch(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	if s.heap != nil {
		return s.heap.CommitEpoch(epoch)
	}
	return s.DiskBackend.CommitEpoch(epoch)
}
func (s *GroupShard) RollbackTo(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	if s.heap != nil {
		return s.heap.RollbackTo(epoch)
	}
	return s.DiskBackend.RollbackTo(epoch)
}

// CommittedEpoch / VersionCount mirror the DiskBackend test helpers.
func (s *GroupShard) CommittedEpoch() uint64 {
	if s.heap != nil {
		return s.heap.CommittedEpoch()
	}
	return s.DiskBackend.CommittedEpoch()
}
func (s *GroupShard) VersionCount(bucket int) int {
	if s.heap != nil {
		return s.heap.VersionCount(bucket)
	}
	return s.DiskBackend.VersionCount(bucket)
}

// KV ops stay on the shard's own journal, but honor the logical close.
func (s *GroupShard) Get(key string) ([]byte, bool, error) {
	if err := s.guard(); err != nil {
		return nil, false, err
	}
	return s.DiskBackend.Get(key)
}
func (s *GroupShard) Put(key string, value []byte) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.DiskBackend.Put(key, value)
}
func (s *GroupShard) Delete(key string) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.DiskBackend.Delete(key)
}

// Close closes the shard. In logheap mode the shard's bucket data and log
// stream live inside files the sibling shards still share, so only the
// logical flag flips; the physical files close with the group.
func (s *GroupShard) Close() error {
	if s.heap != nil {
		s.closed.Store(true)
		return nil
	}
	return s.DiskBackend.Close()
}

// logHeapShard is the Backend face of a logheap-mode shard. It is a
// distinct type so that only logheap shards expose CommitEpochNoSync: a
// per-shard-file GroupShard must NOT satisfy EpochCommitBatcher — deferring
// its commit barrier would let a bucket heap become durably committed ahead
// of the WAL's committing checkpoint it depends on, exactly the ordering
// inversion the unified log exists to make impossible (commit records ride
// the same stream, so prefix durability orders them for free).
type logHeapShard struct{ *GroupShard }

// CommitEpochNoSync implements EpochCommitBatcher.
func (s logHeapShard) CommitEpochNoSync(epoch uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	return s.heap.CommitEpochNoSync(epoch)
}

// CommitStream implements EpochCommitBatcher: every shard of a logheap group
// appends into the owner backend's one physical log.
func (s logHeapShard) CommitStream() any { return s.heap.owner }

// OpenDiskGroupOpts opens (or creates) shards backends under dir/shard-<i>,
// each provisioned with numBuckets buckets, sharing one fsync scheduler the
// group owns and closes. numBuckets fixes the tree size at creation;
// reopening with a different non-zero count fails loudly (0 adopts the
// stored size). obladi-storage opens its data dir with opts.LogHeap set.
func OpenDiskGroupOpts(dir string, shards, numBuckets int, opts DiskOptions) (*DiskGroup, error) {
	return openDiskGroupOpts(osFS{}, dir, shards, numBuckets, diskOpts{
		segMaxBytes: opts.SegMaxBytes,
		autoCompact: true,
		logHeap:     opts.LogHeap,
	})
}

// logHeapMarker is the group-dir marker distinguishing logheap data dirs
// from per-shard-file ones. Opening a dir in the wrong mode must fail
// loudly — a logheap dir's bucket data is invisible to the per-shard-file
// layout (and vice versa), so proceeding would silently serve an empty
// store over live data.
const logHeapMarker = "logheap"

// checkGroupMode enforces the marker, creating it for a fresh logheap dir. A
// dir holding a lone DiskBackend's files at its top level is no group at
// all: opening it would create shard-000 beside them and serve an empty tree
// over live data, so it is refused in either mode.
func checkGroupMode(fsys vfs, dir string, logHeap bool) error {
	names, err := fsys.List(dir)
	if err != nil {
		return fmt.Errorf("storage: listing group dir: %w", err)
	}
	hasMarker, hasShard := false, false
	for _, n := range names {
		switch {
		case n == logHeapMarker:
			hasMarker = true
		case strings.HasPrefix(n, "shard-"):
			hasShard = true
		case n == metaFileName, n == heapFileName, n == kvFileName,
			strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix):
			return fmt.Errorf("storage: data dir %s holds a single-directory disk store (%s at its top level); refusing to open it as a group", dir, n)
		}
	}
	switch {
	case logHeap && hasMarker, !logHeap && !hasMarker:
		return nil
	case logHeap && hasShard:
		return fmt.Errorf("storage: data dir %s holds a per-shard-file group; refusing to open it in logheap mode", dir)
	case !logHeap:
		return fmt.Errorf("storage: data dir %s holds a logheap group; open it with DiskOptions.LogHeap", dir)
	}
	f, err := fsys.OpenFile(joinPath(dir, logHeapMarker), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating logheap marker: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// openDiskGroupOpts is the vfs-injectable group constructor (the crash sweep
// opens groups on its fault-modeling filesystem through it).
func openDiskGroupOpts(fsys vfs, dir string, shards, numBuckets int, opts diskOpts) (*DiskGroup, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("storage: disk group needs a positive shard count (got %d)", shards)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating group dir: %w", err)
	}
	if err := checkGroupMode(fsys, dir, opts.logHeap); err != nil {
		return nil, err
	}
	if opts.group == nil {
		opts.group = NewCommitGroup()
	}
	shardOpts := opts
	if opts.logHeap {
		// Logheap shards keep no buckets.heap (versions ride the shared
		// log), and the owner's open-time segment collection waits until the
		// retention gate knows which old segments still hold live versions.
		shardOpts.noHeap = true
		shardOpts.keepSegs = true
	}
	g := &DiskGroup{group: opts.group}
	shardDir := func(i int) string { return joinPath(dir, fmt.Sprintf("shard-%03d", i)) }
	for i := 0; i < shards; i++ {
		b, err := openDiskBackendOpts(fsys, shardDir(i), numBuckets, shardOpts)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("storage: opening disk group shard %d: %w", i, err)
		}
		g.shards = append(g.shards, b)
	}
	owner := g.shards[0]
	nb := g.shards[0].numBuckets // openMeta resolved 0 to the stored count
	var shared *SharedLog
	if opts.logHeap {
		for i := 0; i < shards; i++ {
			lh, err := newLogHeap(owner, fsys, shardDir(i), i, nb)
			if err != nil {
				g.Close()
				return nil, fmt.Errorf("storage: opening disk group shard %d logheap: %w", i, err)
			}
			g.heaps = append(g.heaps, lh)
		}
		var err error
		shared, err = newSharedLogOpts(owner, shards, shards, sharedLogReplay{
			heapFloor: func(i int) uint64 { return g.heaps[i].ckptW },
			onHeap: func(i int, seq, segBase uint64, off int64, body []byte) error {
				return g.heaps[i].replayRecord(seq, segBase, off, body)
			},
		})
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("storage: opening disk group shared log: %w", err)
		}
		for _, lh := range g.heaps {
			lh.finishOpen()
		}
		heaps := g.heaps
		owner.setSegRetain(func() uint64 {
			floor := ^uint64(0)
			for _, lh := range heaps {
				if f := lh.retainFloor.Load(); f < floor {
					floor = f
				}
			}
			return floor
		})
		// The open-time dead-segment pass the shards deferred: with the gate
		// installed, anything below both the truncation point and every
		// heap's retention floor can finally go.
		owner.dropDeadSegments()
	} else {
		var err error
		shared, err = NewSharedLog(owner, shards)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("storage: opening disk group shared log: %w", err)
		}
	}
	g.shared = shared
	for i, b := range g.shards {
		v := &GroupShard{DiskBackend: b, logView: shared.View(i)}
		if opts.logHeap {
			v.heap = g.heaps[i]
		}
		g.views = append(g.views, v)
	}
	if opts.logHeap && opts.autoCompact {
		g.maintainKick = make(chan struct{}, 1)
		g.maintainStop = make(chan struct{})
		kick := func() {
			select {
			case g.maintainKick <- struct{}{}:
			default:
			}
		}
		for _, lh := range g.heaps {
			lh.attach(shared, kick)
		}
		g.maintainWG.Add(1)
		go g.maintainLoop()
	} else if opts.logHeap {
		for _, lh := range g.heaps {
			lh.attach(shared, nil)
		}
	}
	return g, nil
}

// maintainLoop runs logheap maintenance off the commit path: it copies live
// bucket versions out of the segments WAL truncation has left behind,
// checkpoints the heaps, and drops what that frees.
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
	owner := g.shards[0]
	moved := make([]int, len(g.heaps))
	for _, base := range owner.gcCandidates() {
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
	owner.dropDeadSegments()
}

// Shards returns the group's backends in shard order. Log methods on these
// raw backends bypass the shared log; use Backends for the proxy-facing
// shape.
func (g *DiskGroup) Shards() []*DiskBackend { return g.shards }

// Backends returns the shards as Backend values (the shape core.NewSharded
// and the bench harness consume), each with its log stream routed through
// the group's shared physical log. Logheap shards come wrapped in the type
// that additionally satisfies EpochCommitBatcher.
func (g *DiskGroup) Backends() []Backend {
	out := make([]Backend, len(g.views))
	for i, v := range g.views {
		if v.heap != nil {
			out[i] = logHeapShard{v}
		} else {
			out[i] = v
		}
	}
	return out
}

// Group returns the shared scheduler (stats live there).
func (g *DiskGroup) Group() *CommitGroup { return g.group }

// Close closes every shard, then the scheduler. Logheap heaps checkpoint
// first (best effort — replay would rebuild the same state, a checkpoint
// just makes the next open cheap), while the owner's files are still open.
func (g *DiskGroup) Close() error {
	if g.maintainStop != nil {
		close(g.maintainStop)
		g.maintainWG.Wait()
		g.maintainStop = nil
	}
	for _, lh := range g.heaps {
		_ = lh.Checkpoint()
	}
	var first error
	for _, b := range g.shards {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := g.group.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
