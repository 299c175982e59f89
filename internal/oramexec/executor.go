// Package oramexec is Obladi's parallel ORAM executor (§7 of the paper).
//
// The executor turns a batch of logical operations into one pipelined pass
// over storage: all client-side metadata is planned sequentially (cheap CPU),
// the resulting physical slot reads are coalesced into a single scatter-
// gather storage call per stage (one wire op and one round trip however many
// slots the stage reads), completions are applied in plan order (which
// realizes multilevel serializability: the outcome is identical to the
// sequential execution of the same batch), and all bucket writes produced by
// evictions and early reshuffles are buffered until the end of the epoch,
// deduplicated per bucket, and flushed as one vectored write-back. Reads
// that target a buffered bucket are served locally.
//
// Epoch buffers are double-buffered to support the proxy's pipelined epoch
// boundary: SealEpoch detaches the finished epoch's write-back set, which a
// background committer flushes via FlushSealed while the next epoch's
// batches already plan and execute. Until the sealed set is released (or
// superseded by the next seal), reads that target a sealed bucket keep being
// served locally — the sealed versions may not have reached storage yet.
//
// A bucket's buffer is the ORAM's, lent to the executor from the seal that
// fills it until nothing reads it any more, and never to the store, which
// copies what it keeps. The executor recycles a buffered version a later
// rewrite supersedes at once, a flushed epoch's buffers as soon as Flush's
// store call returns, and a sealed set's when it is released or superseded
// by the next seal — by then its flush has landed (the proxy seals only after
// the previous commit) and no batch reads it. The write-back set is a
// function of the public schedule, so the pool settles at about two epochs'
// buffers and a steady-state epoch allocates none.
//
// Above that sits the resident set: for every bucket of levels 0..L-3 the
// executor keeps a compact copy of the blocks of the bucket's newest version,
// and serves every read of that bucket from it — the block's bytes for the
// one read that carries a block, nothing for a filler, which completion never
// inspects. A read is therefore local when its bucket is resident, buffered
// or sealed; which reads that skips is a function of the bucket number and of
// the epoch's evictions, never of the workload. Because a resident bucket is
// never read slot by slot, storage gets only what can ever be read back: its
// Z real positions, in position order, and none of its S dummies. The set is
// recovered state, not a cache: an executor built over restored metadata
// calls LoadResident, one vectored read of those Z slots of every resident
// bucket, before it plans or replays anything. Write-through mode keeps no
// resident set and writes whole buckets.
package oramexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Config tunes the executor.
type Config struct {
	// WriteThrough disables delayed visibility: eviction writes go to
	// storage immediately and act as pipeline barriers. This is the
	// "Write Back" ablation of Figure 10d and is never used in production.
	// It keeps no resident set, reads and writes whole (Z+S slot) buckets, and
	// so cannot read a tree a resident-set executor has written to.
	WriteThrough bool
}

// Executor drives a ringoram client against shadow-paged storage.
// Planning and execution are not safe for concurrent use (the proxy
// serializes batch execution per shard), with two exceptions: FlushSealed
// may run from a background committer concurrently with the next epoch's
// planning/execution, and Stats may be read from any goroutine.
type Executor struct {
	oram  *ringoram.ORAM
	store storage.BucketStore
	cfg   Config

	epoch    uint64
	buffered map[int]bufferedBucket
	// sealed is the previous epoch's detached write-back set, retained so
	// its buckets stay locally servable while (and after) a background
	// committer flushes them. Written only by SealEpoch, which the proxy
	// serializes with planning; the map it points to is
	// immutable after seal, so FlushSealed reads it without locks.
	sealed *SealedEpoch
	// resident holds the upper levels' buckets, indexed by heap number (see
	// residentBuckets for the level rule); empty in write-through mode.
	// Touched only by planning and execution, never by a background flush.
	resident []residentBucket
	// freeFrames are resident-set frames no bucket holds at the moment. The
	// buckets share them because a bucket's occupancy swings between 0 and Z
	// while the levels' total barely moves: per-bucket buffers would each grow
	// to their own peak, about twice the memory.
	freeFrames [][]byte
	frameSize  int // 2-byte slot number + one physical slot

	// refsBuf and destsBuf are issueVector's scatter-gather scratch, reused
	// across batches. Planning and execution are serialized per executor, so
	// one set per executor is safe.
	refsBuf  []storage.SlotRef
	destsBuf []scatter

	// readPlan and writePlan are the one read and one write batch plan each
	// Plan*Batch call resets, tasks and results included; seen is the read
	// batch's duplicate check.
	readPlan, writePlan BatchPlan
	seen                map[string]bool

	shape logShape // fixed entry widths of this ORAM's batch records
	stats statCounters
}

// scatter routes one vectored slot read back to its task's data slot.
type scatter struct {
	t *task
	i int
}

// bufferedBucket is one buffered bucket rewrite, holding the ringoram write
// so its pooled arena can be recycled once nothing reads it: when a later
// rewrite of the same bucket supersedes it, or after its epoch's flush (see
// the package doc). The epoch buffers hold it by value — a rewrite of a
// bucket the epoch already rewrote reuses the map's slot — and a bucket an
// eviction has claimed but not yet completed is the zero value.
type bufferedBucket struct {
	w ringoram.BucketWrite
}

// filled reports whether the rewrite's completion has run.
func (b bufferedBucket) filled() bool { return b.w.Slots != nil }

// residentBucket is the executor's copy of one upper-level bucket: the blocks
// of its newest version, one frame each of a 2-byte physical slot number and
// the slot's bytes, copied out of the write's arena or the load's reply (never
// aliased: arenas are recycled, replies are the store's). A bucket of a fresh
// tree holds no blocks and has no frames.
type residentBucket struct {
	frames [][]byte
}

// residentBuckets is the level rule: the buckets of levels 0..L-3, which are
// the first 2^(L-2)-1 heap indices, stay resident. A bucket holds about the
// same number of blocks at every level, so each further level doubles the
// memory for the same 1/(L+1) of the physical reads.
func residentBuckets(g ringoram.Geometry) int {
	if g.Levels < 3 || g.SlotsPer > math.MaxUint16 {
		return 0
	}
	return 1<<(g.Levels-2) - 1
}

// SealedEpoch is a finished epoch's detached write-back set: every bucket
// the epoch rewrote, deduplicated. It is immutable once sealed.
type SealedEpoch struct {
	epoch   uint64
	buckets map[int]bufferedBucket
}

// Epoch returns the sealed epoch's number.
func (s *SealedEpoch) Epoch() uint64 { return s.epoch }

// Buckets reports how many distinct buckets the sealed set holds.
func (s *SealedEpoch) Buckets() int { return len(s.buckets) }

// Stats counts executor activity since creation.
type Stats struct {
	RemoteReads    int64 // slot reads issued to storage
	LocalReads     int64 // slot reads served from the epoch buffers or the resident set
	BucketWrites   int64 // bucket writes flushed to storage
	WritesBuffered int64 // bucket write intents produced by evictions
	Evictions      int64
	Reshuffles     int64
	// ReadCalls and WriteCalls count storage calls (wire ops on a remote
	// deployment): a stage is one call however many slots it carries. Their
	// ratio to RemoteReads/BucketWrites is the batching factor vectoring
	// buys.
	ReadCalls  int64
	WriteCalls int64
	// ResidentBytes is a gauge: the memory of the resident set's frames, in
	// use or free, at most Z frames for each resident bucket.
	ResidentBytes int64
}

// statCounters is the executor's internal, atomically updated counter set.
// Batch execution mutates counters from per-shard goroutines while the
// proxy snapshots Stats (and a background committer flushes sealed epochs)
// from others, so every counter is an atomic.
type statCounters struct {
	remoteReads    atomic.Int64
	localReads     atomic.Int64
	bucketWrites   atomic.Int64
	writesBuffered atomic.Int64
	evictions      atomic.Int64
	reshuffles     atomic.Int64
	readCalls      atomic.Int64
	writeCalls     atomic.Int64
	residentBytes  atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		RemoteReads:    c.remoteReads.Load(),
		LocalReads:     c.localReads.Load(),
		BucketWrites:   c.bucketWrites.Load(),
		WritesBuffered: c.writesBuffered.Load(),
		Evictions:      c.evictions.Load(),
		Reshuffles:     c.reshuffles.Load(),
		ReadCalls:      c.readCalls.Load(),
		WriteCalls:     c.writeCalls.Load(),
		ResidentBytes:  c.residentBytes.Load(),
	}
}

// task is one planned unit with its physical reads. Tasks belong to their
// plan and are reset, keeping their local/data backing arrays, for the plan's
// next batch.
type task struct {
	access *ringoram.AccessPlan
	evict  *ringoram.EvictPlan // eviction or reshuffle
	reads  []ringoram.SlotRead
	local  []bool // read i served from the buffer
	data   [][]byte
	opIdx  int // index into the batch's results (-1 for maintenance)
	// logKind is the durability-log entry this task stands for (0: none — a
	// read served from the stash issues no physical reads), and bumps the
	// number of write-bump entries logged ahead of it.
	logKind LogKind
	bumps   int
}

// reset clears a finished task for its plan's next batch. The backing arrays
// of local and data ride along for reuse.
func (t *task) reset() {
	clear(t.data) // drop slot references so kept tasks don't pin arenas
	t.access = nil
	t.evict = nil
	t.reads = nil
	t.local = t.local[:0]
	t.data = t.data[:0]
	t.opIdx = 0
	t.logKind, t.bumps = 0, 0
}

// ensureData sizes t.data for the task's reads, reusing pooled capacity.
func (t *task) ensureData() {
	n := len(t.reads)
	if cap(t.data) < n {
		t.data = make([][]byte, n)
		return
	}
	t.data = t.data[:n]
	clear(t.data)
}

// BatchPlan is a planned batch: metadata already mutated, I/O not yet done.
// An executor owns one read and one write plan and hands the same one out
// for every batch of its kind: a plan, and the results Execute returns from
// it, are valid until the next batch of that kind is planned.
type BatchPlan struct {
	// tasks[:len] are this batch's; tasks[len:cap] are reset tasks kept
	// from earlier batches for newTask to hand out again.
	tasks   []*task
	results []ReadResult
	shape   logShape
	// bumps counts write-bump log entries not yet attached to a task: the
	// next task planned takes them, and whatever remains trails the batch.
	bumps    int
	executed bool
}

// reset readies the plan for a batch of n results.
func (b *BatchPlan) reset(n int) *BatchPlan {
	b.tasks = b.tasks[:0]
	b.results = slices.Grow(b.results[:0], n)[:n]
	clear(b.results)
	b.bumps, b.executed = 0, false
	return b
}

// newTask returns a task of an earlier batch, reset, or a new one. A task is
// free for reuse once its batch ends: Execute returns only after the reads
// it issued have returned, whether it succeeds or fails.
func (b *BatchPlan) newTask() *task {
	if n := len(b.tasks); n < cap(b.tasks) {
		if t := b.tasks[:n+1][n]; t != nil {
			t.reset()
			return t
		}
	}
	return new(task)
}

// addTask appends t to the plan as a durability-log entry of the given kind
// (0 for none), after the write bumps planned since the previous task.
func (b *BatchPlan) addTask(t *task, kind LogKind) {
	t.logKind, t.bumps = kind, b.bumps
	b.bumps = 0
	b.tasks = append(b.tasks, t)
}

// Log returns the batch's durability-log entries, in order, as a view over
// the plan. The caller must persist it before calling Execute (write-ahead
// logging): execution recycles what the view reads.
func (b *BatchPlan) Log() BatchLog { return BatchLog{plan: b} }

// ReadOp is one slot of a read batch. An empty key is a padding dummy.
type ReadOp struct {
	Key string
}

// WriteOp is one slot of the epoch's write batch. An empty key is padding.
type WriteOp struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// ReadResult is the outcome of one ReadOp.
type ReadResult struct {
	Key   string
	Value []byte
	Found bool
}

// New creates an executor over an existing ORAM client and storage. Over a
// freshly initialized tree it is ready; over restored metadata the caller
// must call LoadResident before planning or replaying anything.
func New(oram *ringoram.ORAM, store storage.BucketStore, cfg Config) *Executor {
	e := &Executor{
		oram:      oram,
		store:     store,
		cfg:       cfg,
		buffered:  make(map[int]bufferedBucket),
		frameSize: 2 + oram.SlotSize(),
		shape:     newLogShape(oram.Params(), oram.Geometry()),
	}
	e.readPlan.shape, e.writePlan.shape = e.shape, e.shape
	if !cfg.WriteThrough {
		e.resident = make([]residentBucket, residentBuckets(oram.Geometry()))
		oram.SealRealOnly(len(e.resident))
	}
	return e
}

// ORAM returns the underlying client.
func (e *Executor) ORAM() *ringoram.ORAM { return e.oram }

// Stats returns a snapshot of the executor's counters. Safe to call from
// any goroutine, including concurrently with batch execution.
func (e *Executor) Stats() Stats { return e.stats.snapshot() }

// BeginEpoch sets the shadow-paging tag for subsequent bucket writes.
func (e *Executor) BeginEpoch(epoch uint64) {
	e.epoch = epoch
}

// Epoch returns the current epoch tag.
func (e *Executor) Epoch() uint64 { return e.epoch }

// BufferedBuckets reports how many distinct buckets are buffered.
func (e *Executor) BufferedBuckets() int { return len(e.buffered) }

// PlanReadBatch plans a full read batch: one logical access per op plus any
// early reshuffles and evict-paths that fall due. The ops must have distinct
// keys (the proxy deduplicates); padding entries have empty keys.
func (e *Executor) PlanReadBatch(ops []ReadOp) (*BatchPlan, error) {
	plan := e.readPlan.reset(len(ops))
	if e.seen == nil {
		e.seen = make(map[string]bool, len(ops))
	}
	defer clear(e.seen)
	for i, op := range ops {
		if op.Key != "" {
			if e.seen[op.Key] {
				return nil, fmt.Errorf("oramexec: duplicate key %q in batch (dedup is the caller's job)", op.Key)
			}
			e.seen[op.Key] = true
		}
		plan.results[i].Key = op.Key
		var ap *ringoram.AccessPlan
		var due []int
		var err error
		if op.Key == "" {
			ap, due, err = e.oram.PlanDummyRead()
		} else {
			ap, due, err = e.oram.PlanRead(op.Key)
		}
		if err != nil {
			return nil, err
		}
		e.appendAccess(plan, ap, i)
		if err := e.planMaintenance(plan, due); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// PlanWriteBatch applies the epoch's write batch logically (dummiless writes
// go straight to the stash) and plans the evictions it triggers. Padding
// entries (empty keys) bump the access counter so the eviction schedule
// stays workload independent.
func (e *Executor) PlanWriteBatch(ops []WriteOp) (*BatchPlan, error) {
	plan := e.writePlan.reset(0)
	for i := range ops {
		op := &ops[i]
		if op.Key == "" {
			e.oram.BumpWrite()
		} else if err := e.oram.PlanWrite(op.Key, op.Value, op.Tombstone); err != nil {
			return nil, err
		}
		plan.bumps++
		if err := e.planDueEvictions(plan); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

func (e *Executor) appendAccess(plan *BatchPlan, ap *ringoram.AccessPlan, opIdx int) {
	t := plan.newTask()
	t.access = ap
	t.opIdx = opIdx
	kind := LogKind(0)
	if !ap.Cached() {
		t.reads = ap.Reads
		kind = LogAccess
	}
	e.markLocality(t)
	plan.addTask(t, kind)
}

// planMaintenance plans due early reshuffles then due evict-paths.
func (e *Executor) planMaintenance(plan *BatchPlan, reshuffle []int) error {
	for _, b := range reshuffle {
		ep, err := e.oram.PlanReshuffle(b)
		if err != nil {
			return err
		}
		e.stats.reshuffles.Add(1)
		t := plan.newTask()
		t.evict, t.reads, t.opIdx = ep, ep.Reads, -1
		e.markLocality(t)
		e.claimBuckets(ep)
		plan.addTask(t, LogReshuffle)
	}
	return e.planDueEvictions(plan)
}

func (e *Executor) planDueEvictions(plan *BatchPlan) error {
	for e.oram.EvictDue() {
		ep, err := e.oram.PlanEvict()
		if err != nil {
			return err
		}
		e.stats.evictions.Add(1)
		t := plan.newTask()
		t.evict, t.reads, t.opIdx = ep, ep.Reads, -1
		e.markLocality(t)
		e.claimBuckets(ep)
		plan.addTask(t, LogEvict)
	}
	return nil
}

// markLocality decides, per slot read, whether it will be served from the
// proxy: its bucket is resident, buffered or sealed. The decision is made at
// plan time: a resident bucket is always served locally (storage holds no
// physical slot layout of it) and holds the version the read was planned
// against until a later-planned rewrite completes, which is after this task;
// a bucket claimed by an earlier-planned eviction is buffered by the time this
// task completes; and a bucket in the sealed (previous-epoch) set holds a
// version that may not have reached storage yet, so it MUST be served locally.
func (e *Executor) markLocality(t *task) {
	if cap(t.local) < len(t.reads) {
		t.local = make([]bool, len(t.reads))
	} else {
		t.local = t.local[:len(t.reads)]
		clear(t.local)
	}
	for i, r := range t.reads {
		if r.Bucket < len(e.resident) {
			t.local[i] = true
			continue
		}
		if _, ok := e.buffered[r.Bucket]; ok {
			t.local[i] = true
			continue
		}
		if e.sealed != nil {
			if _, ok := e.sealed.buckets[r.Bucket]; ok {
				t.local[i] = true
			}
		}
	}
}

// claimBuckets registers the buckets an eviction plan will rewrite, so that
// later-planned reads are served locally. In write-through mode buckets hit
// storage immediately, so no claim is recorded; instead the plan becomes a
// pipeline barrier.
func (e *Executor) claimBuckets(ep *ringoram.EvictPlan) {
	if e.cfg.WriteThrough {
		return
	}
	for _, b := range ep.Buckets {
		if _, ok := e.buffered[b]; !ok {
			e.buffered[b] = bufferedBucket{} // claimed; filled at completion
		}
	}
}

// Execute performs a planned batch as one stage: every non-local slot read
// is coalesced into a single vectored ReadSlots call, completions are
// applied in plan order, and eviction writes are buffered (or written
// through).
func (e *Executor) Execute(plan *BatchPlan) ([]ReadResult, error) {
	plan.executed = true
	var res []ReadResult
	var err error
	if e.cfg.WriteThrough {
		res, err = e.executeStaged(plan)
	} else {
		res, err = e.executeStage(plan, plan.tasks)
	}
	if err == nil {
		// The batch is done with its tasks: reset them now, so the slot data
		// they point at does not stay reachable until the next batch.
		for _, t := range plan.tasks {
			t.reset()
		}
		plan.tasks = plan.tasks[:0]
	}
	return res, err
}

// executeStaged runs the batch with evictions acting as barriers: each
// eviction's writes reach storage before any later read is issued. This is
// the non-delayed-visibility baseline of Figure 10d.
func (e *Executor) executeStaged(plan *BatchPlan) ([]ReadResult, error) {
	stage := 0
	for stage < len(plan.tasks) {
		// A stage is a maximal run of access tasks plus one trailing
		// eviction (if present).
		end := stage
		for end < len(plan.tasks) && plan.tasks[end].evict == nil {
			end++
		}
		if end < len(plan.tasks) {
			end++ // include the eviction
		}
		if _, err := e.executeStage(plan, plan.tasks[stage:end]); err != nil {
			return nil, err
		}
		stage = end
	}
	return plan.results, nil
}

// executeStage issues one stage's remote reads as one vectored storage call,
// then applies completions in plan order.
func (e *Executor) executeStage(plan *BatchPlan, tasks []*task) ([]ReadResult, error) {
	if err := e.issueVector(tasks); err != nil {
		return nil, err
	}
	for _, t := range tasks {
		if err := e.completeTask(t, plan); err != nil {
			return nil, err
		}
	}
	return plan.results, nil
}

// issueVector coalesces every non-local read of the stage's tasks into one
// scatter-gather ReadSlots call: the batch crosses the storage boundary as a
// batch, paying one round trip (and one frame) instead of one per slot.
func (e *Executor) issueVector(tasks []*task) error {
	refs := e.refsBuf[:0]
	dests := e.destsBuf[:0]
	locals := int64(0)
	for _, t := range tasks {
		t.ensureData()
		for i, r := range t.reads {
			if t.local[i] {
				locals++
				continue
			}
			refs = append(refs, storage.SlotRef{Bucket: r.Bucket, Slot: r.Slot})
			dests = append(dests, scatter{t: t, i: i})
		}
	}
	// Keep any growth for the next batch. Stale task pointers past the new
	// length are harmless: tasks are pooled and the scratch is overwritten
	// from index zero each batch.
	e.refsBuf, e.destsBuf = refs, dests
	e.stats.localReads.Add(locals)
	if len(refs) == 0 {
		return nil
	}
	data, err := e.readSlots(refs)
	if err != nil {
		return err
	}
	for k, d := range data {
		dests[k].t.data[dests[k].i] = d
	}
	return nil
}

// readSlots is one vectored storage read, counted.
func (e *Executor) readSlots(refs []storage.SlotRef) ([][]byte, error) {
	e.stats.remoteReads.Add(int64(len(refs)))
	e.stats.readCalls.Add(1)
	data, err := e.store.ReadSlots(refs)
	if err != nil {
		return nil, e.readErr(err)
	}
	if len(data) != len(refs) {
		return nil, fmt.Errorf("oramexec: vectored read returned %d slots for %d refs", len(data), len(refs))
	}
	return data, nil
}

// readErr wraps a storage read error. In write-through mode a missing slot
// means the tree was written by an executor that keeps the upper levels
// resident: say so instead of reporting a bare slot number.
func (e *Executor) readErr(err error) error {
	if e.cfg.WriteThrough && errors.Is(err, storage.ErrNoSuchSlot) {
		return fmt.Errorf("oramexec: slot read in write-through mode: %w (the tree was written by a resident-set executor, which stores Z slots per upper-level bucket; Config.WriteThrough cannot read it)", err)
	}
	return fmt.Errorf("oramexec: slot read: %w", err)
}

// completeTask fills the task's local reads from the proxy's copies and
// applies the completion.
func (e *Executor) completeTask(t *task, plan *BatchPlan) error {
	for i := range t.reads {
		if !t.local[i] {
			continue
		}
		d, err := e.localSlot(t.reads[i])
		if err != nil {
			return err
		}
		t.data[i] = d
	}
	switch {
	case t.access != nil:
		val, found, err := e.oram.CompleteAccess(t.access, t.data)
		if err != nil {
			return err
		}
		if t.opIdx >= 0 {
			plan.results[t.opIdx].Value = val
			plan.results[t.opIdx].Found = found
		}
	case t.evict != nil:
		writes, err := e.oram.CompleteEvict(t.evict, t.data)
		if err != nil {
			return err
		}
		e.stats.writesBuffered.Add(int64(len(writes)))
		switch {
		case !e.cfg.WriteThrough:
			for _, w := range writes {
				// A superseded version never reaches storage: its arena goes
				// back to the pool. Completions apply in plan order, so any
				// read planned against the old version already resolved.
				if old, ok := e.buffered[w.Bucket]; ok {
					old.w.Recycle()
				}
				e.keepResident(w)
				w.Real = nil // the plan's scratch; the buffer outlives it
				e.buffered[w.Bucket] = bufferedBucket{w: w}
			}
		case len(writes) > 0:
			// Write-through: the eviction's whole write set in one call,
			// preserving the barrier (writes land before the next stage's
			// reads are issued). The store copied them: recycle.
			vec := make([]storage.BucketWrite, len(writes))
			for i, w := range writes {
				vec[i] = storage.BucketWrite{Bucket: w.Bucket, Epoch: e.epoch, Slots: w.Slots}
			}
			if err := e.store.WriteBuckets(vec); err != nil {
				return fmt.Errorf("oramexec: write-through eviction: %w", err)
			}
			for i := range writes {
				writes[i].Recycle()
			}
			e.stats.bucketWrites.Add(int64(len(vec)))
			e.stats.writeCalls.Add(1)
		}
	}
	return nil
}

// keepResident replaces an upper-level bucket's resident copy with the blocks
// of w, the version just buffered; w holds the bucket's real positions only,
// the block of physical slot w.Real[i] at w.Slots[i].
func (e *Executor) keepResident(w ringoram.BucketWrite) {
	if w.Bucket >= len(e.resident) {
		return
	}
	rb := &e.resident[w.Bucket]
	e.releaseFrames(rb)
	for i, s := range w.Real {
		e.addFrame(rb, s, w.Slots[i])
	}
}

// addFrame copies the block at physical slot s into rb.
func (e *Executor) addFrame(rb *residentBucket, s int, block []byte) {
	if len(e.freeFrames) == 0 {
		// One bucket's worth at a time, so the frames in existence never
		// exceed Z per resident bucket.
		chunk := make([]byte, e.oram.Params().Z*e.frameSize)
		e.stats.residentBytes.Add(int64(len(chunk)))
		for ; len(chunk) > 0; chunk = chunk[e.frameSize:] {
			e.freeFrames = append(e.freeFrames, chunk[:e.frameSize:e.frameSize])
		}
	}
	last := len(e.freeFrames) - 1
	f := e.freeFrames[last]
	e.freeFrames = e.freeFrames[:last]
	binary.BigEndian.PutUint16(f, uint16(s))
	copy(f[2:], block)
	rb.frames = append(rb.frames, f)
}

// releaseFrames empties rb, keeping its frames for reuse.
func (e *Executor) releaseFrames(rb *residentBucket) {
	e.freeFrames = append(e.freeFrames, rb.frames...)
	rb.frames = rb.frames[:0]
}

// LoadResident rebuilds the resident set from storage for an executor built
// over restored metadata, after the store's rollback and before any planning
// or replay. It is one vectored read of slots 0..Z-1 of every resident bucket,
// in bucket order — a function of the geometry alone — of which it keeps the
// positions the metadata says still hold a block. The bytes are not opened
// here: each is bound to its bucket's version and checked when a read uses it.
func (e *Executor) LoadResident() error {
	if len(e.resident) == 0 {
		return nil
	}
	z := e.oram.Params().Z
	refs := make([]storage.SlotRef, 0, z*len(e.resident))
	for b := range e.resident {
		for r := 0; r < z; r++ {
			refs = append(refs, storage.SlotRef{Bucket: b, Slot: r})
		}
	}
	data, err := e.readSlots(refs)
	if err != nil {
		return fmt.Errorf("oramexec: loading the resident levels: %w", err)
	}
	var slots []int
	for b := range e.resident {
		rb := &e.resident[b]
		e.releaseFrames(rb)
		slots = e.oram.BlockSlots(b, slots[:0])
		for r, s := range slots {
			if s >= 0 {
				e.addFrame(rb, s, data[b*z+r])
			}
		}
	}
	return nil
}

// localSlot serves a read planned local. A resident bucket's copy answers for
// it in every state — buffered, sealed or neither — with the slot's bytes when
// the slot holds a block and nil for a filler; completions apply in plan
// order, so the copy is of the version the read was planned against. Of the
// other buckets the current epoch's buffer supersedes the sealed one: a read
// planned after a rewrite completes after it, and one that still sees a nil
// (claimed, unfilled) current-epoch entry was planned before the claim and is
// served from the sealed version.
func (e *Executor) localSlot(r ringoram.SlotRead) ([]byte, error) {
	if r.Bucket < len(e.resident) {
		for _, f := range e.resident[r.Bucket].frames {
			if int(binary.BigEndian.Uint16(f)) == r.Slot {
				return f[2:], nil
			}
		}
		return nil, nil
	}
	b := e.buffered[r.Bucket]
	if !b.filled() && e.sealed != nil {
		b = e.sealed.buckets[r.Bucket]
	}
	if !b.filled() {
		return nil, fmt.Errorf("oramexec: bucket %d planned local but neither buffered nor sealed at completion", r.Bucket)
	}
	if r.Slot < 0 || r.Slot >= len(b.w.Slots) {
		return nil, fmt.Errorf("oramexec: buffered bucket %d has no slot %d", r.Bucket, r.Slot)
	}
	return b.w.Slots[r.Slot], nil
}

// Flush writes every buffered bucket to storage in one call and clears the
// buffer, recycling the buffers the store has copied. This is the epoch's
// deterministic write-back set: intermediate bucket versions were already
// superseded in the buffer (write dedup).
func (e *Executor) Flush() (int, error) {
	n, err := e.flushBuckets(e.epoch, e.buffered)
	if err != nil {
		return 0, err
	}
	recycleAll(e.buffered)
	e.buffered = make(map[int]bufferedBucket)
	return n, nil
}

// recycleAll returns every buffer of an epoch buffer nothing reads any more.
func recycleAll(buckets map[int]bufferedBucket) {
	for _, b := range buckets {
		b.w.Recycle()
	}
}

// SealEpoch detaches the current epoch's write-back set and opens a fresh
// buffer, so the next epoch's batches can plan and execute while a
// background committer flushes the sealed set via FlushSealed. The sealed
// buckets remain locally servable until the next seal.
// Must be called from the proxy's schedule driver (never concurrently with
// planning or execution), and only once the previous sealed set's flush has
// returned: its buffers are recycled here.
func (e *Executor) SealEpoch() (*SealedEpoch, error) {
	for b, buf := range e.buffered {
		if !buf.filled() {
			return nil, fmt.Errorf("oramexec: bucket %d claimed but never filled (incomplete epoch)", b)
		}
	}
	if e.sealed != nil {
		recycleAll(e.sealed.buckets)
	}
	s := &SealedEpoch{epoch: e.epoch, buckets: e.buffered}
	e.sealed = s
	// The schedule is public and fixed: the next epoch rewrites about as many
	// buckets as this one.
	e.buffered = make(map[int]bufferedBucket, len(s.buckets))
	return s, nil
}

// FlushSealed writes a sealed epoch's buckets to storage in one call. It
// only reads the immutable sealed set, so it is safe to run from a
// background committer while the executor plans and executes the next
// epoch's batches. The sealed set stays locally servable afterwards (the
// flushed versions are identical); the next SealEpoch retires it and
// recycles its buffers.
func (e *Executor) FlushSealed(s *SealedEpoch) (int, error) {
	return e.flushBuckets(s.epoch, s.buckets)
}

func (e *Executor) flushBuckets(epoch uint64, buckets map[int]bufferedBucket) (int, error) {
	if len(buckets) == 0 {
		return 0, nil
	}
	writes := make([]storage.BucketWrite, 0, len(buckets))
	for b, buf := range buckets {
		if !buf.filled() {
			return 0, fmt.Errorf("oramexec: bucket %d claimed but never filled (incomplete epoch)", b)
		}
		writes = append(writes, storage.BucketWrite{Bucket: b, Epoch: epoch, Slots: buf.w.Slots})
	}
	// Canonical bucket order: the write-back SET is already deterministic
	// (dedup per bucket), and sorting removes map-iteration order from the
	// adversary-visible sequence so every flush of the same set looks the
	// same on the wire.
	slices.SortFunc(writes, func(a, b storage.BucketWrite) int { return a.Bucket - b.Bucket })
	// The sealed epoch's entire write-back set crosses the storage boundary
	// in one scatter-gather call.
	e.stats.writeCalls.Add(1)
	if err := e.store.WriteBuckets(writes); err != nil {
		return 0, fmt.Errorf("oramexec: flushing epoch %d: %w", epoch, err)
	}
	n := len(writes)
	e.stats.bucketWrites.Add(int64(n))
	return n, nil
}

// DiscardBuffer drops all buffered writes, current and sealed, and empties
// the resident set: storage may roll back the versions it copies, and
// LoadResident brings back the ones it rolled back to (used when abandoning
// an epoch in tests; a crashed proxy loses all of it implicitly).
func (e *Executor) DiscardBuffer() {
	// Discarded current-epoch buckets never reached storage, so their arenas
	// recycle. Sealed buckets may be in the middle of a background flush:
	// they just drop.
	recycleAll(e.buffered)
	e.buffered = make(map[int]bufferedBucket)
	e.sealed = nil
	e.dropResident()
}

// dropResident empties the resident set.
func (e *Executor) dropResident() {
	for i := range e.resident {
		e.releaseFrames(&e.resident[i])
	}
}

// ReplayBatch replays logged entries during crash recovery: metadata is
// mutated exactly as the original epoch did (with logged slot choices) and
// the same physical reads are issued. Eviction writes are buffered and
// flushed by the caller as the recovery epoch's write-back.
func (e *Executor) ReplayBatch(entries []LogEntry) error {
	plan := &BatchPlan{shape: e.shape}
	for _, le := range entries {
		switch le.Kind {
		case LogAccess:
			// Buckets already rewritten during this replay hold freshly
			// randomized layouts: their logged slot choices are stale, and
			// the reads are served locally anyway (invisible to the
			// adversary). Use free slot choices for them.
			slots := append([]int(nil), le.Slots...)
			for i, b := range e.oram.PathBuckets(le.Leaf) {
				if i >= len(slots) {
					break
				}
				if _, buffered := e.buffered[b]; buffered {
					slots[i] = -1
				}
			}
			ap, due, err := e.oram.ReplayRead(le.Key, le.Leaf, slots)
			if err != nil {
				return err
			}
			e.appendAccess(plan, ap, -1)
			// Reshuffles and evictions appear explicitly in the log;
			// verify alignment instead of re-planning them here.
			if len(due) > 0 {
				// The original run reshuffled these buckets right after
				// this access; the matching LogReshuffle entries follow.
				continue
			}
		case LogWriteBump:
			e.oram.BumpWrite()
		case LogEvict:
			if !e.oram.EvictDue() {
				return errors.New("oramexec: replay divergence: logged eviction not due")
			}
			bslots := append([][]int(nil), le.BucketSlots...)
			for i, b := range e.oram.NextEvictPath() {
				if i >= len(bslots) {
					break
				}
				if _, buffered := e.buffered[b]; buffered {
					bslots[i] = nil // free choice for locally-served buckets
				}
			}
			ep, err := e.oram.ReplayEvict(bslots)
			if err != nil {
				return err
			}
			t := plan.newTask()
			t.evict, t.reads, t.opIdx = ep, ep.Reads, -1
			e.markLocality(t)
			e.claimBuckets(ep)
			plan.addTask(t, LogEvict)
		case LogReshuffle:
			rslots := le.Slots
			if _, buffered := e.buffered[le.Bucket]; buffered {
				rslots = nil
			}
			ep, err := e.oram.ReplayReshuffle(le.Bucket, rslots)
			if err != nil {
				return err
			}
			t := plan.newTask()
			t.evict, t.reads, t.opIdx = ep, ep.Reads, -1
			e.markLocality(t)
			e.claimBuckets(ep)
			plan.addTask(t, LogReshuffle)
		default:
			return fmt.Errorf("oramexec: unknown log entry kind %d", le.Kind)
		}
	}
	_, err := e.Execute(plan)
	return err
}
