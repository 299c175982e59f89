// Package oramexec is Obladi's parallel ORAM executor (§7 of the paper).
//
// The executor turns a batch of logical operations into one pipelined pass
// over storage: all client-side metadata is planned sequentially (cheap CPU),
// the resulting physical slot reads are coalesced into a single scatter-
// gather storage call per stage (one wire op and one round trip however many
// slots the stage reads), completions are applied in plan order (which
// realizes multilevel serializability: the outcome is identical to the
// sequential execution of the same batch), and all bucket versions produced
// by evictions and early reshuffles are buffered in plaintext until the end
// of the epoch, deduplicated per bucket, and sealed and flushed as one
// vectored write-back. Reads that target a buffered bucket are served
// locally.
//
// Epoch buffers are double-buffered to support the proxy's pipelined epoch
// boundary: SealEpoch detaches the finished epoch's write-back set, which a
// background committer flushes via FlushSealed while the next epoch's
// batches already plan and execute. Until the sealed set is released (or
// superseded by the next seal), reads that target a sealed bucket keep being
// served locally — the sealed versions may not have reached storage yet.
//
// A buffered bucket version is a ringoram.BucketImage: plaintext, lent to the
// executor from the eviction that fills it until nothing reads it any more.
// Only the version that reaches storage is ever sealed, and only by the
// flush: it seals the epoch's images into one executor-owned arena, makes its
// one store call (the store copies what it keeps) and hands the arena to the
// next flush. So an intermediate version a later rewrite of the same epoch
// supersedes costs no seal, and on the pipelined boundary the sealing runs on
// the committer, beside the next epoch's batches. The executor recycles a
// superseded image at once, a flushed epoch's images as soon as Flush's store
// call returns, and a sealed set's when it is superseded by the next seal —
// by then its flush has landed (the proxy seals only after the previous
// commit) and no batch reads it. The write-back set is a function of the
// public schedule, so the image pool settles at about two epochs' images, the
// arena at one epoch's slots, and a steady-state epoch allocates neither.
//
// Above that sits the resident set: for every bucket of levels 0..L-3 the
// executor keeps a compact plaintext copy of the blocks of the bucket's
// newest version, and serves every read of that bucket from it — the block
// for the one read that carries a block, nothing for a filler, which
// completion never inspects. A read is therefore local when its bucket is
// resident, buffered or sealed; which reads that skips is a function of the
// bucket number and of the epoch's evictions, never of the workload. A local
// read is handed to completion as plaintext, marked Local, and the version it
// came from must be the version the read was planned against: that check
// stands where the slot's (bucket, version) binding would for a read from
// storage. Because a resident bucket is never read slot by slot, storage gets
// only what can ever be read back: its Z real positions, in position order,
// and none of its S dummies. The set is recovered state, not a cache: an
// executor built over restored metadata calls LoadResident, one vectored read
// of those Z slots of every resident bucket, authenticated as they load,
// before it plans or replays anything. Write-through mode keeps no resident
// set, seals each eviction's images at once and writes whole buckets.
package oramexec

import (
	"errors"
	"fmt"
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
	// spare is the set sealed before sealed, retired by the last seal (its
	// flush had returned) and refilled by the next: the executor alternates
	// two SealedEpochs, and the write-back maps pass from sealed set to
	// buffer, so a steady boundary allocates neither.
	spare *SealedEpoch
	// flushBuf is flushBuckets' write vector and arena the memory its seals
	// carve the slots from, both reused across flushes: a flush runs on one
	// goroutine at a time, and stores keep nothing of the vector or the slots.
	// Write-through evictions, which buffer nothing, use them too.
	flushBuf []storage.BucketWrite
	arena    ringoram.SealArena
	// resident holds the upper levels' buckets, indexed by heap number (see
	// residentBuckets for the level rule); empty in write-through mode.
	// Touched only by planning and execution, never by a background flush.
	resident []residentBucket

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

// bufferedBucket is one buffered bucket rewrite, holding the ringoram image
// so its pooled buffer can be recycled once nothing reads it: when a later
// rewrite of the same bucket supersedes it, or after its epoch's flush (see
// the package doc). The epoch buffers hold it by value — a rewrite of a
// bucket the epoch already rewrote reuses the map's slot — and a bucket an
// eviction has claimed but not yet completed is the zero value.
type bufferedBucket struct {
	w ringoram.BucketImage
}

// filled reports whether the rewrite's completion has run (versions start
// at 1).
func (b bufferedBucket) filled() bool { return b.w.Ver != 0 }

// residentBucket is the executor's copy of one upper-level bucket: the
// version it holds and that version's blocks, each a pooled plaintext slot of
// the ORAM's beside its physical slot number. A block is copied out of the
// image (CopySlot) or opened from the load's reply (OpenSlot), never aliased:
// images are recycled, replies are the store's. The buckets share the ORAM's
// pool because a bucket's occupancy swings between 0 and Z while the levels'
// total barely moves. A bucket of a fresh tree holds no blocks.
type residentBucket struct {
	ver    uint64
	slots  []int // slots[i] is the physical slot of blocks[i]
	blocks [][]byte
}

// residentBuckets is the level rule: the buckets of levels 0..L-3, which are
// the first 2^(L-2)-1 heap indices, stay resident. A bucket holds about the
// same number of blocks at every level, so each further level doubles the
// memory for the same 1/(L+1) of the physical reads.
func residentBuckets(g ringoram.Geometry) int {
	if g.Levels < 3 {
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
	// ResidentBytes is a gauge: the memory of the blocks the resident set
	// holds, at most Z plaintext slots for each resident bucket.
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
// plan and are reset, keeping their data backing array, for the plan's next
// batch.
type task struct {
	access *ringoram.AccessPlan
	evict  *ringoram.EvictPlan // eviction or reshuffle
	reads  []ringoram.SlotRead // the plan's reads; markLocality marks the local ones
	data   [][]byte
	opIdx  int // index into the batch's results (-1 for maintenance)
	// logKind is the durability-log entry this task stands for (0: none — a
	// read served from the stash issues no physical reads), and bumps the
	// number of write-bump entries logged ahead of it.
	logKind LogKind
	bumps   int
}

// reset clears a finished task for its plan's next batch. The backing array
// of data rides along for reuse.
func (t *task) reset() {
	clear(t.data) // drop slot references so kept tasks don't pin arenas
	t.access = nil
	t.evict = nil
	t.reads = nil
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
		oram:     oram,
		store:    store,
		cfg:      cfg,
		buffered: make(map[int]bufferedBucket),
		shape:    newLogShape(oram.Params(), oram.Geometry()),
	}
	e.readPlan.shape, e.writePlan.shape = e.shape, e.shape
	if !cfg.WriteThrough {
		n, z := residentBuckets(oram.Geometry()), oram.Params().Z
		e.resident = make([]residentBucket, n)
		oram.SealRealOnly(n)
		// One slab per field, carved at each bucket's Z blocks: no bucket's
		// slices ever grow.
		slots, blocks := make([]int, n*z), make([][]byte, n*z)
		var scratch []int
		for b := range e.resident {
			rb := &e.resident[b]
			rb.slots, rb.blocks = slots[b*z:b*z:(b+1)*z], blocks[b*z:b*z:(b+1)*z]
			scratch, rb.ver = oram.BlockSlots(b, scratch[:0])
		}
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
// proxy — its bucket is resident, buffered or sealed — and marks the read
// Local, which is how completion knows to decode it as plaintext. The
// decision is made at plan time: a resident bucket is always served locally (storage holds no
// physical slot layout of it) and holds the version the read was planned
// against until a later-planned rewrite completes, which is after this task;
// a bucket claimed by an earlier-planned eviction is buffered by the time this
// task completes; and a bucket in the sealed (previous-epoch) set holds a
// version that may not have reached storage yet, so it MUST be served locally.
func (e *Executor) markLocality(t *task) {
	for i := range t.reads {
		r := &t.reads[i]
		if r.Bucket < len(e.resident) {
			r.Local = true
			continue
		}
		if _, ok := e.buffered[r.Bucket]; ok {
			r.Local = true
			continue
		}
		if e.sealed != nil {
			_, r.Local = e.sealed.buckets[r.Bucket]
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
			if r.Local {
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
	for i, r := range t.reads {
		if !r.Local {
			continue
		}
		d, ver, err := e.localSlot(r)
		if err != nil {
			return err
		}
		if ver != r.Ver {
			return fmt.Errorf("oramexec: bucket %d slot %d served locally from version %d, the read was planned against version %d", r.Bucket, r.Slot, ver, r.Ver)
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
		images, err := e.oram.CompleteEvict(t.evict, t.data)
		if err != nil {
			return err
		}
		e.stats.writesBuffered.Add(int64(len(images)))
		if e.cfg.WriteThrough {
			// Write-through: the eviction's whole write set, sealed now, in
			// one call, preserving the barrier (writes land before the next
			// stage's reads are issued).
			return e.writeThrough(images)
		}
		for _, im := range images {
			// A superseded version never reaches storage and was never
			// sealed: its image goes back to the pool. Completions apply in
			// plan order, so any read planned against the old version
			// already resolved.
			if old, ok := e.buffered[im.Bucket]; ok {
				old.w.Recycle()
			}
			e.keepResident(im)
			e.buffered[im.Bucket] = bufferedBucket{w: im}
		}
	}
	return nil
}

// writeThrough seals an eviction's images and writes them in one call, then
// recycles them: the store copied what it keeps.
func (e *Executor) writeThrough(images []ringoram.BucketImage) error {
	defer recycle(images)
	if len(images) == 0 {
		return nil
	}
	vec := e.flushBuf[:0]
	for _, im := range images {
		slots, err := e.oram.SealImage(im, &e.arena)
		if err != nil {
			e.releaseFlush(vec)
			return err
		}
		vec = append(vec, storage.BucketWrite{Bucket: im.Bucket, Epoch: e.epoch, Slots: slots})
	}
	err := e.store.WriteBuckets(vec)
	e.releaseFlush(vec)
	if err != nil {
		return fmt.Errorf("oramexec: write-through eviction: %w", err)
	}
	e.stats.bucketWrites.Add(int64(len(vec)))
	e.stats.writeCalls.Add(1)
	return nil
}

// releaseFlush hands the flush vector and the arena its slots were sealed
// into back for the next flush, once the store call that took them returned.
func (e *Executor) releaseFlush(vec []storage.BucketWrite) {
	clear(vec)
	e.flushBuf = vec[:0]
	e.arena.Reset()
}

// keepResident replaces an upper-level bucket's resident copy with the blocks
// of im, the version just buffered.
func (e *Executor) keepResident(im ringoram.BucketImage) {
	if im.Bucket >= len(e.resident) {
		return
	}
	rb := &e.resident[im.Bucket]
	e.releaseResident(rb)
	rb.ver = im.Ver
	for i, s := range im.Real() {
		e.addResident(rb, s, e.oram.CopySlot(im.Blocks[i]))
	}
}

// addResident adds block, a pooled slot, to rb as the block at physical slot
// s.
func (e *Executor) addResident(rb *residentBucket, s int, block []byte) {
	rb.slots = append(rb.slots, s)
	rb.blocks = append(rb.blocks, block)
	e.stats.residentBytes.Add(int64(len(block)))
}

// releaseResident empties rb, handing its blocks back to the ORAM's pool.
func (e *Executor) releaseResident(rb *residentBucket) {
	for _, b := range rb.blocks {
		e.stats.residentBytes.Add(-int64(len(b)))
	}
	e.oram.ReleaseSlots(rb.blocks)
	clear(rb.blocks)
	rb.slots, rb.blocks = rb.slots[:0], rb.blocks[:0]
}

// LoadResident rebuilds the resident set from storage for an executor built
// over restored metadata, after the store's rollback and before any planning
// or replay. It is one vectored read of slots 0..Z-1 of every resident bucket,
// in bucket order — a function of the geometry alone — of which it keeps the
// positions the metadata says still hold a block, each opened under its
// bucket's (bucket, version) binding as it loads: a slot that fails to
// authenticate fails the load.
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
		e.releaseResident(rb)
		slots, rb.ver = e.oram.BlockSlots(b, slots[:0])
		for r, s := range slots {
			if s < 0 {
				continue
			}
			block, err := e.oram.OpenSlot(data[b*z+r], b, rb.ver)
			if err != nil {
				return fmt.Errorf("oramexec: loading the resident levels: %w", err)
			}
			e.addResident(rb, s, block)
		}
	}
	return nil
}

// localSlot serves a read planned local: the plaintext of the block at the
// read's slot, nil for a filler, and the version it came from. A resident
// bucket's copy answers for it in every state — buffered, sealed or neither;
// completions apply in plan order, so the copy is of the version the read was
// planned against. Of the other buckets the current epoch's buffer supersedes
// the sealed one: a read planned after a rewrite completes after it, and one
// that still sees a nil (claimed, unfilled) current-epoch entry was planned
// before the claim and is served from the sealed version.
func (e *Executor) localSlot(r ringoram.SlotRead) ([]byte, uint64, error) {
	if r.Bucket < len(e.resident) {
		rb := &e.resident[r.Bucket]
		if i := slices.Index(rb.slots, r.Slot); i >= 0 {
			return rb.blocks[i], rb.ver, nil
		}
		return nil, rb.ver, nil
	}
	b := e.buffered[r.Bucket]
	if !b.filled() && e.sealed != nil {
		b = e.sealed.buckets[r.Bucket]
	}
	if !b.filled() {
		return nil, 0, fmt.Errorf("oramexec: bucket %d planned local but neither buffered nor sealed at completion", r.Bucket)
	}
	return b.w.Block(r.Slot), b.w.Ver, nil
}

// Flush seals every buffered bucket, writes them to storage in one call and
// clears the buffer, recycling the images. This is the epoch's deterministic
// write-back set: intermediate bucket versions were already superseded in the
// buffer (write dedup), unsealed.
func (e *Executor) Flush() (int, error) {
	n, err := e.flushBuckets(e.epoch, e.buffered)
	if err != nil {
		return 0, err
	}
	recycleAll(e.buffered)
	clear(e.buffered)
	return n, nil
}

// recycleAll returns every image of an epoch buffer nothing reads any more.
func recycleAll(buckets map[int]bufferedBucket) {
	for _, b := range buckets {
		b.w.Recycle()
	}
}

// recycle returns every image's buffer to its ORAM's pool.
func recycle(images []ringoram.BucketImage) {
	for i := range images {
		images[i].Recycle()
	}
}

// SealEpoch detaches the current epoch's write-back set and opens a fresh
// buffer, so the next epoch's batches can plan and execute while a
// background committer flushes the sealed set via FlushSealed. The sealed
// buckets remain locally servable until the next seal.
// Must be called from the proxy's schedule driver (never concurrently with
// planning or execution), and only once the previous sealed set's flush has
// returned: its buffers are recycled here, its map becomes the next epoch's
// buffer and its handle is retired (it reports no buckets from now on) to be
// refilled by the seal after this one.
func (e *Executor) SealEpoch() (*SealedEpoch, error) {
	for b, buf := range e.buffered {
		if !buf.filled() {
			return nil, fmt.Errorf("oramexec: bucket %d claimed but never filled (incomplete epoch)", b)
		}
	}
	next := e.retireSealed()
	s := e.spare
	if s == nil {
		s = new(SealedEpoch)
	}
	s.epoch, s.buckets = e.epoch, e.buffered
	e.spare, e.sealed, e.buffered = e.sealed, s, next
	return s, nil
}

// retireSealed retires the previous sealed set and returns its map, emptied,
// for the next epoch's buffer: the schedule is public and fixed, so the next
// epoch rewrites about as many buckets as the last.
func (e *Executor) retireSealed() map[int]bufferedBucket {
	prev := e.sealed
	if prev == nil {
		return make(map[int]bufferedBucket, len(e.buffered))
	}
	recycleAll(prev.buckets)
	m := prev.buckets
	clear(m)
	prev.buckets = nil
	return m
}

// FlushSealed seals a sealed epoch's buckets and writes them to storage in
// one call. It only reads the immutable sealed set (SealImage reads nothing
// the ORAM's lock guards), so it is safe to run from a background committer
// while the executor plans and executes the next epoch's batches: the epoch's
// seals run there. The sealed set stays locally servable afterwards (the
// flushed versions are identical); the next SealEpoch retires it and
// recycles its images.
func (e *Executor) FlushSealed(s *SealedEpoch) (int, error) {
	return e.flushBuckets(s.epoch, s.buckets)
}

func (e *Executor) flushBuckets(epoch uint64, buckets map[int]bufferedBucket) (int, error) {
	if len(buckets) == 0 {
		return 0, nil
	}
	writes := e.flushBuf[:0]
	for b, buf := range buckets {
		if !buf.filled() {
			return 0, fmt.Errorf("oramexec: bucket %d claimed but never filled (incomplete epoch)", b)
		}
		writes = append(writes, storage.BucketWrite{Bucket: b, Epoch: epoch})
	}
	// Canonical bucket order: the write-back SET is already deterministic
	// (dedup per bucket), and sorting removes map-iteration order from the
	// adversary-visible sequence so every flush of the same set looks the
	// same on the wire.
	slices.SortFunc(writes, func(a, b storage.BucketWrite) int { return a.Bucket - b.Bucket })
	for i := range writes {
		slots, err := e.oram.SealImage(buckets[writes[i].Bucket].w, &e.arena)
		if err != nil {
			e.releaseFlush(writes)
			return 0, err
		}
		writes[i].Slots = slots
	}
	// The epoch's entire write-back set crosses the storage boundary in one
	// scatter-gather call.
	e.stats.writeCalls.Add(1)
	err := e.store.WriteBuckets(writes)
	// The store keeps nothing of the vector or its slots past the call.
	e.releaseFlush(writes)
	if err != nil {
		return 0, fmt.Errorf("oramexec: flushing epoch %d: %w", epoch, err)
	}
	n := len(writes)
	e.stats.bucketWrites.Add(int64(n))
	return n, nil
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
