// Package oramexec is Obladi's parallel ORAM executor (§7 of the paper).
//
// The executor drives the public machine (ringoram/meta), which holds its
// byte plane (ringoram.ORAM), given once when the ORAM was made, and calls
// it itself. It turns a batch of logical operations into one pipelined
// pass over storage: the machine plans each operation whole and sequentially
// (cheap CPU) — its access, then the early reshuffles and evict-paths it
// makes due, a schedule meta alone decides — the resulting physical slot
// reads are coalesced into a single scatter-gather storage call per stage
// (one wire op and one round trip however many slots the stage reads), and
// every step is completed in plan order, which realizes multilevel
// serializability: the outcome is identical to the sequential execution of
// the same batch (ringoram.Seq). Both plan on the machine (PlanRead,
// PlanWrite) and complete each step with ringoram.ORAM.Complete over the
// same store interface; they differ only in how they schedule the I/O. A
// batch's log is the machine's view of its steps (BatchPlan.Log); what a
// step logs and how it is replayed is meta's, and ReplayBatch executes what
// the machine's Replay plans.
//
// The executor schedules I/O and owns no block bytes, only the buffer its
// reads land in (storage.SlotRef.Into), which serves vector after vector:
// the ORAM opens each slot into a block of its own as it completes. The
// machine's local-version table decides which bucket versions the proxy
// keeps — every version the epoch's evictions write and the resident top of
// the tree — and marks the reads they serve Local as they are planned; the
// ORAM files each kept version's image and serves those reads at completion,
// and the executor issues the others. It also does the table's I/O:
// LoadResident, one vectored read of the resident buckets' Z real slots
// before anything is planned over restored metadata, and the write-back,
// which seals only the versions that reach storage, into an arena reused by
// the next flush, and writes them in one call. At the pipelined boundary
// SealEpoch detaches the epoch's versions, which a background committer
// writes (FlushSealed) while the next epoch's batches run. Write-through mode
// keeps no table and writes each eviction's whole buckets at once.
package oramexec

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"obladi/internal/ringoram"
	"obladi/internal/ringoram/meta"
	"obladi/internal/slab"
	"obladi/internal/storage"
)

// Config tunes the executor.
type Config struct {
	// WriteThrough disables delayed visibility: eviction writes go to
	// storage immediately and act as pipeline barriers. This is the
	// "Write Back" ablation of Figure 10d and is never used in production.
	// It keeps no local-version table, reads and writes whole (Z+S slot)
	// buckets, and so cannot read a tree a resident-set executor has written
	// to.
	WriteThrough bool
}

// Executor drives a ringoram client against shadow-paged storage. Nothing is
// locked: planning and execution are not safe for concurrent use (the proxy
// serializes batch execution per shard), with two exceptions: FlushSealed
// may run from a background committer concurrently with the next epoch's
// planning/execution, and Stats, which reads only atomics, may be read from
// any goroutine.
type Executor struct {
	oram  *ringoram.ORAM
	m     *meta.Machine // the ORAM's
	store storage.BucketStore
	cfg   Config

	epoch uint64
	// sealed is the handle of the last SealEpoch, spare the one before it:
	// alternating two, a steady boundary allocates none.
	sealed, spare *SealedEpoch
	// flushBuf is flushImages' write vector and arena the memory its seals
	// carve the slots from, both reused across flushes: a flush runs on one
	// goroutine at a time, and stores keep nothing of the vector or the slots.
	// Write-through evictions use them too; images holds the images either
	// writes.
	flushBuf []storage.BucketWrite
	arena    ringoram.SealArena
	images   []ringoram.BucketImage
	// resident is how many buckets, from the root, the ORAM keeps resident
	// (0 in write-through mode): LoadResident reads their Z real slots.
	resident int

	// refsBuf and destsBuf are issueVector's scatter-gather scratch, reused
	// across batches (planning and execution are serialized per executor).
	refsBuf  []storage.SlotRef
	destsBuf []scatter
	// reads is the read buffer every ref of a vector is given a slot frame
	// of as its destination (storage.SlotRef.Into), vector after vector: it
	// grows to the largest one. Reusing it is safe because a completion
	// opens every slot it delivers (meta.Machine.Complete), a stage's vector
	// is completed before the next stage's is issued, and Execute resets its
	// tasks before it returns.
	reads []byte

	// readPlan and writePlan are the one read and one write batch plan each
	// Plan*Batch call resets, tasks and results included; seen is the read
	// batch's duplicate check, and steps receives each operation's plans.
	readPlan, writePlan BatchPlan
	seen                map[string]bool
	steps               []*meta.Plan
	// vals carves the values reads return: they escape to the caller, so
	// they are copied once into chunks that are never reused.
	vals slab.Bytes

	stats statCounters
}

// scatter routes one vectored slot read back to its task's data slot.
type scatter struct {
	t *task
	i int
}

// SealedEpoch is a finished epoch's detached write-back set: the version of
// every bucket the epoch rewrote, deduplicated, in bucket order. It is
// immutable once sealed, and retired (it reports no buckets) by the next
// seal.
type SealedEpoch struct {
	epoch  uint64
	images []ringoram.BucketImage
}

// Epoch returns the sealed epoch's number.
func (s *SealedEpoch) Epoch() uint64 { return s.epoch }

// Buckets reports how many distinct buckets the sealed set holds.
func (s *SealedEpoch) Buckets() int { return len(s.images) }

// Stats counts executor activity since creation.
type Stats struct {
	RemoteReads    int64 // slot reads issued to storage
	LocalReads     int64 // slot reads the ORAM served from its local-version table
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
	// ResidentBytes is a gauge: the memory of the blocks the resident levels
	// hold in the ORAM's table, at most Z blocks (ringoram.ORAM.BlockSize
	// bytes each) per resident bucket.
	ResidentBytes int64
	// StashPeak is a gauge: the high-water mark of the machine's stash.
	StashPeak int
	// The block plane's work (ringoram.ORAM.Work): slots sealed holding a
	// block and written as fillers, slots opened under a binding, and
	// plaintext slots copied from the local-version table.
	SealedSlots, FilledSlots, OpenedSlots, CopiedSlots int64
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
	// The gauges, refreshed on the executor's goroutine (see refresh).
	residentBytes atomic.Int64
	stashPeak     atomic.Int64
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
		StashPeak:      int(c.stashPeak.Load()),
	}
}

// task is one planned step of the ORAM with the slots its reads fetched.
// Tasks belong to their plan and are reset, keeping their data backing array,
// for the plan's next batch.
type task struct {
	step  *meta.Plan
	data  [][]byte
	opIdx int // index into the batch's results (-1 for all but a batch's reads)
}

// reset clears a finished task for its plan's next batch. The backing array
// of data rides along for reuse.
func (t *task) reset() {
	clear(t.data) // drop slot references so kept tasks don't pin arenas
	t.step = nil
	t.data = t.data[:0]
	t.opIdx = 0
}

// ensureData sizes t.data for the step's reads, reusing pooled capacity.
func (t *task) ensureData() {
	n := len(t.step.Reads)
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
	tasks []*task
	// steps are the tasks' steps, in order: what the batch logs.
	steps   []*meta.Plan
	results []ReadResult
	m       *meta.Machine
}

// reset readies the plan for a batch of n results.
func (b *BatchPlan) reset(n int) *BatchPlan {
	b.tasks, b.steps = b.tasks[:0], b.steps[:0]
	b.results = slices.Grow(b.results[:0], n)[:n]
	clear(b.results)
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

// add appends the machine's planned steps to the batch as tasks, counting the
// evictions and reshuffles among them; an access among them answers the
// batch's result opIdx.
func (e *Executor) add(b *BatchPlan, steps []*meta.Plan, opIdx int) {
	for _, s := range steps {
		t := b.newTask()
		t.step, t.opIdx = s, -1
		switch s.Kind {
		case meta.AccessStep:
			t.opIdx = opIdx
		case meta.EvictStep:
			e.stats.evictions.Add(1)
		case meta.ReshuffleStep:
			e.stats.reshuffles.Add(1)
		}
		b.tasks = append(b.tasks, t)
		b.steps = append(b.steps, s)
	}
}

// Log returns the batch's durability-log entries, in order, as the machine's
// view over the plan's steps. The caller must persist it before calling
// Execute (write-ahead logging): execution recycles what the view reads.
func (b *BatchPlan) Log() meta.BatchLog { return b.m.BatchLog(b.steps) }

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
	m := oram.Machine()
	e := &Executor{oram: oram, m: m, store: store, cfg: cfg}
	e.readPlan.m, e.writePlan.m = m, m
	if !cfg.WriteThrough {
		e.resident = m.KeepLocal()
	}
	return e
}

// ORAM returns the underlying client.
func (e *Executor) ORAM() *ringoram.ORAM { return e.oram }

// Stats returns a snapshot of the executor's counters. Safe to call from
// any goroutine, including concurrently with batch execution: it reads only
// atomics, and its gauges are as the last batch, load, flush or seal left
// them.
func (e *Executor) Stats() Stats {
	s := e.stats.snapshot()
	s.SealedSlots, s.FilledSlots, s.OpenedSlots, s.CopiedSlots = e.oram.Work()
	return s
}

// refresh updates the gauges Stats reads from other goroutines: the memory of
// the blocks the resident buckets' newest versions hold, and the stash peak.
func (e *Executor) refresh() {
	n := 0
	for b := range e.resident {
		cur, _ := e.m.Local(b)
		n += len(e.oram.Image(cur).Blocks)
	}
	e.stats.residentBytes.Store(int64(n * e.oram.BlockSize()))
	e.stats.stashPeak.Store(int64(e.m.StashPeak()))
}

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
		steps, err := e.m.PlanRead(op.Key, e.steps[:0])
		if err != nil {
			return nil, err
		}
		e.add(plan, steps, i)
		e.steps = steps
	}
	clear(e.steps)
	return plan, nil
}

// PlanWriteBatch applies the epoch's write batch logically (dummiless writes
// go straight to the stash, the ORAM encoding each block's value) and plans
// the evictions it triggers. Padding entries (empty keys) bump the access
// counter so the eviction schedule stays workload independent. A value over
// ValueSize is refused before the machine plans its write.
func (e *Executor) PlanWriteBatch(ops []WriteOp) (*BatchPlan, error) {
	plan := e.writePlan.reset(0)
	for i := range ops {
		op := &ops[i]
		steps, err := e.m.PlanWrite(op.Key, op.Value, op.Tombstone, e.steps[:0])
		if err != nil {
			return nil, err
		}
		e.add(plan, steps, -1)
		e.steps = steps
	}
	clear(e.steps)
	return plan, nil
}

// Execute performs a planned batch as one stage: every non-local slot read
// is coalesced into a single vectored ReadSlots call, completions are
// applied in plan order, and eviction writes stay in the ORAM's table (or are
// written through).
func (e *Executor) Execute(plan *BatchPlan) ([]ReadResult, error) {
	defer e.refresh()
	clear(plan.steps) // a log view read from now on finds no step
	plan.steps = plan.steps[:0]
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
		for end < len(plan.tasks) && len(plan.tasks[end].step.Buckets) == 0 {
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
		if err := e.complete(t, plan); err != nil {
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
		for i, r := range t.step.Reads {
			if r.Local() {
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
	size := e.oram.SlotSize()
	if n := len(refs) * size; cap(e.reads) < n {
		e.reads = make([]byte, n)
	}
	into(refs, e.reads, size)
	data, err := e.readSlots(refs)
	if err != nil {
		return err
	}
	for k, d := range data {
		dests[k].t.data[dests[k].i] = d
	}
	return nil
}

// into gives each ref a size-byte frame of buf, in order, as its destination.
func into(refs []storage.SlotRef, buf []byte, size int) {
	for i := range refs {
		refs[i].Into = buf[i*size : (i+1)*size : (i+1)*size]
	}
}

// readSlots is one vectored storage read, counted. In write-through mode a
// missing slot means the tree was written by an executor that keeps the
// upper levels resident: the error says so instead of naming a bare slot.
func (e *Executor) readSlots(refs []storage.SlotRef) ([][]byte, error) {
	e.stats.remoteReads.Add(int64(len(refs)))
	e.stats.readCalls.Add(1)
	data, err := e.store.ReadSlots(refs)
	switch {
	case e.cfg.WriteThrough && errors.Is(err, storage.ErrNoSuchSlot):
		return nil, fmt.Errorf("oramexec: slot read in write-through mode: %w (the tree was written by a resident-set executor, which stores Z slots per upper-level bucket; Config.WriteThrough cannot read it)", err)
	case err != nil:
		return nil, fmt.Errorf("oramexec: slot read: %w", err)
	case len(data) != len(refs):
		return nil, fmt.Errorf("oramexec: vectored read returned %d slots for %d refs", len(data), len(refs))
	}
	return data, nil
}

// complete applies the task's completion on the machine, the ORAM moving its
// blocks and serving its local reads, and copies out the value an access
// returns.
func (e *Executor) complete(t *task, plan *BatchPlan) error {
	rewrites := int64(len(t.step.Buckets))
	v, found, images, err := e.oram.Complete(t.step, t.data, e.images[:0])
	e.images = images
	if err != nil {
		return err
	}
	if t.opIdx >= 0 && found {
		plan.results[t.opIdx].Value = e.vals.Copy(v)
		plan.results[t.opIdx].Found = true
	}
	e.stats.writesBuffered.Add(rewrites)
	if len(images) > 0 {
		// Only write-through keeps no local-version table, so only there
		// does an eviction hand back its images: its whole write set,
		// sealed now, in one call, preserving the barrier (writes land
		// before the next stage's reads are issued). The store copied what
		// it keeps.
		_, err = e.flushImages(e.epoch, images)
		for i := range images {
			images[i].Recycle()
		}
	}
	return err
}

// LoadResident rebuilds the resident levels from storage for an executor
// built over restored metadata, after the store's rollback and before any
// planning or replay: one vectored read of slots 0..Z-1 of every resident
// bucket, in bucket order — a function of the geometry alone — which the ORAM
// opens under each bucket's binding as it keeps the blocks its metadata still
// places (LoadLocal). A slot that fails to authenticate fails the load.
func (e *Executor) LoadResident() error {
	if e.resident == 0 {
		return nil
	}
	defer e.refresh()
	z := e.m.Params().Z
	refs := make([]storage.SlotRef, 0, z*e.resident)
	for b := 0; b < e.resident; b++ {
		for r := 0; r < z; r++ {
			refs = append(refs, storage.SlotRef{Bucket: b, Slot: r})
		}
	}
	// The load is larger than any batch's vector and happens once, so its
	// destinations are a buffer of its own, dropped with it.
	size := e.oram.SlotSize()
	into(refs, make([]byte, len(refs)*size), size)
	data, err := e.readSlots(refs)
	if err == nil {
		err = e.oram.LoadLocal(data)
	}
	if err != nil {
		return fmt.Errorf("oramexec: loading the resident levels: %w", err)
	}
	return nil
}

// Flush seals the current epoch's bucket versions, writes them to storage in
// one call, and drops them from the table, the resident buckets' newest
// versions excepted. This is the epoch's deterministic write-back set:
// intermediate bucket versions were already superseded (write dedup),
// unsealed. The sealed set is left as it is.
func (e *Executor) Flush() (int, error) {
	defer e.refresh()
	handles, err := e.m.LocalEpoch()
	if err != nil {
		return 0, err
	}
	e.images = e.imagesOf(e.images, handles)
	n, err := e.flushImages(e.epoch, e.images)
	clear(e.images)
	if err != nil {
		return 0, err
	}
	e.m.Flushed()
	return n, nil
}

// imagesOf refills dst with the images the ORAM files under handles.
func (e *Executor) imagesOf(dst []ringoram.BucketImage, handles []meta.Image) []ringoram.BucketImage {
	clear(dst)
	dst = dst[:0]
	for _, h := range handles {
		dst = append(dst, e.oram.Image(h))
	}
	return dst
}

// SealEpoch detaches the current epoch's write-back set, so the next epoch's
// batches can plan and execute while a background committer flushes the
// sealed set via FlushSealed. The sealed buckets remain locally servable until
// the next seal. Must be called from the proxy's schedule driver (never
// concurrently with planning or execution), and only once the previous sealed
// set's flush has returned: the machine retires that set here, and its
// handle reports no buckets from now on. The sealed images are immutable and
// stay valid until the next SealEpoch.
func (e *Executor) SealEpoch() (*SealedEpoch, error) {
	defer e.refresh()
	handles, err := e.m.SealLocal()
	if err != nil {
		return nil, err
	}
	s := e.spare
	if s == nil {
		s = new(SealedEpoch)
	}
	if e.sealed != nil {
		clear(e.sealed.images)
		e.sealed.images = e.sealed.images[:0]
	}
	s.epoch, s.images = e.epoch, e.imagesOf(s.images, handles)
	e.spare, e.sealed = e.sealed, s
	return s, nil
}

// FlushSealed seals a sealed epoch's buckets and writes them to storage in
// one call. It only reads the immutable sealed set (SealImage reads nothing
// the machine's calls change), so it is safe to run from a background committer
// while the executor plans and executes the next epoch's batches: the epoch's
// seals run there. The sealed set stays locally servable afterwards (the
// flushed versions are identical) until the next SealEpoch retires it.
func (e *Executor) FlushSealed(s *SealedEpoch) (int, error) {
	return e.flushImages(s.epoch, s.images)
}

// flushImages seals images, in bucket order, into the flush's arena and
// writes them in one call: the epoch's entire write-back set crosses the
// storage boundary as one scatter-gather call.
func (e *Executor) flushImages(epoch uint64, images []ringoram.BucketImage) (int, error) {
	if len(images) == 0 {
		return 0, nil
	}
	writes := e.flushBuf[:0]
	var err error
	for _, im := range images {
		var slots [][]byte
		if slots, err = e.oram.SealImage(im, &e.arena); err != nil {
			break
		}
		writes = append(writes, storage.BucketWrite{Bucket: im.Bucket, Epoch: epoch, Slots: slots})
	}
	if err == nil {
		e.stats.writeCalls.Add(1)
		if err = e.store.WriteBuckets(writes); err != nil {
			err = fmt.Errorf("oramexec: flushing epoch %d: %w", epoch, err)
		}
	}
	// The store keeps nothing of the vector or its slots past the call: both
	// go to the next flush.
	clear(writes)
	e.flushBuf = writes[:0]
	e.arena.Reset()
	if err != nil {
		return 0, err
	}
	e.stats.bucketWrites.Add(int64(len(images)))
	return len(images), nil
}

// ReplayBatch replays a logged batch during crash recovery: the machine plans
// its steps again, one per entry, refusing any its schedule does not owe
// (meta's Replay), and the batch executes like a live one, issuing the
// same physical reads. Eviction writes stay in the ORAM's table and are
// flushed by the caller as the recovery epoch's write-back.
func (e *Executor) ReplayBatch(entries []meta.LogEntry) error {
	plan, err := e.planReplay(entries)
	if err == nil {
		_, err = e.Execute(plan)
	}
	return err
}

// planReplay plans a logged batch's steps as a batch plan.
func (e *Executor) planReplay(entries []meta.LogEntry) (*BatchPlan, error) {
	steps, err := e.m.Replay(entries, e.steps[:0])
	e.steps = steps
	defer clear(e.steps)
	if err != nil {
		return nil, err
	}
	plan := &BatchPlan{m: e.m}
	e.add(plan, steps, -1)
	return plan, nil
}
