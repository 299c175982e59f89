package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"obladi/internal/core"
	"obladi/internal/kvtxn"
	"obladi/internal/storage"
)

// This file is the epoch-stepped driver. One goroutine begins a fixed set of
// transactions, fires the R read batches and the epoch boundary itself,
// resolves futures between the read phase and the write phase, and collects
// acknowledgements one epoch late so the pipelined boundary overlaps the
// next epoch exactly as it does under the proxy's own timer. Nothing in here
// sleeps or reads a timer: the schedule advances as fast as the proxy can
// sustain it, which is the capacity being measured.

var bg = context.Background()

// liveTxn is one attempt of a transaction inside the epoch that runs it.
type liveTxn struct {
	spec    txnSpec
	id      int64 // sequence number of the logical transaction
	attempt int
	t       txn
	futs    [3]readFuture
	vals    [3]int64
	w       [3]kvWrite
	early   int
	total   int
	dead    bool // aborted before commit was requested
	ack     <-chan error
}

// retry is a logical transaction waiting for its next attempt.
type retry struct {
	spec    txnSpec
	id      int64
	attempt int
}

type driver struct {
	e   *env
	w   *workload
	eng engine
	gen *generator
	tr  *tracer // traced pass only

	epoch   uint32
	bufs    [2][]liveTxn // this epoch's and the previous epoch's attempts
	retries []retry      // oldest first
	offer   bool         // generate new transactions (off while draining)

	// model is the oracle: every key's value after the acknowledged commits
	// so far, in timestamp order. epochStart holds, for the keys written in
	// the epoch whose acks are being collected, the value before that epoch.
	model      []int64
	epochStart map[int32]int64

	generated int64 // logical transactions offered
	begun     int64 // attempts begun
	acked     int64 // commits acknowledged
	failed    int64 // logical transactions that exhausted their attempts
}

func newDriver(e *env, seed uint64) *driver {
	d := &driver{e: e, w: e.w, gen: newGenerator(e.w, seed), offer: true}
	if e.wire != nil {
		d.eng = e.wire
	} else {
		d.eng = embedded{e.proxy}
	}
	d.epochStart = make(map[int32]int64)
	d.model = make([]int64, e.w.keys)
	for i := range d.model {
		d.model[i] = e.w.initialValue()
	}
	return d
}

func (d *driver) open(name spanName) int32 {
	if d.tr == nil {
		return -1
	}
	return d.tr.open(name)
}

func (d *driver) close(i int32) {
	if d.tr != nil {
		d.tr.close(i)
	}
}

// decodeValue checks a stored value's shape and returns its number.
func (d *driver) decodeValue(v []byte, found bool) (int64, error) {
	if !found {
		return 0, errors.New("key not found")
	}
	if len(v) != len(d.e.template) || !bytes.Equal(v[8:], d.e.template[8:]) {
		return 0, fmt.Errorf("malformed value of %d bytes", len(v))
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

// isAbort reports whether err is the retryable kind: the transaction lost a
// conflict, a dependency, or its epoch.
func isAbort(err error) bool {
	return errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrEpochFull) || errors.Is(err, kvtxn.ErrAborted)
}

// settle records an attempt's failure: retried next epoch, or counted as
// failed once the attempts are spent. A non-retryable error is fatal.
func (d *driver) settle(lt *liveTxn, err error) error {
	if !isAbort(err) {
		return fmt.Errorf("transaction %d attempt %d: %w", lt.id, lt.attempt, err)
	}
	if lt.attempt >= maxAttempts {
		d.failed++
		return nil
	}
	d.retries = append(d.retries, retry{spec: lt.spec, id: lt.id, attempt: lt.attempt + 1})
	return nil
}

// write issues one write of lt; a refused write kills the attempt.
func (d *driver) write(lt *liveTxn, w kvWrite) error {
	err := lt.t.Write(d.e.names[w.key], encodeValue(d.e.template, w.val))
	if err == nil {
		return nil
	}
	if !isAbort(err) {
		return fmt.Errorf("transaction %d write: %w", lt.id, err)
	}
	lt.dead = true
	return nil
}

// begin starts one attempt: the transaction, its whole read set, and for a
// blind workload its write.
func (d *driver) begin(cur []liveTxn, spec txnSpec, id int64, attempt int) ([]liveTxn, error) {
	cur = append(cur, liveTxn{spec: spec, id: id, attempt: attempt})
	lt := &cur[len(cur)-1]
	d.begun++
	lt.t = d.eng.begin()
	for i := 0; i < int(spec.nread); i++ {
		lt.futs[i] = lt.t.ReadAsync(d.e.names[spec.reads[i]])
	}
	if d.w.blind() {
		lt.w, lt.early, lt.total = spec.writes(&lt.vals, id)
		for i := 0; i < lt.total && !lt.dead; i++ {
			if err := d.write(lt, lt.w[i]); err != nil {
				return cur, err
			}
		}
	}
	return cur, nil
}

// runEpoch drives one epoch of the schedule.
func (d *driver) runEpoch() error {
	d.epoch++
	if d.tr != nil {
		d.tr.openEpoch(d.epoch)
	}
	cur := d.bufs[d.epoch&1][:0]
	prev := d.bufs[(d.epoch+1)&1]

	// Begin phase. New transactions first, then retries: a retry holds a
	// higher timestamp than every first attempt, so it cannot lose a write
	// conflict to one.
	sp := d.open(spanClientBegin)
	nretry := len(d.retries)
	if nretry > d.w.txnsPerEpoch {
		nretry = d.w.txnsPerEpoch
	}
	var err error
	nnew := 0
	if d.offer {
		nnew = d.w.txnsPerEpoch - nretry
		for i := nretry; i < d.w.txnsPerEpoch; i++ {
			d.generated++
			if cur, err = d.begin(cur, d.gen.next(), d.generated, 1); err != nil {
				return err
			}
		}
	}
	for _, r := range d.retries[:nretry] {
		if cur, err = d.begin(cur, r.spec, r.id, r.attempt); err != nil {
			return err
		}
	}
	d.retries = d.retries[:copy(d.retries, d.retries[nretry:])]
	d.eng.syncOps()
	d.close(sp)

	// Read phase: the epoch's R read batches.
	for b := 0; b < d.w.readBatches; b++ {
		sp = d.open(spanStepRead)
		err := d.e.proxy.StepReadBatch()
		d.close(sp)
		if err != nil {
			return err
		}
	}

	// Resolve phase: every future is ready now. Read-dependent writes are
	// issued group by group (see rmwGroup), late writes after every group.
	sp = d.open(spanClientResolve)
	for g, end := 0, 0; g < len(cur); g = end {
		if end = g + 1; g < nnew {
			end = min(g+rmwGroup, nnew)
		}
		for i := g; i < end; i++ {
			lt := &cur[i]
			for r := 0; r < int(lt.spec.nread); r++ {
				v, found, err := lt.futs[r].Wait(bg)
				if err != nil {
					if !isAbort(err) {
						return fmt.Errorf("transaction %d read: %w", lt.id, err)
					}
					lt.dead = true
					continue
				}
				if lt.vals[r], err = d.decodeValue(v, found); err != nil {
					return fmt.Errorf("oracle: transaction %d read %s: %w", lt.id, d.e.names[lt.spec.reads[r]], err)
				}
			}
		}
		if d.w.blind() {
			continue
		}
		for i := g; i < end; i++ {
			lt := &cur[i]
			if lt.dead {
				continue
			}
			lt.w, lt.early, lt.total = lt.spec.writes(&lt.vals, lt.id)
			if lt.attempt > 1 {
				// A retry does all its writes in its own turn: two retries
				// with the same late key would otherwise abort each other
				// every epoch.
				lt.early = lt.total
			}
			for k := 0; k < lt.early && !lt.dead; k++ {
				if err := d.write(lt, lt.w[k]); err != nil {
					return err
				}
			}
		}
	}
	for i := range cur {
		lt := &cur[i]
		for k := lt.early; k < lt.total && !lt.dead; k++ {
			if err := d.write(lt, lt.w[k]); err != nil {
				return err
			}
		}
	}
	d.eng.syncOps()
	d.close(sp)

	// Commit phase: request commit for every surviving attempt.
	sp = d.open(spanClientCommit)
	for i := range cur {
		lt := &cur[i]
		if lt.dead {
			lt.t.Abort()
			if err := d.settle(lt, core.ErrAborted); err != nil {
				return err
			}
			continue
		}
		lt.ack = lt.t.CommitAsync()
	}
	d.eng.syncCommits()
	d.close(sp)

	// Boundary. The seal waits for the previous epoch's commit stage, then
	// hands this epoch's to the background committer and returns.
	sp = d.open(spanSeal)
	err = d.e.proxy.EndEpoch()
	d.close(sp)
	if err != nil {
		return err
	}
	if d.tr != nil {
		// The previous commit stage has landed (back-pressure), and this
		// epoch's cannot have finished yet: commitDone still names the
		// previous one.
		d.tr.rollStage(d.e.counters.commitDone.Load())
	}

	// Acknowledgements of the previous epoch.
	sp = d.open(spanAcks)
	err = d.collectAcks(prev)
	d.close(sp)
	if err != nil {
		return err
	}
	d.bufs[d.epoch&1], d.bufs[(d.epoch+1)&1] = cur, prev[:0]
	if d.tr != nil {
		d.tr.close(d.tr.epochSpan.Load())
	}
	return nil
}

// collectAcks receives the commit decisions of one epoch's attempts, in
// timestamp order: acknowledged ones advance the oracle, aborted ones retry.
func (d *driver) collectAcks(attempts []liveTxn) error {
	clear(d.epochStart)
	for i := range attempts {
		lt := &attempts[i]
		if lt.dead {
			continue
		}
		if err := <-lt.ack; err != nil {
			lt.dead = true
			if err := d.settle(lt, err); err != nil {
				return err
			}
			continue
		}
		d.acked++
		if d.e.wire != nil {
			d.applyWrites(lt)
		} else if err := d.applyAcked(lt); err != nil {
			return err
		}
	}
	if d.e.wire == nil {
		return nil
	}
	// Over the wire the server assigns timestamps as sessions reach it, so
	// the order inside an epoch is not the client's: a read may have seen
	// the key as the epoch found it or as the epoch's (single) write left it.
	for i := range attempts {
		lt := &attempts[i]
		if lt.dead {
			continue
		}
		for r := 0; r < int(lt.spec.nread); r++ {
			key := lt.spec.reads[r]
			before, written := d.epochStart[key]
			if lt.vals[r] != d.model[key] && !(written && lt.vals[r] == before) {
				return fmt.Errorf("oracle: transaction %d read %s = %d, acknowledged history allows %d (or %d before this epoch: %v)",
					lt.id, d.e.names[key], lt.vals[r], d.model[key], before, written)
			}
		}
	}
	return nil
}

// applyWrites installs lt's writes in the model, remembering what each key
// held when the epoch being collected began.
func (d *driver) applyWrites(lt *liveTxn) {
	for k := 0; k < lt.total; k++ {
		key := lt.w[k].key
		if _, seen := d.epochStart[key]; !seen {
			d.epochStart[key] = d.model[key]
		}
		d.model[key] = lt.w[k].val
	}
}

// quiesce collects the newest epoch's acknowledgements now instead of one
// epoch late. Acks are sent after the boundary commit has landed, so on
// return nothing runs behind the driver: counters read here are exact.
func (d *driver) quiesce() error {
	newest := d.bufs[d.epoch&1]
	err := d.collectAcks(newest)
	d.bufs[d.epoch&1] = newest[:0]
	return err
}

// applyAcked advances the oracle by one acknowledged transaction: what it
// read must be what the acknowledged transactions before it left behind. A
// blind write precedes the transaction's own reads, so it is applied first.
func (d *driver) applyAcked(lt *liveTxn) error {
	if d.w.blind() {
		d.applyWrites(lt)
	}
	for r := 0; r < int(lt.spec.nread); r++ {
		key := lt.spec.reads[r]
		if d.model[key] != lt.vals[r] {
			return fmt.Errorf("oracle: transaction %d read %s = %d, acknowledged history says %d",
				lt.id, d.e.names[key], lt.vals[r], d.model[key])
		}
	}
	if !d.w.blind() {
		d.applyWrites(lt)
	}
	return nil
}

// drain stops offering load and runs epochs until every outstanding attempt
// and retry has settled.
func (d *driver) drain() error {
	d.offer = false
	defer func() { d.offer = true }()
	for {
		if err := d.runEpoch(); err != nil {
			return err
		}
		if len(d.retries) == 0 && len(d.bufs[0]) == 0 && len(d.bufs[1]) == 0 {
			return nil
		}
	}
}

// verifyStore reads every key back through the proxy and compares it with
// the oracle's model.
func (d *driver) verifyStore() error {
	chunk := d.w.readBatches * d.w.readBatchSize
	futs := make([]*core.Future, 0, chunk)
	for start := 0; start < d.w.keys; start += chunk {
		end := start + chunk
		if end > d.w.keys {
			end = d.w.keys
		}
		tx := d.e.proxy.Begin()
		futs = futs[:0]
		for k := start; k < end; k++ {
			futs = append(futs, tx.ReadAsync(d.e.names[k]))
		}
		for b := 0; b < d.w.readBatches; b++ {
			if err := d.e.proxy.StepReadBatch(); err != nil {
				return err
			}
		}
		for i, f := range futs {
			v, found, err := f.Wait(bg)
			if err != nil {
				return fmt.Errorf("oracle: reading back %s: %w", d.e.names[start+i], err)
			}
			got, err := d.decodeValue(v, found)
			if err != nil {
				return fmt.Errorf("oracle: reading back %s: %w", d.e.names[start+i], err)
			}
			if got != d.model[start+i] {
				return fmt.Errorf("oracle: store holds %s = %d, acknowledged history says %d", d.e.names[start+i], got, d.model[start+i])
			}
		}
		tx.Abort()
		if err := d.e.proxy.EndEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// block is one timing sample: an epoch, or blockEpochs of them summed.
type block struct {
	wallNs  int64
	cpuNs   int64
	commits int64
}

// passResult is everything one measured pass yields.
type passResult struct {
	blocks     []block
	epochs     []block    // the same pass, epoch by epoch
	firstEpoch uint32     // driver epoch number of the first measured epoch
	stats      core.Stats // proxy counters over the pass
	storage    storageSnapshot
	begun      int64
	acked      int64
	mallocs    uint64
	liveHeap   uint64 // HeapAlloc after a forced GC at the end of the pass
	engineNs   int64  // kv-wire: time inside proxy calls on the server side
	frames     int64  // kv-wire: request frames sent
	wireBytes  int64  // kv-wire: bytes crossing the client wire, both ways
	fsyncs     uint64 // bank-disk: fsync waves
	fsyncNs    int64
	diskBytes  int64 // bank-disk: bytes the process wrote (/proc/self/io wchar)
	truncated  bool  // the wall-clock cap cut the pass short
	wallNs     int64
}

// diffStats subtracts the counters that accumulate.
func diffStats(a, b core.Stats) core.Stats {
	a.Epochs -= b.Epochs
	a.Committed -= b.Committed
	a.Aborted -= b.Aborted
	a.ReadBatchSlots -= b.ReadBatchSlots
	a.RealReads -= b.RealReads
	a.CacheHits -= b.CacheHits
	a.WriteSlots -= b.WriteSlots
	a.RealWrites -= b.RealWrites
	a.ConflictAborts -= b.ConflictAborts
	a.CascadingAborts -= b.CascadingAborts
	a.ShedReads -= b.ShedReads
	a.Executor.RemoteReads -= b.Executor.RemoteReads
	a.Executor.LocalReads -= b.Executor.LocalReads
	a.Executor.BucketWrites -= b.Executor.BucketWrites
	a.Executor.WritesBuffered -= b.Executor.WritesBuffered
	a.Executor.Evictions -= b.Executor.Evictions
	a.Executor.Reshuffles -= b.Executor.Reshuffles
	return a
}

// runPass warms the system up for warmup epochs and then measures nblocks
// blocks. maxWallNs caps the measured part on a host much slower than the
// reference one.
func (d *driver) runPass(warmup, nblocks int, maxWallNs int64) (*passResult, error) {
	for i := 0; i < warmup; i++ {
		if err := d.runEpoch(); err != nil {
			return nil, err
		}
	}
	if err := d.quiesce(); err != nil {
		return nil, err
	}
	runtime.GC()
	res := &passResult{blocks: make([]block, 0, nblocks), epochs: make([]block, 0, nblocks*blockEpochs), firstEpoch: d.epoch + 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats0 := d.e.proxy.Stats()
	storage0 := d.e.counters.snapshot()
	begun0, acked0 := d.begun, d.acked
	var engine0, frames0, wire0 int64
	if we := d.e.wire; we != nil {
		engine0, frames0 = we.db.engineNs.Load(), we.frames
		wire0 = we.wire.bytesIn.Load() + we.wire.bytesOut.Load()
	}
	var fsync0 storage.GroupStats
	if d.e.group != nil {
		fsync0 = d.e.group.Group().Stats()
	}
	disk0 := procWriteBytes()

	start := nanotime()
	lastWall, lastCPU, lastAcked := start, processCPU(), d.acked
	for b := 0; b < nblocks; b++ {
		var sum block
		for i := 0; i < blockEpochs; i++ {
			if err := d.runEpoch(); err != nil {
				return nil, err
			}
			wall, cpu := nanotime(), processCPU()
			ep := block{wallNs: wall - lastWall, cpuNs: cpu - lastCPU, commits: d.acked - lastAcked}
			res.epochs = append(res.epochs, ep)
			sum.wallNs, sum.cpuNs, sum.commits = sum.wallNs+ep.wallNs, sum.cpuNs+ep.cpuNs, sum.commits+ep.commits
			lastWall, lastCPU, lastAcked = wall, cpu, d.acked
		}
		res.blocks = append(res.blocks, sum)
		if wall := lastWall; wall-start > maxWallNs {
			res.truncated = b+1 < nblocks
			break
		}
	}
	res.wallNs = lastWall - start
	if err := d.quiesce(); err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.stats = diffStats(d.e.proxy.Stats(), stats0)
	res.storage = d.e.counters.snapshot().sub(storage0)
	res.begun, res.acked = d.begun-begun0, d.acked-acked0
	if we := d.e.wire; we != nil {
		res.engineNs, res.frames = we.db.engineNs.Load()-engine0, we.frames-frames0
		res.wireBytes = we.wire.bytesIn.Load() + we.wire.bytesOut.Load() - wire0
	}
	if d.e.group != nil {
		f := d.e.group.Group().Stats()
		res.fsyncs, res.fsyncNs = f.Waves-fsync0.Waves, int64(f.SyncTime-fsync0.SyncTime)
	}
	res.diskBytes = procWriteBytes() - disk0
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = m1.HeapAlloc
	return res, nil
}
