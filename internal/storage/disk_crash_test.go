package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"slices"
	"sort"
	"sync"
	"testing"
)

// This file is the crash-point sweep harness: an in-memory vfs that models
// the durability semantics of a real disk (written data is volatile until
// fsync; metadata operations are journaled) with injectable faults — fail
// after N operations, a torn final write, silently dropped fsyncs — plus a
// sweep that crashes a one-shard disk group opened without
// DiskOptions.LogHeap (its bucket versions and log records on one log, each
// commit behind its own barrier) at *every* mutation point of a
// write→seal→commit workload and asserts that reopening recovers exactly the
// state of the last durable commit.

var errInjectedCrash = errors.New("injected crash")

const (
	crashFailStop = iota // ops from the crash point on fail; volatile data lost
	crashTorn            // like failStop, but the crashing write tears: a prefix persists
	crashDropSync        // fsyncs from the point on silently lie; no op ever fails
)

type faultPlan struct {
	mode    int
	crashAt int // 1-based index of the first affected operation
	ops     int
	crashed bool
}

// op accounts one mutation and reports whether it must fail.
func (p *faultPlan) op() error {
	if p == nil {
		return nil
	}
	p.ops++
	if p.mode == crashDropSync {
		return nil // dropped-fsync runs never fail operations outright
	}
	if p.ops >= p.crashAt {
		p.crashed = true
		return errInjectedCrash
	}
	return nil
}

// crashFS is an in-memory vfs. Each file tracks the process view (data) and
// the durable view (what survives a crash, advanced only by Sync). Metadata
// operations — create, rename, remove — are modeled as journaled: durable
// once performed, which is exactly the model under which forgetting to fsync
// *file contents* before a rename still loses data.
type crashFS struct {
	mu    sync.Mutex
	nodes map[string]*crashNode
	plan  *faultPlan
}

type crashNode struct {
	data    []byte
	durable []byte
}

func newCrashFS(plan *faultPlan) *crashFS {
	return &crashFS{nodes: make(map[string]*crashNode), plan: plan}
}

// snapshot materializes the durable state as a fresh, fault-free crashFS:
// what a machine would find on its disk after power loss.
func (c *crashFS) snapshot() *crashFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := newCrashFS(nil)
	for name, n := range c.nodes {
		d := append([]byte(nil), n.durable...)
		s.nodes[name] = &crashNode{data: append([]byte(nil), d...), durable: d}
	}
	return s
}

type crashFile struct {
	fs   *crashFS
	node *crashNode
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = path.Clean(name)
	n, ok := c.nodes[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		if err := c.plan.op(); err != nil {
			return nil, err
		}
		n = &crashNode{}
		c.nodes[name] = n
	} else if flag&os.O_TRUNC != 0 {
		if err := c.plan.op(); err != nil {
			return nil, err
		}
		n.data = nil
		n.durable = nil
	}
	return &crashFile{fs: c, node: n}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.plan.op(); err != nil {
		return err
	}
	oldpath, newpath = path.Clean(oldpath), path.Clean(newpath)
	n, ok := c.nodes[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(c.nodes, oldpath)
	c.nodes[newpath] = n
	return nil
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.plan.op(); err != nil {
		return err
	}
	name = path.Clean(name)
	if _, ok := c.nodes[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(c.nodes, name)
	return nil
}

func (c *crashFS) List(dir string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dir = path.Clean(dir)
	var names []string
	for name := range c.nodes {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	return names, nil
}

func (c *crashFS) MkdirAll(dir string, perm os.FileMode) error { return nil }

// lying reports whether the plan's fsyncs have started to lie.
func (c *crashFS) lying() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan != nil && c.plan.mode == crashDropSync && c.plan.ops >= c.plan.crashAt
}

func (c *crashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Metadata is journaled in this model; the sync only counts as an op so
	// crashes can land on it.
	return c.plan.op()
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	plan := f.fs.plan
	if err := plan.op(); err != nil {
		if plan.mode == crashTorn && plan.ops == plan.crashAt {
			// The crashing write tears: its first half reaches the platter
			// even though the process sees a failure.
			frag := p[:len(p)/2]
			f.node.durable = writeAtInto(f.node.durable, frag, off)
		}
		return 0, err
	}
	f.node.data = writeAtInto(f.node.data, p, off)
	return len(p), nil
}

func writeAtInto(dst, p []byte, off int64) []byte {
	end := off + int64(len(p))
	for int64(len(dst)) < end {
		dst = append(dst, 0)
	}
	copy(dst[off:end], p)
	return dst
}

func (f *crashFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.plan.op(); err != nil {
		return err
	}
	if int64(len(f.node.data)) > size {
		f.node.data = f.node.data[:size]
	}
	return nil
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	plan := f.fs.plan
	if plan != nil && plan.mode == crashDropSync {
		plan.ops++
		if plan.ops >= plan.crashAt {
			return nil // the dropped fsync: success reported, nothing persisted
		}
	} else if err := plan.op(); err != nil {
		return err
	}
	f.node.durable = append(f.node.durable[:0:0], f.node.data...)
	return nil
}

func (f *crashFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.node.data)), nil
}

func (f *crashFile) Close() error { return nil }

// Map returns a view of the first n bytes of the file's process view, its
// page cache: the bytes are given room up to n in place, so WriteAt updates
// the view as long as it writes inside it, as a shared mapping sees writes.
// Bytes past the file's size are not the file's and are never read.
func (f *crashFile) Map(n int64) ([]byte, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if int64(cap(f.node.data)) < n {
		f.node.data = append(make([]byte, 0, n), f.node.data...)
	}
	return f.node.data[:n:n], nil
}

func (f *crashFile) Unmap([]byte) error { return nil }

// ---- the sweep ----

// sweepOracle mirrors every operation the disk backend acknowledged into a
// MemBackend (the reference implementation) and snapshots the full committed
// state at each acked commit.
type sweepOracle struct {
	mem        *MemBackend
	numBuckets int
	snaps      map[uint64][][][]byte // committed epoch -> bucket -> slots
	lastCommit uint64
	logRecs    [][]byte // record with sequence i+1 at index i (issued, maybe unacked)
	// logAcked counts the logRecs prefix whose durability was acknowledged
	// (inline for Append; at SyncLog's return for deferred appends). Records
	// beyond it were issued but never acked: recovery may keep or drop them
	// — a SyncLog spanning a segment rotation can persist its first file and
	// crash on the second — but what it keeps must match what was issued.
	logAcked int
	// truncAttempted is the highest Truncate argument ever issued: an
	// unacknowledged truncation may still have landed durably (the meta
	// rename raced the crash), so recovery may truncate up to here.
	truncAttempted uint64
	// segsDeleted is set once the workload has issued a call that deletes
	// log segments on the strength of fsyncs — a truncation, whose segment
	// drop leans on the barriers of the floor raise and later commits.
	// Under a disk that lies about fsync, the records that made a dropped
	// segment's versions dead may never have reached the disk while the
	// segment is gone, so the buckets have nothing left to assert.
	segsDeleted bool
	// logPhys is the physical sequence each acked record of logRecs landed
	// on, for the one-shard sweeps: it survives a reopen, which renumbers the
	// stream (oracleLog).
	logPhys []uint64
	// commitIssued is the highest epoch whose commit record was issued as a
	// DEFERRED append (CommitEpochNoSync accepted it; the closing barrier
	// never acked). A segment rotation's seal fsync can make such a record
	// durable before the barrier, so recovery may land past lastCommit — up
	// to here — without anything having been invented. Zero for workloads
	// that only commit inline.
	commitIssued uint64
}

func newSweepOracle(numBuckets int) *sweepOracle {
	o := &sweepOracle{
		mem:            NewMemBackend(numBuckets),
		numBuckets:     numBuckets,
		snaps:          make(map[uint64][][][]byte),
		truncAttempted: 1,
	}
	o.snapshot(0)
	return o
}

func (o *sweepOracle) snapshot(epoch uint64) {
	state := make([][][]byte, o.numBuckets)
	for b := 0; b < o.numBuckets; b++ {
		slots, err := o.mem.ReadBucket(b)
		if err != nil {
			panic(err)
		}
		cp := make([][]byte, len(slots))
		for i, s := range slots {
			cp[i] = append([]byte(nil), s...)
		}
		state[b] = cp
	}
	o.snaps[epoch] = state
}

// sweepSegMaxBytes is the sweeps' segment size: small enough that the tiny
// workloads roll segments, so rollover's crash windows are swept.
const sweepSegMaxBytes = 128

// sweepOpts opens a crash-harness group: serial recovery, no background
// work, tiny segments.
var sweepOpts = diskOpts{workers: 1, segMaxBytes: sweepSegMaxBytes}

// openSweepStore opens the one-shard group a sweep drives in dir, its
// durability calls checked by a barrier oracle.
func openSweepStore(fsys *crashFS, dir string, opts diskOpts) (*diskStore, error) {
	b, err := openDiskStore(fsys, dir, 5, opts)
	if err == nil {
		b.o = &barrierOracle{fsys: fsys}
	}
	return b, err
}

// mustHoldBarriers fails the test if the oracle saw a durability call
// return before its records were durable.
func mustHoldBarriers(t *testing.T, o *barrierOracle, tag string) {
	t.Helper()
	if err := o.violation(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// diskLies reports whether the store's disk has begun to lie about fsync. A
// segment is deleted — by a truncation or by the maintenance pass — on the
// strength of fsyncs of what supersedes its contents: a later committed
// version, a rollback, a moved copy. Once those fsyncs lie, the
// delete takes the only durable copy and a crash loses it by construction,
// so there is nothing to assert; the workload then deletes nothing
// (truncate_crash_test.go leaves that mode out for the same reason).
func (d *diskStore) diskLies() bool {
	fs, ok := d.log.fsys.(*crashFS)
	return ok && fs.lying()
}

// maintainPass is the group's maintenance pass, run explicitly so its crash
// windows are part of the swept surface: evacuate every segment below the
// truncation point, raise the heap's floor behind a barrier on its last
// record, drop the segments that frees (unless the disk lies).
func (d *diskStore) maintainPass() error {
	for _, base := range d.log.gcCandidates() {
		if _, err := d.LogHeap.EvacuateSegment(base); err != nil {
			return err
		}
	}
	if err := d.LogHeap.raiseFloor(); err != nil {
		return err
	}
	if !d.diskLies() {
		d.log.dropDeadSegments()
	}
	return nil
}

// crashWorkload drives b through write→seal→commit cycles with same-epoch
// rewrites, a mid-stream rollback, log appends, truncation and two explicit
// maintenance passes (background maintenance is off in harness opens, so
// maintainPass puts its crash windows at deterministic sweep indices).
// Acked operations mirror into the oracle; the workload
// stops at the first error (the injected crash wedges the backend). salt
// prefixes every payload so multi-shard runs store distinct bytes per shard;
// single-digit shard salts keep record sizes — and so each shard's op
// sequence — identical across shards.
func crashWorkload(b *diskStore, o *sweepOracle, salt string) {
	const numBuckets = 5
	slotsFor := func(e uint64, bucket int) [][]byte {
		return [][]byte{
			[]byte(fmt.Sprintf("%se%d-b%d-s0", salt, e, bucket)),
			[]byte(fmt.Sprintf("%se%d-b%d-s1", salt, e, bucket)),
		}
	}
	for e := uint64(1); e <= 6; e++ {
		var writes []BucketWrite
		for i := 0; i < 3; i++ {
			bucket := (int(e) + i) % numBuckets
			writes = append(writes, BucketWrite{Bucket: bucket, Epoch: e, Slots: slotsFor(e, bucket)})
		}
		if b.WriteBuckets(writes) != nil {
			return
		}
		o.mem.WriteBuckets(writes)
		// Same-epoch rewrite (recovery replay does this).
		re := BucketWrite{Bucket: int(e) % numBuckets, Epoch: e,
			Slots: [][]byte{[]byte(fmt.Sprintf("%se%d-rewrite", salt, e)), []byte("s1")}}
		if b.WriteBucket(re.Bucket, re.Epoch, re.Slots) != nil {
			return
		}
		o.mem.WriteBucket(re.Bucket, re.Epoch, re.Slots)
		rec := []byte(fmt.Sprintf("%swal-%d", salt, e))
		if _, err := b.Append(rec); err != nil {
			return
		}
		phys, _ := b.log.last()
		o.logRecs = append(o.logRecs, rec)
		o.logPhys = append(o.logPhys, phys)
		o.logAcked = len(o.logRecs)
		if e == 3 {
			// Epoch 3 aborts: revert instead of committing (the paper's §8).
			if b.RollbackTo(2) != nil {
				return
			}
			o.mem.RollbackTo(2)
			// Maintenance over the rolled-back garbage: replay must not
			// resurrect epoch 3, whichever segments the pass frees.
			if b.maintainPass() != nil {
				return
			}
			continue
		}
		if b.CommitEpoch(e) != nil {
			return
		}
		o.mem.CommitEpoch(e)
		o.lastCommit = e
		o.snapshot(e)
		if e == 4 && !b.diskLies() {
			o.segsDeleted = true
			o.truncAttempted = 3
			if b.Truncate(3) != nil {
				return
			}
		}
		if e == 5 {
			// Segment GC with committed, superseded and truncated state all
			// present: the live versions below the truncation point move to
			// the log head, the floor raise's barrier makes that durable, and
			// the segments they left go.
			if b.maintainPass() != nil {
				return
			}
		}
	}
}

// verifyRecovered opens the durable snapshot and checks it against the
// oracle. strict is true for fault modes with honest fsyncs, where recovery
// must land exactly on the last acknowledged commit.
func verifyRecovered(t *testing.T, snap *crashFS, dir string, o *sweepOracle, strict bool, tag string) {
	t.Helper()
	// A crash during the store's very creation can leave no meta file; the
	// operator reopens with the configured geometry, so pass it here too.
	r, err := openDiskStore(snap, dir, 5, diskOpts{workers: 1})
	if err != nil {
		t.Fatalf("%s: recovered store failed to open: %v", tag, err)
	}
	defer r.Close()
	verifyRecoveredState(t, oracleLog{r, o.logPhys}, o, strict, tag)
}

// oracleLog answers a reopened one-shard group's log face from the physical
// log, in the numbering the workload saw: a record's sequence is the
// position, among the acked records, of the physical sequence it lies at.
// A reopen keeps physical sequences, where the stream's own numbering
// restarts from its surviving records.
type oracleLog struct {
	*diskStore
	phys []uint64 // the acked records' physical sequences, in order
}

// seqOf numbers the record at physical sequence p; one never acked numbers
// past every record appended.
func (l oracleLog) seqOf(p uint64) uint64 {
	i, found := slices.BinarySearch(l.phys, p)
	if !found {
		return uint64(len(l.phys)) + 1
	}
	return uint64(i) + 1
}

// records returns the stream's retained records and the sequence of the
// last; with none, the count of acked records the physical log reaches.
func (l oracleLog) records() (last uint64, recs [][]byte, err error) {
	l.log.mu.RLock()
	err = l.log.scanLocked(l.log.truncBefore, func(seq, _ uint64, _ int64, rec []byte) error {
		id, body, err := splitStreamRecord(rec)
		if err == nil && id == 0 {
			last = l.seqOf(seq)
			recs = append(recs, bytes.Clone(body))
		}
		return err
	})
	l.log.mu.RUnlock()
	if err == nil && len(recs) == 0 {
		end, err := l.log.last()
		n, _ := slices.BinarySearch(l.phys, end+1)
		return uint64(n), nil, err
	}
	return last, recs, err
}

func (l oracleLog) LastSeq() (uint64, error) {
	last, _, err := l.records()
	return last, err
}

func (l oracleLog) Scan(from uint64) ([][]byte, error) {
	last, recs, err := l.records()
	first := last + 1 - uint64(len(recs))
	return recs[min(from-min(from, first), uint64(len(recs))):], err
}

// recoveredStore is what the verifier needs from a reopened shard: the full
// Backend contract plus its recovered commit point.
type recoveredStore interface {
	Backend
	CommittedEpoch() uint64
}

// verifyRecoveredState checks an already-reopened store against the oracle
// (the group sweep opens a whole DiskGroup and verifies each shard view).
func verifyRecoveredState(t *testing.T, r recoveredStore, o *sweepOracle, strict bool, tag string) {
	t.Helper()
	const numBuckets = 5

	c := r.CommittedEpoch()
	if strict && c != o.lastCommit && (c < o.lastCommit || c > o.commitIssued) {
		t.Fatalf("%s: recovered committed epoch %d, want %d (or an issued deferred commit up to %d)",
			tag, c, o.lastCommit, o.commitIssued)
	}
	want, ok := o.snaps[c]
	if !ok {
		t.Fatalf("%s: recovered to epoch %d, which was never acknowledged committed", tag, c)
	}
	// Recovery's revert: discard whatever uncommitted versions survived.
	if err := r.RollbackTo(c); err != nil {
		t.Fatalf("%s: rollback to %d: %v", tag, c, err)
	}
	for bucket := 0; bucket < numBuckets; bucket++ {
		got, err := r.ReadBucket(bucket)
		if err != nil {
			t.Fatalf("%s: ReadBucket(%d): %v", tag, bucket, err)
		}
		if !strict && o.segsDeleted {
			continue
		}
		if len(got) != len(want[bucket]) {
			t.Fatalf("%s: bucket %d has %d slots, want %d", tag, bucket, len(got), len(want[bucket]))
		}
		for s := range got {
			if !bytes.Equal(got[s], want[bucket][s]) {
				t.Fatalf("%s: bucket %d slot %d = %q, want %q", tag, bucket, s, got[s], want[bucket][s])
			}
		}
	}
	// Log: every record present must match the oracle at its sequence
	// number; with honest fsyncs the acked suffix must be fully present.
	last, err := r.LastSeq()
	if err != nil {
		t.Fatalf("%s: LastSeq: %v", tag, err)
	}
	if last > uint64(len(o.logRecs)) {
		t.Fatalf("%s: recovered %d log records but only %d were ever appended", tag, last, len(o.logRecs))
	}
	if strict && last < uint64(o.logAcked) {
		t.Fatalf("%s: recovered LastSeq %d, want at least %d (acked appends lost)", tag, last, o.logAcked)
	}
	recs, err := r.Scan(0)
	if err != nil {
		t.Fatalf("%s: Scan: %v", tag, err)
	}
	firstSeq := last - uint64(len(recs)) + 1
	if len(recs) == 0 {
		firstSeq = last + 1
	}
	if strict && len(recs) > 0 && firstSeq > o.truncAttempted {
		t.Fatalf("%s: log truncated to %d, beyond any requested truncation point (%d)", tag, firstSeq, o.truncAttempted)
	}
	for i, rec := range recs {
		seq := firstSeq + uint64(i)
		if !bytes.Equal(rec, o.logRecs[seq-1]) {
			t.Fatalf("%s: log record %d = %q, want %q", tag, seq, rec, o.logRecs[seq-1])
		}
	}
}

// countWorkloadOps dry-runs the workload to learn how many mutation points
// there are to crash at.
func countWorkloadOps(t *testing.T) int {
	plan := &faultPlan{mode: crashFailStop, crashAt: 1 << 30}
	fsys := newCrashFS(plan)
	b, err := openSweepStore(fsys, "data", sweepOpts)
	if err != nil {
		t.Fatal(err)
	}
	o := newSweepOracle(5)
	crashWorkload(b, o, "")
	b.Close()
	mustHoldBarriers(t, b.o, "fault-free")
	if o.lastCommit != 6 {
		t.Fatalf("fault-free workload committed through epoch %d, want 6", o.lastCommit)
	}
	// Sanity-check the harness against an uncrashed snapshot.
	verifyRecovered(t, fsys.snapshot(), "data", o, true, "fault-free")
	return plan.ops
}

// TestCrashPointSweep reopens the store after a crash injected at every
// mutation point, in each fault mode, and asserts recovery lands on the last
// durably committed epoch with all checksums intact.
func TestCrashPointSweep(t *testing.T) {
	total := countWorkloadOps(t)
	if total < 30 {
		t.Fatalf("workload only has %d mutation points; the sweep would prove little", total)
	}
	modes := []struct {
		name   string
		mode   int
		strict bool
	}{
		{"fail-stop", crashFailStop, true},
		{"torn-write", crashTorn, true},
		// Dropped fsyncs lose recency, never consistency: the store must
		// still open cleanly and land on *an* acknowledged commit.
		{"dropped-fsync", crashDropSync, false},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for k := 1; k <= total; k++ {
				plan := &faultPlan{mode: m.mode, crashAt: k}
				fsys := newCrashFS(plan)
				b, err := openSweepStore(fsys, "data", sweepOpts)
				o := newSweepOracle(5)
				if err == nil {
					crashWorkload(b, o, "")
					b.Close()
					mustHoldBarriers(t, b.o, fmt.Sprintf("crash point %d", k))
				} else if !errors.Is(err, errInjectedCrash) {
					t.Fatalf("crash point %d: open failed oddly: %v", k, err)
				}
				verifyRecovered(t, fsys.snapshot(), "data", o, m.strict, fmt.Sprintf("crash point %d", k))
			}
		})
	}
}

// ---- the group-commit sweep ----

const groupSweepShards = 3

// groupShardDir names shard i's data dir in the group sweep.
func groupShardDir(i int) string { return fmt.Sprintf("data/shard-%d", i) }

// runGroupCrashWorkload opens groupSweepShards one-shard groups in private
// directories of one crashFS, each with its own log's frontier, and drives
// the standard workload on every shard CONCURRENTLY — the groups' waves
// race on the one filesystem. Each shard mirrors its acked ops into its own
// oracle. A crash
// during a shard's open leaves that shard's oracle empty (epoch 0), which is
// exactly what its directory must recover to.
//
// Determinism: the sweep indexes crash points by a global op counter, so the
// total must not depend on goroutine interleaving. It doesn't: each shard's
// own op sequence is fixed, shards share no files, and each shard drives
// its own log serially, so its waves never coalesce with anything —
// interleaving changes *when* fsyncs happen, never how many. The three
// swept windows per barrier — record appended unsynced, pre-fsync,
// post-fsync-pre-ack — fall at consecutive global indices whatever the
// interleaving.
func runGroupCrashWorkload(t *testing.T, fsys *crashFS) []*sweepOracle {
	t.Helper()
	oracles := make([]*sweepOracle, groupSweepShards)
	backends := make([]*diskStore, groupSweepShards)
	for i := range oracles {
		oracles[i] = newSweepOracle(5)
		b, err := openSweepStore(fsys, groupShardDir(i), sweepOpts)
		if err != nil {
			if !errors.Is(err, errInjectedCrash) {
				t.Fatalf("group shard %d open failed oddly: %v", i, err)
			}
			continue
		}
		backends[i] = b
	}
	var wg sync.WaitGroup
	for i, b := range backends {
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(i int, b *diskStore) {
			defer wg.Done()
			crashWorkload(b, oracles[i], fmt.Sprintf("s%d-", i))
		}(i, b)
	}
	wg.Wait()
	for i, b := range backends {
		if b != nil {
			b.Close()
			mustHoldBarriers(t, b.o, fmt.Sprintf("shard %d", i))
		}
	}
	return oracles
}

// countGroupWorkloadOps dry-runs the concurrent group workload fault-free to
// learn the total mutation-point count, and sanity-checks that every shard's
// recovered directory matches its oracle.
func countGroupWorkloadOps(t *testing.T) int {
	plan := &faultPlan{mode: crashFailStop, crashAt: 1 << 30}
	fsys := newCrashFS(plan)
	oracles := runGroupCrashWorkload(t, fsys)
	snap := fsys.snapshot()
	for i, o := range oracles {
		if o.lastCommit != 6 {
			t.Fatalf("fault-free shard %d committed through epoch %d, want 6", i, o.lastCommit)
		}
		verifyRecovered(t, snap, groupShardDir(i), o, true, fmt.Sprintf("fault-free shard %d", i))
	}
	return plan.ops
}

// TestCrashPointSweepGroupCommit crashes the multi-shard group-commit
// pipeline at every mutation point in every fault mode and asserts each
// shard's recovery lands on a prefix-consistent set of that shard's acked
// commits: in strict modes exactly the last acked commit (nothing acked is
// lost, nothing unacked is invented), in dropped-fsync mode some acked
// commit (recency may be lost, consistency may not).
func TestCrashPointSweepGroupCommit(t *testing.T) {
	total := countGroupWorkloadOps(t)
	if total < 3*30 {
		t.Fatalf("group workload only has %d mutation points; the sweep would prove little", total)
	}
	t.Logf("%d mutation points per mode", total)
	modes := []struct {
		name   string
		mode   int
		strict bool
	}{
		{"fail-stop", crashFailStop, true},
		{"torn-write", crashTorn, true},
		{"dropped-fsync", crashDropSync, false},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for k := 1; k <= total; k++ {
				plan := &faultPlan{mode: m.mode, crashAt: k}
				fsys := newCrashFS(plan)
				oracles := runGroupCrashWorkload(t, fsys)
				snap := fsys.snapshot()
				for i, o := range oracles {
					verifyRecovered(t, snap, groupShardDir(i), o, m.strict,
						fmt.Sprintf("crash point %d shard %d", k, i))
				}
			}
		})
	}
}

// segOpenFailFS fails OpenFile for one specific file name with a transient
// (non-structural) error.
type segOpenFailFS struct {
	vfs
	failName string
}

func (f segOpenFailFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	if path.Base(path.Clean(name)) == f.failName {
		return nil, errors.New("transient EIO")
	}
	return f.vfs.OpenFile(name, flag, perm)
}

// buildSegmentedStore creates a log with several segments on a clean
// in-memory fs and returns the fs and the acked records.
func buildSegmentedStore(t *testing.T) (*crashFS, []string) {
	t.Helper()
	fsys := newCrashFS(nil)
	l := openTestLog(t, fsys, "data", diskOpts{segMaxBytes: 128})
	var recs []string
	for i := 0; i < 12; i++ {
		rec := fmt.Sprintf("record-%02d-%032d", i, i)
		logAppend(t, l, rec)
		recs = append(recs, rec)
	}
	if len(l.segs) < 3 {
		t.Fatalf("want several segments, got %d", len(l.segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys, recs
}

// TestOpenLogTransientErrorDoesNotDeleteSegments pins the recovery tool's
// first duty: a transient I/O error while opening a segment must fail the
// open loudly, not silently delete acknowledged log records as "orphans".
func TestOpenLogTransientErrorDoesNotDeleteSegments(t *testing.T) {
	fsys, recs := buildSegmentedStore(t)
	var segNames []string
	names, _ := fsys.List("data")
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segNames = append(segNames, n)
		}
	}
	sort.Strings(segNames)
	if _, err := openLogAt(segOpenFailFS{vfs: fsys, failName: segNames[0]}, "data", diskOpts{}); err == nil {
		t.Fatal("open succeeded despite a transient segment open failure")
	}
	// Every segment must still be on disk, and a clean reopen sees all data.
	after, _ := fsys.List("data")
	for _, want := range segNames {
		if !slices.Contains(after, want) {
			t.Fatalf("segment %s was deleted on a transient open error", want)
		}
	}
	r := openTestLog(t, fsys, "data", diskOpts{})
	defer r.Close()
	if got := logRecords(t, r, 0); !slices.Equal(got, recs) {
		t.Fatalf("records lost after transient error: got %d of %d", len(got), len(recs))
	}
}

// TestOpenLogStructuralDamageDropsOrphanSuffix: a structurally damaged
// middle segment makes everything after it an orphaned suffix; recovery
// keeps the intact prefix and opens cleanly.
func TestOpenLogStructuralDamageDropsOrphanSuffix(t *testing.T) {
	fsys, recs := buildSegmentedStore(t)
	var bases []uint64
	names, _ := fsys.List("data")
	for _, n := range names {
		if base, ok := parseSegName(n); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	// Zero the second segment's header: structural damage, not a torn tail.
	f, err := fsys.OpenFile(joinPath("data", segName(bases[1])), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, fileHeaderSize), 0); err != nil {
		t.Fatal(err)
	}
	r, err := openLogAt(fsys, "data", diskOpts{})
	if err != nil {
		t.Fatalf("open failed on a droppable orphan suffix: %v", err)
	}
	defer r.Close()
	got := logRecords(t, r, 0)
	if kept := int(bases[1] - bases[0]); !slices.Equal(got, recs[:kept]) {
		t.Fatalf("kept %q, want the intact prefix of %d records", got, kept)
	}
}

// TestCrashFSModelsDurability pins the harness's own semantics: volatile
// writes vanish, synced writes survive, torn writes persist a prefix.
func TestCrashFSModelsDurability(t *testing.T) {
	fsys := newCrashFS(nil)
	f, err := fsys.OpenFile("data/x", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("synced"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("volatile"), 6); err != nil {
		t.Fatal(err)
	}
	snap := fsys.snapshot()
	sf, err := snap.OpenFile("data/x", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := sf.Size()
	if size != 6 {
		t.Fatalf("unsynced write survived the crash: %d bytes durable", size)
	}

	// Torn write: the write at the crash point persists its first half even
	// though the process sees an error. Ops: create=1, write=2, sync=3,
	// write=4 (crashes, torn).
	plan := &faultPlan{mode: crashTorn, crashAt: 4}
	fsys = newCrashFS(plan)
	f, err = fsys.OpenFile("data/y", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("AAAA"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("BBBB"), 4); err == nil {
		t.Fatal("write at the crash point succeeded")
	}
	snap = fsys.snapshot()
	sf, err = snap.OpenFile("data/y", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ = sf.Size()
	got, err := sf.Map(size)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAABB" {
		t.Fatalf("torn write durable state = %q, want synced prefix plus half the torn write", got)
	}

}
