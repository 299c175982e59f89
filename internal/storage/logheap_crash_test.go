package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The unified-log sweep: crashes a logheap-mode DiskGroup — bucket version
// records, epoch commit/rollback records, and every shard's WAL stream all
// riding ONE physical segmented log — at every mutation point in every fault
// mode. On top of the shared-log sweep's surface (deferred rounds closed by
// one SyncLog) this covers what only logheap mode has: deferred bucket
// writes made durable by the round's single barrier, unified epoch commits
// (CommitEpochNoSync + SyncLog, the proxy's single-barrier boundary), the
// maintenance pass's floor raises, and segment GC's copy-forward pass —
// with crash points landing mid-evacuation.
//
// The workload is strictly serial, so the global mutation-op counter indexes
// crash points deterministically; the group opens with maintenance off and
// drives maintainOnce / EvacuateSegment explicitly for the same reason.
//
// Like the shared-log sweep, the workload never truncates the WAL (stream
// floors are not persisted, so a reopen would renumber streams and
// desynchronize the oracle's seq-indexed log check). One consequence is that
// dropDeadSegments never finds a removable segment here — the WAL floor
// pins them all — so the swept GC surface here is the copy-forward pass and
// its barrier. TestCrashPointSweepLogHeapMaintenance sweeps a whole pass
// over a truncated log, drops included, against an index model.

const logHeapSweepShards = 2

// openLogHeapSweepGroup opens the group the sweep drives: logheap mode,
// serial recovery, background maintenance off, tiny segments so the one
// physical log rotates constantly.
func openLogHeapSweepGroup(fsys *crashFS) (*DiskGroup, error) {
	opts := sweepOpts
	opts.LogHeap = true
	return openDiskGroupOpts(fsys, "data", logHeapSweepShards, 5, opts)
}

// runLogHeapCrashWorkload opens a logheap DiskGroup on the fault-injecting
// fs and drives the deterministic serial workload. Acked operations mirror
// into per-shard oracles; a crash during the open leaves every oracle at
// epoch 0, which is what each shard must then recover to.
func runLogHeapCrashWorkload(t *testing.T, fsys *crashFS) []*sweepOracle {
	t.Helper()
	oracles := make([]*sweepOracle, logHeapSweepShards)
	for i := range oracles {
		oracles[i] = newSweepOracle(5)
	}
	g, err := openLogHeapSweepGroup(fsys)
	if err != nil {
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("logheap group open failed oddly: %v", err)
		}
		return oracles
	}
	defer g.Close()
	o := &barrierOracle{fsys: fsys}
	logHeapWorkload(g, checkShards(g, o), oracles)
	mustHoldBarriers(t, o, "logheap group")
	return oracles
}

// logHeapWorkload drives epochs of the proxy's logheap boundary: deferred
// bucket writes and same-epoch rewrites per shard, a deferred WAL round,
// then the unified commit — every shard's CommitEpochNoSync followed by ONE
// SyncLog that makes the whole epoch durable. Epoch 3 aborts and is
// reverted by index rollback; maintenance passes and a GC evacuation run at
// fixed epochs so their crash windows sit at deterministic sweep indices. It
// stops at the first error (the injected crash wedges the group).
func logHeapWorkload(g *DiskGroup, views []checkedShard, oracles []*sweepOracle) {
	const numBuckets = 5
	n := len(views)
	for e := uint64(1); e <= 6; e++ {
		for i, v := range views {
			var writes []BucketWrite
			for k := 0; k < 2; k++ {
				bucket := (int(e) + k) % numBuckets
				writes = append(writes, BucketWrite{Bucket: bucket, Epoch: e, Slots: [][]byte{
					[]byte(fmt.Sprintf("g%d-e%d-b%d-s0", i, e, bucket)),
					[]byte(fmt.Sprintf("g%d-e%d-b%d-s1", i, e, bucket)),
				}})
			}
			if v.WriteBuckets(writes) != nil {
				return
			}
			oracles[i].mem.WriteBuckets(writes)
			// Same-epoch rewrite (recovery replay does this): the newer
			// version record supersedes the older within the epoch.
			re := BucketWrite{Bucket: int(e) % numBuckets, Epoch: e,
				Slots: [][]byte{[]byte(fmt.Sprintf("g%d-e%d-rewrite", i, e)), []byte("s1")}}
			if v.WriteBucket(re.Bucket, re.Epoch, re.Slots) != nil {
				return
			}
			oracles[i].mem.WriteBucket(re.Bucket, re.Epoch, re.Slots)
		}
		// The deferred WAL round the commit wave will close.
		for i, v := range views {
			rec := []byte(fmt.Sprintf("g%d-wal-%d", i, e))
			if _, err := v.AppendNoSync(rec); err != nil {
				return
			}
			oracles[i].logRecs = append(oracles[i].logRecs, rec)
		}
		if e == 3 {
			// Epoch 3 aborts on every shard: shadow-paging revert by index
			// rollback; its version and WAL records stay in the log —
			// recovery filters by epoch, not by position.
			for i, v := range views {
				if v.RollbackTo(2) != nil {
					return
				}
				oracles[i].mem.RollbackTo(2)
			}
			// Maintenance over the rolled-back garbage: its floor raises
			// barrier the rollback records, and replay must not resurrect
			// epoch 3.
			g.maintainOnce()
			continue
		}
		// The unified commit: one record per shard, all deferred, one
		// barrier for the round — bucket versions, WAL records and commit
		// records become durable together, in stream order. The commit
		// mirrors into the oracle at issue (a rotation's seal fsync may
		// persist it before the barrier); the ack waits for SyncLog.
		for i := range views {
			if (checkedBatcher{views[i]}).CommitEpochNoSync(e) != nil {
				return
			}
			oracles[i].mem.CommitEpoch(e)
			oracles[i].snapshot(e)
			oracles[i].commitIssued = e
		}
		if views[int(e)%n].SyncLog() != nil {
			return
		}
		for _, o := range oracles {
			o.logAcked = len(o.logRecs)
			o.lastCommit = e
		}
		if e == 2 {
			// A maintenance pass with committed and superseded versions in
			// every index: its floor raises are swept window by window.
			g.maintainOnce()
		}
		if e == 4 {
			// An inline synced commit path also exists (bootstrap and the
			// hooked proxy use it): a plain synced append interleaved on
			// the same stream must not disturb the deferred rounds.
			for i, v := range views {
				rec := []byte(fmt.Sprintf("g%d-wal-%d-b", i, e))
				if _, err := v.Append(rec); err != nil {
					return
				}
				oracles[i].logRecs = append(oracles[i].logRecs, rec)
				oracles[i].logAcked = len(oracles[i].logRecs)
			}
		}
		if e == 5 {
			// Segment GC's copy-forward pass: evacuate the oldest sealed
			// segment on every heap. Each live version is re-appended as a
			// GC-copy record and its index entry flipped; the closing
			// maintenance pass's barriers make the relocation durable. Crash
			// points land between any two of those steps.
			if segs := g.log.segs; len(segs) > 1 {
				base := segs[0].base
				for _, lh := range g.shards {
					if _, err := lh.EvacuateSegment(base); err != nil {
						return
					}
				}
				g.maintainOnce()
			}
		}
	}
}

// verifyLogHeapRecovered reopens the whole group on the durable snapshot —
// mixed WAL+bucket segment scan, index rebuild — and checks every shard view
// against its oracle.

func verifyLogHeapRecovered(t *testing.T, snap *crashFS, oracles []*sweepOracle, strict bool, tag string) {
	t.Helper()
	g, err := openLogHeapSweepGroup(snap)
	if err != nil {
		t.Fatalf("%s: recovered logheap group failed to open: %v", tag, err)
	}
	defer g.Close()
	for i, v := range g.shards {
		verifyRecoveredState(t, v, oracles[i], strict, fmt.Sprintf("%s shard %d", tag, i))
	}
}

// countLogHeapWorkloadOps dry-runs the workload fault-free to learn the
// swept surface, sanity-checking the harness along the way.
func countLogHeapWorkloadOps(t *testing.T) int {
	plan := &faultPlan{mode: crashFailStop, crashAt: 1 << 30}
	fsys := newCrashFS(plan)
	oracles := runLogHeapCrashWorkload(t, fsys)
	for i, o := range oracles {
		if o.lastCommit != 6 {
			t.Fatalf("fault-free shard %d committed through epoch %d, want 6", i, o.lastCommit)
		}
	}
	verifyLogHeapRecovered(t, fsys.snapshot(), oracles, true, "fault-free")
	return plan.ops
}

// TestCrashPointSweepLogHeap crashes the unified-log pipeline at every
// mutation point in every fault mode and asserts each shard recovers to a
// prefix-consistent acked commit: in strict modes exactly the last acked
// one, in dropped-fsync mode some acked one (recency may be lost,
// consistency may not).
func TestCrashPointSweepLogHeap(t *testing.T) {
	total := countLogHeapWorkloadOps(t)
	if total < 60 {
		t.Fatalf("logheap workload only has %d mutation points; the sweep would prove little", total)
	}
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
				oracles := runLogHeapCrashWorkload(t, fsys)
				verifyLogHeapRecovered(t, fsys.snapshot(), oracles,
					m.strict, fmt.Sprintf("crash point %d", k))
			}
		})
	}
}

// ---- the maintenance sweep ----

// maintBuckets is the tree size of maintenanceWorkload's shards.
const maintBuckets = 5

// maintenanceWorkload drives a two-shard group on fsys, every call acked, to
// where a maintenance pass has work: a WAL truncation has left sealed
// segments wholly below the truncation point, and the live versions they
// hold keep them. Buckets 0 and 1 hold their epoch-1 versions there;
// bucket 1 also holds an uncommitted epoch-5 version, written after them,
// so the pass copies a committed version after a newer uncommitted one.
// Each shard's model is a MemBackend given the same calls.
func maintenanceWorkload(t *testing.T, fsys *crashFS) (*DiskGroup, []*MemBackend) {
	t.Helper()
	g, err := openLogHeapSweepGroup(fsys)
	must(t, err)
	models := []*MemBackend{NewMemBackend(maintBuckets), NewMemBackend(maintBuckets)}
	write := func(e uint64, buckets ...int) {
		for i, lh := range g.shards {
			var writes []BucketWrite
			for _, b := range buckets {
				writes = append(writes, BucketWrite{Bucket: b, Epoch: e, Slots: slots(fmt.Sprintf("s%d-e%d-b%d", i, e, b), "slot 1")})
			}
			must(t, lh.WriteBuckets(writes))
			must(t, models[i].WriteBuckets(writes))
		}
	}
	for e := uint64(1); e <= 4; e++ {
		if e == 1 {
			write(e, 0, 1, 2, 3, 4)
		} else {
			write(e, 2, 3, 2+int(e)%3)
		}
		for i, lh := range g.shards {
			must(t, lh.CommitEpoch(e))
			must(t, models[i].CommitEpoch(e))
			_, err := lh.Append([]byte(fmt.Sprintf("s%d-wal-%d", i, e)))
			must(t, err)
		}
	}
	write(5, 1)
	must(t, g.shards[0].SyncLog())
	for _, lh := range g.shards {
		last, err := lh.LastSeq()
		must(t, err)
		must(t, lh.Truncate(last))
	}
	if len(g.log.gcCandidates()) < 2 {
		t.Fatalf("truncation left %v to collect; the workload must leave several sealed segments", g.log.gcCandidates())
	}
	return g, models
}

// indexImage renders an index as text: its committed frontier, then every
// version of every bucket, oldest first, with its slots as read reads them.
func indexImage(ix *versionIndex, read func(v *version) [][]byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "committed %d\n", ix.committed)
	for bucket, vs := range ix.buckets {
		for i := range vs {
			fmt.Fprintf(&b, "bucket %d epoch %d: %q\n", bucket, vs[i].epoch, read(&vs[i]))
		}
	}
	return b.String()
}

// heapImage is lh's index, each version read out of the log.
func heapImage(lh *LogHeap) string {
	lh.mu.RLock()
	defer lh.mu.RUnlock()
	lh.log.mu.RLock()
	defer lh.log.mu.RUnlock()
	return indexImage(&lh.ix, func(v *version) [][]byte {
		span := make([]byte, v.layout.span(4))
		if err := lh.log.readAtLocked(span, v.seg, v.off+lh.ix.dataStart); err != nil {
			return [][]byte{[]byte(err.Error())}
		}
		return v.layout.split(span, 4)
	})
}

// memImage is m's index, each version read from its mirror.
func memImage(m *MemBackend) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return indexImage(&m.ix, func(v *version) [][]byte { return v.layout.split(v.mirror, 0) })
}

// checkAgainstModels reopens the group on fsys and requires every shard's
// index, version by version, equal to its model's.
func checkAgainstModels(t *testing.T, fsys *crashFS, models []*MemBackend, tag string) {
	t.Helper()
	g, err := openLogHeapSweepGroup(fsys)
	if err != nil {
		t.Fatalf("%s: reopen: %v", tag, err)
	}
	defer g.Close()
	for i, lh := range g.shards {
		if got, want := heapImage(lh), memImage(models[i]); got != want {
			t.Fatalf("%s: shard %d reopened to\n%swant\n%s", tag, i, got, want)
		}
	}
}

// TestCrashPointSweepLogHeapMaintenance crashes a maintenance pass over a
// truncated log at every file operation it makes — the GC copies'
// appends and any segment roll they cause, the floor raises' barriers
// (each floor is published only after its barrier) and the removes of the
// segments the raised floors free — and requires every reopened index
// equal to its model: no version lost, moved to the wrong place in its
// stack or resurrected, and the committed frontier intact. Dropped-fsync
// mode is left out: a drop on the strength of a lying fsync deletes the only
// durable copy by construction.
func TestCrashPointSweepLogHeapMaintenance(t *testing.T) {
	plan := &faultPlan{mode: crashFailStop, crashAt: 1 << 30}
	fsys := newCrashFS(plan)
	g, models := maintenanceWorkload(t, fsys)
	before, segs := plan.ops, g.SegmentCount()
	g.maintainOnce()
	total := plan.ops - before
	if after := g.SegmentCount(); after >= segs {
		t.Fatalf("the pass freed no segment (%d -> %d)", segs, after)
	}
	must(t, g.Close())
	checkAgainstModels(t, fsys.snapshot(), models, "fault-free")
	if total < 10 {
		t.Fatalf("the maintenance pass makes only %d file operations; the sweep would prove little", total)
	}
	for _, m := range []struct {
		name string
		mode int
	}{{"fail-stop", crashFailStop}, {"torn-write", crashTorn}} {
		t.Run(m.name, func(t *testing.T) {
			for k := 1; k <= total; k++ {
				plan := &faultPlan{mode: m.mode, crashAt: 1 << 30}
				fsys := newCrashFS(plan)
				g, models := maintenanceWorkload(t, fsys)
				plan.crashAt = plan.ops + k
				g.maintainOnce()
				g.Close()
				checkAgainstModels(t, fsys.snapshot(), models, fmt.Sprintf("crash at operation %d of %d", k, total))
			}
		})
	}
}
