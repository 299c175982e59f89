package storage

import (
	"errors"
	"fmt"
	"testing"
)

// The unified-log sweep: crashes a logheap-mode DiskGroup — bucket version
// records, epoch commit/rollback records, and every shard's WAL stream all
// riding ONE physical segmented log — at every mutation point in every fault
// mode. On top of the shared-log sweep's surface (deferred rounds closed by
// one SyncLog) this covers what only logheap mode has: deferred bucket
// writes made durable by the round's single barrier, unified epoch commits
// (CommitEpochNoSync + SyncLog, the proxy's single-barrier boundary), the
// atomically-replaced index checkpoint, and segment GC's copy-forward pass —
// with crash points landing mid-checkpoint-replace and mid-evacuation.
//
// The workload is strictly serial, so the global mutation-op counter indexes
// crash points deterministically; the group opens with maintenance off and
// drives Checkpoint / EvacuateSegment explicitly for the same reason.
//
// Like the shared-log sweep, the workload never truncates the WAL (stream
// floors are not persisted, so a reopen would renumber streams and
// desynchronize the oracle's seq-indexed log check). One consequence is that
// dropDeadSegments never finds a removable segment here — the WAL floor
// pins them all — so the swept GC surface is the copy-forward pass and its
// checkpoint, which is also the only part of GC that mutates heap state;
// the drop itself is a journaled remove of bytes nothing references.

const logHeapSweepShards = 2

// openLogHeapSweepGroup opens the group the sweep drives: logheap mode,
// serial recovery, background maintenance off.
func openLogHeapSweepGroup(fsys *crashFS) (*DiskGroup, error) {
	return openDiskGroupOpts(fsys, "data", logHeapSweepShards, 5, diskOpts{workers: 1, logHeap: true})
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
	for _, b := range g.shards {
		shrinkDiskKnobs(b) // tiny segments: the one physical log rotates constantly
	}
	logHeapWorkload(g, oracles)
	return oracles
}

// logHeapWorkload drives epochs of the proxy's logheap boundary: deferred
// bucket writes and same-epoch rewrites per shard, a deferred WAL round,
// then the unified commit — every shard's CommitEpochNoSync followed by ONE
// SyncLog that makes the whole epoch durable. Epoch 3 aborts and is
// reverted by index rollback; checkpoints and a GC evacuation run at fixed
// epochs so their crash windows sit at deterministic sweep indices. It
// stops at the first error (the injected crash wedges the group).
func logHeapWorkload(g *DiskGroup, oracles []*sweepOracle) {
	const numBuckets = 5
	views := g.views
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
		if e%2 == 0 {
			i := int(e) % n
			k, val := fmt.Sprintf("g%d-key%d", i, e), fmt.Sprintf("g%d-val%d", i, e)
			if views[i].Put(k, []byte(val)) != nil {
				return
			}
			oracles[i].kv[k] = val
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
			// Checkpoint over the rolled-back garbage: the snapshot must
			// reflect the reverted index, and replay above its watermark
			// must not resurrect epoch 3.
			if g.heaps[0].Checkpoint() != nil {
				return
			}
			continue
		}
		// The unified commit: one record per shard, all deferred, one
		// barrier for the round — bucket versions, WAL records and commit
		// records become durable together, in stream order. The commit
		// mirrors into the oracle at issue (a rotation's seal fsync may
		// persist it before the barrier); the ack waits for SyncLog.
		for i := range views {
			if (logHeapShard{views[i]}).CommitEpochNoSync(e) != nil {
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
			// Checkpoint every shard with committed and superseded versions
			// in the index: the atomic replace (write tmp, fsync, rename,
			// dir sync) is swept window by window.
			for _, lh := range g.heaps {
				if lh.Checkpoint() != nil {
					return
				}
			}
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
			// checkpoint makes the relocation durable. Crash points land
			// between any two of those steps.
			if segs := g.shards[0].segs; len(segs) > 1 {
				base := segs[0].base
				for _, lh := range g.heaps {
					if _, err := lh.EvacuateSegment(base); err != nil {
						return
					}
				}
				for _, lh := range g.heaps {
					if lh.Checkpoint() != nil {
						return
					}
				}
				g.shards[0].dropDeadSegments()
			}
		}
	}
}

// verifyLogHeapRecovered reopens the whole group on the durable snapshot —
// checkpoint load, mixed WAL+bucket segment scan, index rebuild — and
// checks every shard view against its oracle.
func verifyLogHeapRecovered(t *testing.T, snap *crashFS, oracles []*sweepOracle, strict bool, tag string) {
	t.Helper()
	g, err := openLogHeapSweepGroup(snap)
	if err != nil {
		t.Fatalf("%s: recovered logheap group failed to open: %v", tag, err)
	}
	defer g.Close()
	for i, v := range g.views {
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
