package storage

import (
	"errors"
	"fmt"
	"testing"
)

// The shared-log group sweep: crashes the REAL DiskGroup deployment shape —
// N shards, one data dir, recovery-log streams multiplexed into the group's
// one physical log, deferred appends closed by one SyncLog per round — at
// every mutation point in every fault mode. The private-dir group sweep
// (TestCrashPointSweepGroupCommit) covers the scheduler; this one covers
// what the scheduler coalesces ON: the shared physical log and the
// deferred-barrier rounds the proxy stands its epoch acks on.
//
// The workload is strictly serial (one goroutine drives all shards), so the
// global mutation-op counter indexes crash points deterministically.
//
// The workload deliberately never truncates: stream-level logical floors are
// not persisted (the WAL layer re-derives its position from epochs, not
// sequences), so a reopen renumbers each stream from its surviving records —
// sound for the WAL but it would desynchronize the oracle's seq-indexed
// content check. Truncation crash windows are swept by the one-shard sweep
// (which knows the physical sequence of each record, stable across a
// reopen) and exercised logically by the log-stream unit tests.

const sharedSweepShards = 2

// runSharedGroupCrashWorkload opens a DiskGroup on the fault-injecting fs
// and drives a deterministic serial workload across its shard views. Each
// shard's acked operations mirror into its own oracle; a crash during the
// group open leaves every oracle at epoch 0, which is what each shard
// directory must then recover to.
func runSharedGroupCrashWorkload(t *testing.T, fsys *crashFS) []*sweepOracle {
	t.Helper()
	oracles := make([]*sweepOracle, sharedSweepShards)
	for i := range oracles {
		oracles[i] = newSweepOracle(5)
	}
	// Tiny segments: the shared log rotates mid-round.
	g, err := openDiskGroupOpts(fsys, "data", sharedSweepShards, 5, sweepOpts)
	if err != nil {
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("shared group open failed oddly: %v", err)
		}
		return oracles
	}
	defer g.Close()
	o := &barrierOracle{fsys: fsys}
	sharedGroupWorkload(checkShards(g, o), oracles)
	mustHoldBarriers(t, o, "shared group")
	return oracles
}

// sharedGroupWorkload drives epochs of the proxy's barrier placement: bucket
// writes per shard, a deferred append round closed by ONE shard's SyncLog, a
// synced append interleaved on the same physical log, a mid-stream rollback,
// and per-shard commits. It stops at the first error (the injected
// crash wedges the group).
func sharedGroupWorkload(views []checkedShard, oracles []*sweepOracle) {
	const numBuckets = 5
	n := len(views)
	for e := uint64(1); e <= 4; e++ {
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
		}
		// The deferred round: every shard appends unsynced — records issued
		// but unacked — then one shard's SyncLog makes the whole round
		// durable and acks it for everyone.
		for i, v := range views {
			rec := []byte(fmt.Sprintf("g%d-wal-%d", i, e))
			if _, err := v.AppendNoSync(rec); err != nil {
				return
			}
			oracles[i].logRecs = append(oracles[i].logRecs, rec)
		}
		if views[int(e)%n].SyncLog() != nil {
			return
		}
		for _, o := range oracles {
			o.logAcked = len(o.logRecs)
		}
		// A plain synced append on the same physical log: the two paths must
		// interleave without disturbing each other's durability.
		for i, v := range views {
			rec := []byte(fmt.Sprintf("g%d-wal-%d-b", i, e))
			if _, err := v.Append(rec); err != nil {
				return
			}
			oracles[i].logRecs = append(oracles[i].logRecs, rec)
			oracles[i].logAcked = len(oracles[i].logRecs)
		}
		if e == 3 {
			// Epoch 3 aborts on every shard (the paper's §8 revert); its log
			// records stay — recovery filters by epoch, not by sequence.
			for i, v := range views {
				if v.RollbackTo(2) != nil {
					return
				}
				oracles[i].mem.RollbackTo(2)
			}
			continue
		}
		for i, v := range views {
			if v.CommitEpoch(e) != nil {
				return
			}
			oracles[i].mem.CommitEpoch(e)
			oracles[i].lastCommit = e
			oracles[i].snapshot(e)
		}
	}
}

// verifySharedGroupRecovered reopens the whole group on the durable snapshot
// — the log's stream demux included — and checks every shard view against its
// oracle.
func verifySharedGroupRecovered(t *testing.T, snap *crashFS, oracles []*sweepOracle, strict bool, tag string) {
	t.Helper()
	g, err := openDiskGroupOpts(snap, "data", sharedSweepShards, 5, diskOpts{workers: 1})
	if err != nil {
		t.Fatalf("%s: recovered group failed to open: %v", tag, err)
	}
	defer g.Close()
	for i, v := range g.shards {
		verifyRecoveredState(t, v, oracles[i], strict, fmt.Sprintf("%s shard %d", tag, i))
	}
}

// TestCrashPointSweepSharedLogGroup crashes a group whose shards share one
// physical log at every mutation point in every fault mode and asserts each
// shard recovers to a prefix-consistent acked commit.
func TestCrashPointSweepSharedLogGroup(t *testing.T) {
	crashSweep{
		run: func(t *testing.T, fsys *crashFS, _ string) []*sweepOracle {
			return runSharedGroupCrashWorkload(t, fsys)
		},
		verify: verifySharedGroupRecovered,
		epochs: 4,
		minOps: 40,
	}.sweep(t)
}
