package storage_test

import (
	"fmt"
	"sync"
	"testing"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// This file extends the crash-point sweep (disk_crash_test.go) upwards: the
// log truncation is crashed not as a bare backend call but where the proxy
// issues it — at the head of an epoch's commit stage, through the shared
// log's per-stream floor, into the owner's meta file — on a 2-shard logheap
// group, followed between epochs by the maintenance pass that truncation
// unlocks: the heaps copy their live bucket versions out of the segments now
// below the WAL floor, raise their floors behind a barrier, and only then are
// the segment files removed. Every crash lands some number of filesystem
// mutations into one particular Truncate call (meta temp file created,
// written, synced, renamed, directory synced) or one particular maintenance
// pass (copies, barriers, segments removed one by one).
// The two shards' commit stages run concurrently, so the harness arms the
// fault from inside the call instead of trusting a global operation index.
//
// The sweep runs the fail-stop and torn-write modes. It leaves out the
// dropped-fsync mode the backend sweeps also run: truncation and segment GC
// delete superseded data on the strength of an fsync of what supersedes it,
// so a disk that lies about fsync loses the only copy by construction — no
// ordering of the delete can help, and there is nothing to assert.

const (
	truncSweepShards  = 2
	truncSweepEpochs  = 9
	truncSweepCadence = 2
	// truncSweepDepth is how many mutations into a Truncate call the sweep
	// reaches: past the five of the meta update.
	truncSweepDepth = 7
)

func truncSweepConfig() core.Config {
	return core.Config{
		Params:              ringoram.Params{NumBlocks: 32, Z: 4, S: 6, A: 4, KeySize: 16, ValueSize: 24, Seed: 9},
		Key:                 cryptoutil.KeyFromSeed([]byte("truncate-sweep")),
		ReadBatches:         1,
		ReadBatchSize:       4,
		WriteBatchSize:      4,
		FullCheckpointEvery: truncSweepCadence,
	}
}

// truncSpy wraps one shard of the group, keeping the capabilities the proxy
// probes for, and arms the crash inside the chosen Truncate call.
type truncSpy struct {
	storage.Backend
	storage.LogBatcher
	storage.EpochCommitBatcher
	sweep *truncSweep
}

func (s truncSpy) Truncate(before uint64) error {
	s.sweep.enter(inTruncate)
	return s.Backend.Truncate(before)
}

// The two kinds of call a crash can be armed in.
const (
	inTruncate = iota
	inMaintain
)

// truncSweep is one run's crash schedule: fire depth mutations into the
// call-th call of the given kind (Truncate calls counted across shards), or
// never when call is 0.
type truncSweep struct {
	fsys  *storage.CrashFS
	kind  int
	call  int
	depth int

	mu   sync.Mutex // the shards' commit stages call in concurrently
	seen [2]int
}

func (w *truncSweep) enter(kind int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seen[kind]++
	if kind == w.kind && w.seen[kind] == w.call {
		w.fsys.ArmAfter(w.depth)
	}
}

// runTruncSweepWorkload drives the proxy for truncSweepEpochs epochs, one
// commit each, with a GC pass between epochs. It returns what was
// acknowledged, every value ever written per key, how many segment files
// maintenance deleted and how many mutations each maintenance pass made (the
// Truncate call count is in w.seen). A crash wedges the group and ends the
// run early.
func runTruncSweepWorkload(t *testing.T, w *truncSweep) (acked map[string]string, written map[string]map[string]bool, deleted int, passOps []int) {
	t.Helper()
	acked, written = map[string]string{}, map[string]map[string]bool{}
	cfg := truncSweepConfig()
	g, err := storage.OpenCrashLogHeapGroup(w.fsys, truncSweepShards, cfg.Params.Geometry().NumBuckets, 2048)
	if err != nil {
		t.Fatalf("opening group: %v", err)
	}
	defer g.Close()
	backends, violation := g.CheckedBackends(w.fsys)
	defer func() {
		if err := violation(); err != nil {
			tag := "fault-free"
			if w.call > 0 {
				tag = fmt.Sprintf("%s %d, %d mutations in", [...]string{"Truncate call", "maintenance pass"}[w.kind], w.call, w.depth)
			}
			t.Fatalf("%s: %v", tag, err)
		}
	}()
	var stores []storage.Backend
	for _, b := range backends {
		stores = append(stores, truncSpy{Backend: b, LogBatcher: b.(storage.LogBatcher), EpochCommitBatcher: b.(storage.EpochCommitBatcher), sweep: w})
	}
	p, err := core.NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("starting proxy: %v", err)
	}
	defer p.Close()
	for e := 1; e <= truncSweepEpochs; e++ {
		key, val := fmt.Sprintf("k%d", e%5), fmt.Sprintf("e%d", e)
		tx := p.Begin()
		if err := tx.Write(key, []byte(val)); err != nil {
			break
		}
		if written[key] == nil {
			written[key] = map[string]bool{}
		}
		written[key][val] = true
		ack := tx.CommitAsync()
		if err := p.EndEpoch(); err != nil {
			break
		}
		if err := <-ack; err != nil {
			break
		}
		acked[key] = val
		// The truncation behind the ack lands before maintenance starts, so
		// each crash point falls in one call, not in two interleaved ones.
		if err := p.WaitCommitted(); err != nil {
			break
		}
		segs, ops := g.SegmentCount(), w.fsys.Ops()
		w.enter(inMaintain)
		g.MaintainOnce()
		deleted += segs - g.SegmentCount()
		passOps = append(passOps, w.fsys.Ops()-ops)
	}
	return acked, written, deleted, passOps
}

// verifyTruncSweepRecovery reopens the durable image, recovers a proxy from
// it and checks the recovered state: every acknowledged write reads back (or
// a later write of the same key whose acknowledgement the crash cut off),
// and no key holds a value never written to it. The new proxy must then run
// on, across another truncation.
func verifyTruncSweepRecovery(t *testing.T, image *storage.CrashFS, acked map[string]string, written map[string]map[string]bool, tag string) {
	t.Helper()
	cfg := truncSweepConfig()
	g, err := storage.OpenCrashLogHeapGroup(image, truncSweepShards, cfg.Params.Geometry().NumBuckets, 2048)
	if err != nil {
		t.Fatalf("%s: reopening group: %v", tag, err)
	}
	defer g.Close()
	backends, violation := g.CheckedBackends(image)
	defer func() {
		if err := violation(); err != nil {
			t.Fatalf("%s: after recovery: %v", tag, err)
		}
	}()
	p, err := core.NewSharded(backends, cfg)
	if err != nil {
		t.Fatalf("%s: recovery: %v", tag, err)
	}
	defer p.Close()
	for key, vals := range written {
		tx := p.Begin()
		f := tx.ReadAsync(key)
		if err := p.StepReadBatch(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		v, found, err := f.Value()
		tx.Abort()
		if err != nil {
			t.Fatalf("%s: reading %s: %v", tag, key, err)
		}
		if err := p.EndEpoch(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if want, isAcked := acked[key]; isAcked && !found {
			t.Fatalf("%s: %s lost, acknowledged %q", tag, key, want)
		}
		if found && !vals[string(v)] {
			t.Fatalf("%s: %s = %q, a value never written", tag, key, v)
		}
		if want := acked[key]; found && string(v) != want && laterThan(want, string(v)) {
			t.Fatalf("%s: %s = %q, older than the acknowledged %q", tag, key, v, want)
		}
	}
	for e := 0; e < 2*truncSweepCadence+1; e++ {
		tx := p.Begin()
		if err := tx.Write("after", []byte{byte(e)}); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		ack := tx.CommitAsync()
		if err := p.EndEpoch(); err != nil {
			t.Fatalf("%s: epoch after recovery: %v", tag, err)
		}
		if err := <-ack; err != nil {
			t.Fatalf("%s: commit after recovery: %v", tag, err)
		}
	}
	if cuts := p.Stats().Logs[0].Truncations; cuts == 0 {
		t.Fatalf("%s: the recovered proxy never truncated again", tag)
	}
}

// laterThan reports whether value a was written in a later epoch than b
// (values are "e<epoch>"; "" sorts first).
func laterThan(a, b string) bool {
	var ea, eb int
	fmt.Sscanf(a, "e%d", &ea)
	fmt.Sscanf(b, "e%d", &eb)
	return ea > eb
}

// TestCrashPointSweepTruncateUnderProxy crashes every Truncate call the
// proxy makes and every maintenance pass behind it, at every depth, in both
// fault modes.
func TestCrashPointSweepTruncateUnderProxy(t *testing.T) {
	dry := &truncSweep{fsys: storage.NewCrashFS(storage.NewCrashPlan(storage.CrashFailStop))}
	acked, written, deleted, passOps := runTruncSweepWorkload(t, dry)
	if len(acked) == 0 || dry.seen[inTruncate] < truncSweepShards*3 || deleted < 10 {
		t.Fatalf("fault-free run acknowledged %d keys over %d Truncate calls, deleting %d segments; the sweep would prove little",
			len(acked), dry.seen[inTruncate], deleted)
	}
	verifyTruncSweepRecovery(t, dry.fsys.Snapshot(), acked, written, "fault-free")

	modes := []struct {
		name string
		mode int
	}{
		{"fail-stop", storage.CrashFailStop},
		{"torn-write", storage.CrashTorn},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			crashed, points := 0, 0
			for kind, name := range []string{"Truncate call", "maintenance pass"} {
				for call := 1; call <= dry.seen[kind]; call++ {
					depths := truncSweepDepth
					if kind == inMaintain {
						depths = passOps[call-1] + 1
					}
					for depth := 1; depth <= depths; depth++ {
						points++
						w := &truncSweep{fsys: storage.NewCrashFS(storage.NewCrashPlan(m.mode)), kind: kind, call: call, depth: depth}
						acked, written, _, _ := runTruncSweepWorkload(t, w)
						if len(acked) < truncSweepEpochs/2 || w.seen[inMaintain] < truncSweepEpochs {
							crashed++
						}
						verifyTruncSweepRecovery(t, w.fsys.Snapshot(), acked, written,
							fmt.Sprintf("%s %d, %d mutations in", name, call, depth))
					}
				}
			}
			t.Logf("%d crash points, %d runs cut short", points, crashed)
			if crashed == 0 {
				t.Fatal("no run was cut short: the crashes never fired")
			}
		})
	}
}
