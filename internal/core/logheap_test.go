package core

import (
	"fmt"
	"testing"

	"obladi/internal/storage"
)

// openLogHeapGroup opens (or reopens) a logheap-mode disk group sized for the
// test ORAM geometry.
func openLogHeapGroup(t *testing.T, dir string, shards int, cfg Config) *storage.DiskGroup {
	t.Helper()
	g, err := storage.OpenDiskGroupOpts(dir, shards, cfg.Params.Geometry().NumBuckets, storage.DiskOptions{LogHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLogHeapProxyUnifiedCommit drives the proxy end to end over a logheap
// DiskGroup: the stores must be detected as sharing one commit stream (the
// single-barrier boundary path), transactions must commit and read back, and
// a graceful restart must recover every committed epoch from the unified log.
func TestLogHeapProxyUnifiedCommit(t *testing.T) {
	cfg := testConfig(81)
	dir := t.TempDir()
	g := openLogHeapGroup(t, dir, 2, cfg)
	p, err := NewSharded(g.Backends(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.unified == nil {
		t.Fatal("logheap group shards not detected as a unified commit stream")
	}
	kv := map[string]string{}
	for s := 0; s < 2; s++ {
		for i, k := range keysForShard(s, 2, 3) {
			kv[k] = fmt.Sprintf("v%d-%d", s, i)
		}
	}
	commitKV(t, p, kv)
	var keys []string
	for k := range kv {
		keys = append(keys, k)
	}
	got := readAll(t, p, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := openLogHeapGroup(t, dir, 2, cfg)
	defer g2.Close()
	p2, err := NewSharded(g2.Backends(), cfg)
	if err != nil {
		t.Fatalf("reopening proxy over logheap group: %v", err)
	}
	defer p2.Close()
	got = readAll(t, p2, keys...)
	for k, v := range kv {
		if got[k] != v {
			t.Fatalf("after restart %s = %q, want %q", k, got[k], v)
		}
	}
}

// TestLogHeapProxyCrashDropsInFlight kills the proxy (storage survives, proxy
// metadata does not) with an epoch in flight: recovery over the unified log
// must preserve the committed prefix and discard the uncommitted epoch's heap
// versions via index rollback.
func TestLogHeapProxyCrashDropsInFlight(t *testing.T) {
	cfg := testConfig(82)
	dir := t.TempDir()
	g := openLogHeapGroup(t, dir, 2, cfg)
	p1, err := NewSharded(g.Backends(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stable := map[string]string{}
	for s := 0; s < 2; s++ {
		stable[keysForShard(s, 2, 1)[0]] = "committed"
	}
	commitKV(t, p1, stable)

	// In-flight epoch: reads logged and executed, a write buffered, then the
	// proxy disappears without sealing the epoch.
	doomed := keysForShard(0, 2, 2)[1]
	tx := p1.Begin()
	go func() {
		var keys []string
		for k := range stable {
			keys = append(keys, k)
		}
		tx.ReadMany(keys)
		tx.Write(doomed, []byte("doomed"))
		tx.Commit()
	}()
	waitQueued(t, p1, len(stable))
	must(t, p1.StepReadBatch())
	// Crash the proxy: no EndEpoch, no proxy Close. The group closes so the
	// reopen sees exactly what a restarted process would.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := openLogHeapGroup(t, dir, 2, cfg)
	defer g2.Close()
	p2, err := NewSharded(g2.Backends(), cfg)
	if err != nil {
		t.Fatalf("recovery over logheap group: %v", err)
	}
	defer p2.Close()
	if p2.Stats().RecoveryReplayed == 0 {
		t.Fatal("recovery replayed nothing despite logged batches")
	}
	var keys []string
	for k := range stable {
		keys = append(keys, k)
	}
	got := readAll(t, p2, append(keys, doomed)...)
	for k := range stable {
		if got[k] != "committed" {
			t.Fatalf("%s = %q after recovery", k, got[k])
		}
	}
	if _, leaked := got[doomed]; leaked {
		t.Fatal("in-flight write survived the crash")
	}
}
