package storage

import (
	"testing"
)

// The conformance suite runs against every Backend implementation in the
// package, replacing the ad-hoc per-backend coverage that let contract edges
// drift apart.

func TestBackendConformanceMem(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		return NewMemBackend(ConformanceMinBuckets)
	})
}

func TestBackendConformanceDisk(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		b, err := OpenDiskBackend(t.TempDir(), ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	})
}

// The disk backend must also pass the suite after a close/reopen cycle at
// the start, proving a recovered store honors the same contract.
func TestBackendConformanceDiskReopened(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		dir := t.TempDir()
		b, err := OpenDiskBackend(dir, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b, err = OpenDiskBackend(dir, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	})
}

func TestBackendConformanceDummy(t *testing.T) {
	RunBackendConformanceOpts(t, func(t *testing.T) Backend {
		return NewDummyBackend(ConformanceMinBuckets, 64)
	}, ConformanceOptions{BucketDataDiscarded: true})
}

func TestBackendConformanceLatency(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		return WithLatency(NewMemBackend(ConformanceMinBuckets), Profile{Name: "conformance"})
	})
}

func TestBackendConformanceRemote(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		inner := NewMemBackend(ConformanceMinBuckets)
		srv, err := NewServer(inner, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		return c
	})
}

// A shard routing its barriers through a commit group must be contract-
// indistinguishable from one issuing its own fsyncs — the whole single-shard
// suite runs against a group-backed shard to prove it.
func TestBackendConformanceDiskGrouped(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		g, err := OpenDiskGroup(t.TempDir(), 1, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()[0]
	})
}

// A logheap shard — bucket versions as records on the shared physical log —
// must be contract-indistinguishable from the bucket-heap-file backends.
func TestBackendConformanceLogHeap(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		g, err := OpenDiskGroupOpts(t.TempDir(), 1, ConformanceMinBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()[0]
	})
}

// The logheap contract must also survive a close/reopen cycle: the reopened
// store rebuilds its bucket index from the index checkpoint plus a replay of
// the shared log's bucket-data streams.
func TestBackendConformanceLogHeapReopened(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		dir := t.TempDir()
		g, err := OpenDiskGroupOpts(dir, 1, ConformanceMinBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		g, err = OpenDiskGroupOpts(dir, 1, ConformanceMinBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()[0]
	})
}

// Group-commit conformance: N disk shards on one data dir sharing one
// CommitGroup scheduler.
func TestBackendConformanceGroupDisk(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		g, err := OpenDiskGroup(t.TempDir(), n, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()
	})
}

// The same contract must hold with a tight window (every barrier races the
// flusher) — the degenerate scheduling the crash sweep leans on.
func TestBackendConformanceGroupDiskZeroWindow(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		cg := NewCommitGroup(GroupConfig{Window: 0})
		g, err := OpenDiskGroupOpts(t.TempDir(), n, ConformanceMinBuckets, DiskOptions{Group: cg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()
	})
}

// Logheap group-commit conformance: every shard's bucket versions, epoch
// commits, and log stream ride ONE physical log. Epoch-order rejection,
// rollback after a partially installed write vector, and closed-shard
// isolation must hold exactly as they do with per-shard heap files.
func TestBackendConformanceGroupLogHeap(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		g, err := OpenDiskGroupOpts(t.TempDir(), n, ConformanceMinBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()
	})
}

// Mem shards sharing a LatencyGroup: the bench harness's "honest mem side"
// must satisfy the same group contract it is compared against.
func TestBackendConformanceGroupMemLatency(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		lg := NewLatencyGroup()
		out := make([]Backend, n)
		for i := range out {
			out[i] = WithLatencyGroup(NewMemBackend(ConformanceMinBuckets), Profile{Name: "conformance"}, lg)
		}
		return out
	})
}

// Remote clients over disk shards sharing one CommitGroup — the deployment
// obladi-storage -shards N -data-dir serves. The wire layer must not disturb
// the group contract.
func TestBackendConformanceGroupRemoteDisk(t *testing.T) {
	RunGroupCommitConformance(t, 2, func(t *testing.T, n int) []Backend {
		g, err := OpenDiskGroup(t.TempDir(), n, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		out := make([]Backend, n)
		// Serve the shared-log views, exactly as obladi-storage -shards
		// does: raw shard access would write unwrapped records into the
		// shared physical log.
		for i, shard := range g.Backends() {
			srv, err := NewServer(shard, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(srv.Addr())
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			t.Cleanup(func() {
				c.Close()
				srv.Close()
			})
			out[i] = c
		}
		return out
	})
}

// The remote client over a DiskBackend is the deployment obladi-storage
// -data-dir actually serves; the composition must hold the contract too.
func TestBackendConformanceRemoteDisk(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		inner, err := OpenDiskBackend(t.TempDir(), ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(inner, "127.0.0.1:0")
		if err != nil {
			inner.Close()
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		return c
	})
}

// A bucket's slot count is per version on disk too: every durable layout must
// answer the same after a close and reopen in the middle of the case.
func TestSlotCountPerVersionSurvivesReopen(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		open := func() Backend {
			b, err := OpenDiskBackend(dir, ConformanceMinBuckets)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		b := open()
		ConformSlotCountPerVersion(t, b, func(old Backend) Backend {
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			b = open()
			return b
		})
		b.Close()
	})
	for name, opts := range map[string]DiskOptions{"disk-group": {}, "logheap": {LogHeap: true}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *DiskGroup {
				g, err := OpenDiskGroupOpts(dir, 1, ConformanceMinBuckets, opts)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := open()
			ConformSlotCountPerVersion(t, g.Backends()[0], func(Backend) Backend {
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				g = open()
				return g.Backends()[0]
			})
			g.Close()
		})
	}
}
