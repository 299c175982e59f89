package storage

import (
	"fmt"
	"path/filepath"
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

// A fence handle is a MemBackend on the store it was acquired from and must
// hold the same contract: its Close closes that handle, after which every
// call through it refuses.
func TestBackendConformanceMemFenceHandle(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		h, _, err := NewMemBackend(ConformanceMinBuckets).AcquireFence()
		if err != nil {
			t.Fatal(err)
		}
		return h
	})
}

// openSecondDiskShard opens a two-shard group without DiskOptions.LogHeap in
// dir and returns shard 1: a shard whose directory holds only its index
// checkpoint, whose bucket versions and log stream ride shard-000's log, and
// which commits behind its own barriers.
func openSecondDiskShard(t *testing.T, dir string) Backend {
	g, err := OpenDiskGroupOpts(dir, 2, ConformanceMinBuckets, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g.Backends()[1]
}

func TestBackendConformanceDisk(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		return openSecondDiskShard(t, t.TempDir())
	})
}

// The disk shard must also pass the suite after a close/reopen cycle at the
// start, proving a recovered store honors the same contract.
func TestBackendConformanceDiskReopened(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		dir := t.TempDir()
		g, err := OpenDiskGroupOpts(dir, 2, ConformanceMinBuckets, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		return openSecondDiskShard(t, dir)
	})
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
		g, err := OpenDiskGroupOpts(t.TempDir(), 1, ConformanceMinBuckets, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()[0]
	})
}

// A shard whose epoch commits can ride the proxy's round barrier
// (DiskOptions.LogHeap) must be contract-indistinguishable from one that
// commits behind its own.
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
// store rebuilds its bucket index from a replay of the shared log's
// bucket-data streams.
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

// Group-commit conformance: N disk shards on one data dir, opened without
// DiskOptions.LogHeap, so each commits behind its own barrier.
func TestBackendConformanceGroupDisk(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		g, err := OpenDiskGroupOpts(t.TempDir(), n, ConformanceMinBuckets, DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g.Backends()
	})
}

// The same contract must hold for the composition the private-dir group
// crash sweep leans on: one-shard groups in directories of their own, each
// opened with one worker, each with its own log's frontier. A barrier has
// no window, so every barrier races the wave in flight.
func TestBackendConformanceGroupDiskZeroWindow(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		dir := t.TempDir()
		out := make([]Backend, n)
		for i := range out {
			g, err := openDiskGroupOpts(osFS{}, filepath.Join(dir, fmt.Sprintf("shard-%d", i)), 1, ConformanceMinBuckets, diskOpts{workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			out[i] = g.Backends()[0]
		}
		return out
	})
}

// Logheap group-commit conformance: every shard's bucket versions, epoch
// commits, and log stream ride ONE physical log. Epoch-order rejection,
// rollback after a partially installed write vector, and closed-shard
// isolation must hold exactly as they do with per-shard commit barriers.
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

// Mem shards behind latency wrappers, each paying its own barriers: the
// wrapper must not disturb the group contract the suite checks.
func TestBackendConformanceGroupMemLatency(t *testing.T) {
	RunGroupCommitConformance(t, 3, func(t *testing.T, n int) []Backend {
		out := make([]Backend, n)
		for i := range out {
			out[i] = WithLatency(NewMemBackend(ConformanceMinBuckets), Profile{Name: "conformance"})
		}
		return out
	})
}

// Remote clients over the shards of a logheap group — the deployment
// obladi-storage -shards N -data-dir serves. The wire layer must not disturb
// the group contract.
func TestBackendConformanceGroupRemoteDisk(t *testing.T) {
	RunGroupCommitConformance(t, 2, func(t *testing.T, n int) []Backend {
		g, err := OpenDiskGroupOpts(t.TempDir(), n, ConformanceMinBuckets, DiskOptions{LogHeap: true})
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

// The remote client over a one-shard logheap group is the deployment
// obladi-storage -data-dir serves; the composition must hold the contract
// too.
func TestBackendConformanceRemoteDisk(t *testing.T) {
	RunBackendConformance(t, func(t *testing.T) Backend {
		g, err := OpenDiskGroupOpts(t.TempDir(), 1, ConformanceMinBuckets, DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(g.Backends()[0], "127.0.0.1:0")
		if err != nil {
			g.Close()
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr())
		if err != nil {
			srv.Close()
			g.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			srv.Close()
			g.Close()
		})
		return c
	})
}

// A store keeps its own copy on disk too: after a reopen, a group answers the
// written bytes from its log, as it does before one, under either
// DiskOptions.LogHeap value.
func TestKeepsOwnCopySurvivesReopen(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		b, err := openLoneDisk(dir, ConformanceMinBuckets)
		if err != nil {
			t.Fatal(err)
		}
		ConformKeepsOwnCopy(t, b, func(old Backend) Backend {
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			if b, err = openLoneDisk(dir, ConformanceMinBuckets); err != nil {
				t.Fatal(err)
			}
			return b
		})
		b.Close()
	})
	t.Run("logheap", func(t *testing.T) {
		dir := t.TempDir()
		open := func() *DiskGroup {
			g, err := OpenDiskGroupOpts(dir, 1, ConformanceMinBuckets, DiskOptions{LogHeap: true})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g := open()
		ConformKeepsOwnCopy(t, g.Backends()[0], func(Backend) Backend {
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			g = open()
			return g.Backends()[0]
		})
		g.Close()
	})
}

// A bucket's slot count is per version on disk too: a group must answer the
// same after a close and reopen in the middle of the case, opened alone or
// as a one-shard group under either DiskOptions.LogHeap value.
func TestSlotCountPerVersionSurvivesReopen(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		open := func() Backend {
			b, err := openLoneDisk(dir, ConformanceMinBuckets)
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
