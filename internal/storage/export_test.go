package storage

// Exports for the external test package (storage_test), which drives the
// crash harness from above — under a core.Proxy — and so cannot live in this
// package without an import cycle.

// Fault modes of the crash harness.
const (
	CrashFailStop = crashFailStop
	CrashTorn     = crashTorn
)

// CrashFS is the fault-injecting in-memory filesystem.
type CrashFS = crashFS

// CrashPlan decides when a CrashFS starts failing.
type CrashPlan = faultPlan

// NewCrashPlan returns a plan in the given mode that never fires until armed.
func NewCrashPlan(mode int) *CrashPlan { return &faultPlan{mode: mode, crashAt: 1 << 30} }

// ArmAfter makes the n-th mutation from now the first one the plan affects.
func (c *crashFS) ArmAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan.crashAt = c.plan.ops + n
}

// Ops reports how many mutations the filesystem has seen.
func (c *crashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan.ops
}

// NewCrashFS returns an empty filesystem governed by plan (nil: fault-free).
func NewCrashFS(plan *CrashPlan) *CrashFS { return newCrashFS(plan) }

// Snapshot is the durable state a machine would find after power loss, as a
// fresh fault-free filesystem.
func (c *crashFS) Snapshot() *CrashFS { return c.snapshot() }

// OpenCrashLogHeapGroup opens a logheap disk group on fsys the way the crash
// sweeps do: serial recovery, background maintenance off (MaintainOnce
// drives it), tiny segments so truncation has files to delete.
func OpenCrashLogHeapGroup(fsys *CrashFS, shards, numBuckets int, segMaxBytes int64) (*DiskGroup, error) {
	return openDiskGroupOpts(fsys, "data", shards, numBuckets, diskOpts{workers: 1, logHeap: true, segMaxBytes: segMaxBytes})
}

// MaintainOnce runs one logheap maintenance pass synchronously.
func (g *DiskGroup) MaintainOnce() { g.maintainOnce() }

// SegmentCount reports how many log segment files the group's physical log
// currently spans.
func (g *DiskGroup) SegmentCount() int {
	owner := g.shards[0]
	owner.logMu.RLock()
	defer owner.logMu.RUnlock()
	return len(owner.segs)
}
