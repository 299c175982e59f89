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
	return openDiskGroupOpts(fsys, "data", shards, numBuckets, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: segMaxBytes})
}

// MaintainOnce runs one logheap maintenance pass synchronously.
func (g *DiskGroup) MaintainOnce() { g.maintainOnce() }

// SegmentCount reports how many log segment files the group's physical log
// currently spans.
func (g *DiskGroup) SegmentCount() int {
	g.log.mu.RLock()
	defer g.log.mu.RUnlock()
	return len(g.log.segs)
}

// CheckedBackends returns the group's Backends with their durability calls
// checked at return by a barrier oracle over fsys (the crash sweeps' check:
// every record appended before a call that returned nil is durable), and
// the function that reports the first violation.
func (g *DiskGroup) CheckedBackends(fsys *CrashFS) ([]Backend, func() error) {
	o := &barrierOracle{fsys: fsys}
	out := make([]Backend, len(g.shards))
	for i, s := range checkShards(g, o) {
		out[i] = s
		if g.batchCommits {
			out[i] = checkedBatcher{s}
		}
	}
	return out, o.violation
}
