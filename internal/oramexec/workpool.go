package oramexec

import "runtime"

// stageSlots bounds the stage goroutines RunStages keeps live at once across
// the whole process. A stage mixes seal/open CPU with blocking storage I/O,
// so the bound must stay well above the core count — shards blocked on a
// storage round trip cost no CPU, and overlapping them is where shard
// scaling comes from. Several slots per core with a floor caps goroutine
// churn on large shard counts without ever serializing I/O-bound shards.
// The channel doubles as the semaphore.
var stageSlots = make(chan struct{}, stagePoolSize())

func stagePoolSize() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	return n
}

// RunStages runs fn(0..n-1) concurrently on a bounded worker pool and waits
// for all of them. The proxy uses it for independent per-shard stages of one
// batch: each shard's executor is confined to its goroutine, so per-shard
// trace shape is identical to the scalar loop (pinned by
// TestExecutorParallelStagesMatchScalar).
//
// n == 1 runs fn(0) on the caller's goroutine: a single stage has nothing
// to overlap with, and neither the stepped driver nor the pipelined committer
// has a client goroutine a hand-off would yield to. fn must not call
// RunStages itself: nested calls could hold every slot while waiting for
// workers that need one (the proxy's fan-outs are flat).
func RunStages(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			stageSlots <- struct{}{}
			defer func() {
				<-stageSlots
				done <- struct{}{}
			}()
			fn(i)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
