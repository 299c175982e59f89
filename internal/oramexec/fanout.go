package oramexec

import "sync"

// Fanout runs one stage on each of n shards at once and returns when all n
// are done. The proxy uses it for the independent per-shard steps of one
// batch or boundary: each shard's executor runs its part of a stage on one
// goroutine, so per-shard trace shape is identical to the scalar loop
// (pinned by TestFanoutStagesMatchScalar).
//
// Shard i > 0 has a helper goroutine of its own that stays parked between
// calls, and the caller runs shard 0's part itself; with n == 1 a stage runs
// inline and there is no helper. A stage is named by a value of S, and
// run(s, i) does shard i's part of it: what a stage reads and writes lives
// where run can reach it, so a dispatch sends s on channels that already
// exist and allocates nothing.
//
// A Fanout is not reentrant: concurrent Run calls serialize, and run must not
// call Run on the same Fanout. Close stops the helpers.
type Fanout[S any] struct {
	mu     sync.Mutex
	run    func(s S, i int)
	starts []chan S // starts[i-1] wakes shard i's helper
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFanout starts the n-1 helpers of an n-shard fan-out over run.
func NewFanout[S any](n int, run func(s S, i int)) *Fanout[S] {
	f := &Fanout[S]{run: run}
	if n > 1 {
		f.starts = make([]chan S, n-1)
		f.done = make(chan struct{}, n-1)
		for i := range f.starts {
			f.starts[i] = make(chan S)
			f.wg.Add(1)
			go f.helper(i+1, f.starts[i])
		}
	}
	return f
}

func (f *Fanout[S]) helper(i int, start <-chan S) {
	defer f.wg.Done()
	for s := range start {
		f.run(s, i)
		f.done <- struct{}{}
	}
}

// Run runs stage s on every shard and waits for all of them. After Close it
// runs the shards one after another on the caller.
func (f *Fanout[S]) Run(s S) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		for i := 0; i <= len(f.starts); i++ {
			f.run(s, i)
		}
		return
	}
	for _, c := range f.starts {
		c <- s
	}
	f.run(s, 0)
	for range f.starts {
		<-f.done
	}
}

// Close waits for a Run in progress and stops the helpers. It is idempotent.
func (f *Fanout[S]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, c := range f.starts {
		close(c)
	}
	f.wg.Wait()
}
