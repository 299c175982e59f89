// Package allocgate lets an allocation gate count only its own work. The
// gates read process-wide counters (runtime.MemStats, testing.AllocsPerRun),
// so a goroutine an earlier test of the binary left running — a server a
// failed test never shut down — allocates into the count and reads as a
// regression of the code under test. A gate records the goroutines running
// when it starts (Begin) and, before it counts, waits for every one of them
// but the testing framework's to exit (Settle). A gate that reads
// runtime.MemStats also pins the process to one P while it counts (OneP).
package allocgate

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// settleTimeout bounds the wait for an earlier test's goroutines to exit.
var settleTimeout = 5 * time.Second

// Gate is an allocation gate's baseline: the goroutines that ran before it.
type Gate struct {
	t      testing.TB
	before map[uint64]bool // by goroutine id
}

// Begin records the goroutines running as the test starts, before it starts
// any of its own.
func Begin(t testing.TB) *Gate {
	g := &Gate{t: t, before: make(map[uint64]bool)}
	for _, s := range stacks() {
		g.before[s.id] = true
	}
	return g
}

// Settle waits until no goroutine Begin saw runs any more, the testing
// framework's aside, so that only the test's own goroutines can allocate
// while it counts. It fails the test with the stacks of the goroutines still
// running after settleTimeout.
func (g *Gate) Settle() {
	g.t.Helper()
	deadline := time.Now().Add(settleTimeout)
	for {
		var stray []string
		for _, s := range stacks() {
			if g.before[s.id] && !framework(s.stack) {
				stray = append(stray, s.stack)
			}
		}
		if len(stray) == 0 {
			return
		}
		if time.Now().After(deadline) {
			g.t.Fatalf("%d goroutines older than the test still run after %v and would allocate into its count:\n\n%s",
				len(stray), settleTimeout, strings.Join(stray, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// OneP pins the process to one P until t ends, and yields once first, so
// that whatever is runnable — another test's teardown, the runtime's work
// after the last collection — runs to its end before the count starts. With
// one P no other goroutine runs while the gate's goroutine counts, and that
// goroutine cannot move to a P whose caches are cold: a runtime.MemStats
// count taken on several Ps can catch the runtime's own allocations after a
// collection on another P.
func OneP(t testing.TB) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	runtime.Gosched()
}

type goroutine struct {
	id    uint64
	stack string
}

// stacks lists every goroutine's stack from the goroutine profile in the
// format of a panic (debug level 2): one block a goroutine, blocks apart by
// a blank line, each headed "goroutine <id> [<state>]:".
func stacks() []goroutine {
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		panic(err)
	}
	var out []goroutine
	for _, block := range strings.Split(strings.TrimSpace(b.String()), "\n\n") {
		head, _, _ := strings.Cut(strings.TrimPrefix(block, "goroutine "), " ")
		id, err := strconv.ParseUint(head, 10, 64)
		if err != nil {
			panic("allocgate: goroutine profile block without an id: " + block)
		}
		out = append(out, goroutine{id, block})
	}
	return out
}

// framework reports whether a stack is the testing framework's or the
// runtime's: the binary's main goroutine and every running test's (tRunner's,
// a parent test waiting in Run included), and os/signal's loop, which lives
// as long as the process once a package asks for signals.
func framework(stack string) bool {
	for _, f := range []string{"\ntesting.tRunner(", "\ntesting.(*M).Run(", "\nos/signal.signal_recv(", "\nos/signal.loop("} {
		if strings.Contains(stack, f) {
			return true
		}
	}
	return false
}
