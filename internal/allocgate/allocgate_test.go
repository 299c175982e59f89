package allocgate

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fatalTB records a Fatalf instead of ending the test.
type fatalTB struct {
	testing.TB
	msg string
}

func (f *fatalTB) Helper() {}

func (f *fatalTB) Fatalf(format string, args ...any) { f.msg = fmt.Sprintf(format, args...) }

// TestSettleWaitsForOlderGoroutines: a goroutine running when the gate
// begins holds Settle until it exits, while one the test starts after Begin
// does not.
func TestSettleWaitsForOlderGoroutines(t *testing.T) {
	older, exited := make(chan struct{}), make(chan struct{})
	go func() {
		<-older
		time.Sleep(50 * time.Millisecond)
		close(exited)
	}()
	gate := Begin(t)
	own := make(chan struct{})
	defer close(own)
	go func() { <-own }()
	close(older)
	gate.Settle()
	select {
	case <-exited:
	default:
		t.Fatal("Settle returned while a goroutine older than the gate still ran")
	}
}

// TestSettleFailsWithStrayStacks: a goroutine older than the gate that never
// exits fails the test, and the failure shows its stack.
func TestSettleFailsWithStrayStacks(t *testing.T) {
	defer func(d time.Duration) { settleTimeout = d }(settleTimeout)
	settleTimeout = 50 * time.Millisecond
	stop := make(chan struct{})
	defer close(stop)
	go strayLoop(stop)
	time.Sleep(time.Millisecond) // let it reach its receive
	tb := &fatalTB{TB: t}
	Begin(tb).Settle()
	if !strings.Contains(tb.msg, "allocgate.strayLoop") {
		t.Fatalf("Settle over a stray goroutine reported %q, want its stack", tb.msg)
	}
}

func strayLoop(stop chan struct{}) { <-stop }

// TestOnePPinsUntilCleanup: a gate pinned by OneP counts on one P, and the
// process gets its Ps back when the gate's test ends.
func TestOnePPinsUntilCleanup(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	t.Run("gate", func(t *testing.T) {
		OneP(t)
		if n := runtime.GOMAXPROCS(0); n != 1 {
			t.Fatalf("GOMAXPROCS %d inside the gate, want 1", n)
		}
	})
	if n := runtime.GOMAXPROCS(0); n != before {
		t.Fatalf("GOMAXPROCS %d after the gate, want %d", n, before)
	}
}
