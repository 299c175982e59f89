package storage

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyInjectsDelay(t *testing.T) {
	inner := NewMemBackend(1)
	must(t, inner.WriteBucket(0, 1, slots("x")))
	prof := Profile{Name: "slow", Read: 5 * time.Millisecond, Write: 5 * time.Millisecond}
	l := WithLatency(inner, prof)
	start := time.Now()
	if _, err := l.ReadSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("read returned after %v, want >= ~5ms", d)
	}
}

func TestLatencyOpsOverlap(t *testing.T) {
	inner := NewMemBackend(8)
	for b := 0; b < 8; b++ {
		must(t, inner.WriteBucket(b, 1, slots("x")))
	}
	l := WithLatency(inner, Profile{Name: "p", Read: 10 * time.Millisecond})
	start := time.Now()
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			l.ReadSlot(b, 0)
		}(b)
	}
	wg.Wait()
	// 8 concurrent 10ms reads should take ~10ms, not 80ms.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("8 parallel reads took %v; latency wrapper serializes", d)
	}
}

func TestLatencyConcurrencyCap(t *testing.T) {
	inner := NewMemBackend(8)
	for b := 0; b < 8; b++ {
		must(t, inner.WriteBucket(b, 1, slots("x")))
	}
	l := WithLatency(inner, Profile{Name: "capped", Read: 10 * time.Millisecond, MaxConcurrent: 2})
	start := time.Now()
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			l.ReadSlot(b, 0)
		}(b)
	}
	wg.Wait()
	// 8 reads at concurrency 2 need 4 waves of ~10ms.
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("8 capped reads finished in %v; cap not enforced", d)
	}
}

func TestProfileScaled(t *testing.T) {
	p := ProfileServerWAN.Scaled(0.1)
	if p.Read != time.Millisecond || p.Write != time.Millisecond {
		t.Fatalf("scaled profile: %v/%v", p.Read, p.Write)
	}
	if p.Name != ProfileServerWAN.Name {
		t.Fatal("scaling changed the profile name")
	}
	if ProfileServerWAN.Read != 10*time.Millisecond {
		t.Fatal("Scaled mutated the original profile")
	}
}

func TestProfilesOrder(t *testing.T) {
	ps := Profiles()
	want := []string{"dummy", "server", "server WAN", "dynamo"}
	if len(ps) != len(want) {
		t.Fatalf("Profiles() = %d entries", len(ps))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("profile %d = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestLatencyPassthrough(t *testing.T) {
	inner := NewMemBackend(1)
	l := WithLatency(inner, ProfileDummy)
	seq, err := l.Append([]byte("r"))
	if err != nil || seq != 1 {
		t.Fatalf("Append through wrapper: %d %v", seq, err)
	}
	must(t, l.WriteBucket(0, 1, slots("s")))
	must(t, l.CommitEpoch(1))
	must(t, l.RollbackTo(1))
	n, err := l.NumBuckets()
	if err != nil || n != 1 {
		t.Fatalf("NumBuckets: %d %v", n, err)
	}
}
