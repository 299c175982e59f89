package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"obladi/internal/storage"
)

// TestFailoverConformance pins the proxy-failover contract: framing integrity
// (torn tails, corruption and hostile lengths detected, never half-read),
// lease semantics (heartbeats hold it, silence and a fail-stopped primary
// release it), promotion fencing (the zombie primary's next append fails
// loudly), zero acknowledged-commit loss across a handoff, and promotion as a
// restart: after a thousand epochs, across a dropped link or right after a
// truncation, it fences once per shard, scans a log bounded by public
// parameters and makes exactly a restart's storage calls.
func TestFailoverConformance(t *testing.T) {
	checks := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"framing/roundtrip", checkFramingRoundTrip},
		{"framing/torn-tail", checkFramingTornTail},
		{"framing/corruption", checkFramingCorruption},
		{"framing/hostile-length", checkFramingHostileLength},
		{"framing/hello", checkHelloValidation},
		{"lease/heartbeat-holds", checkLeaseHeartbeatHolds},
		{"lease/expires-on-silence", checkLeaseExpires},
		{"lease/fail-stop-releases", checkFailStopReleasesLease},
		{"promotion/fences-zombie", checkPromotionFencesZombie},
		{"handoff/zero-acked-loss-local", checkZeroAckedLoss},
		{"lifecycle/late-attach-after-truncation", checkLateAttachAfterTruncation},
		{"lifecycle/reconnect-across-truncation", checkReconnectAcrossTruncation},
		{"lifecycle/promote-right-after-truncation", checkPromoteRightAfterTruncation},
	}
	for _, c := range checks {
		t.Run(c.name, c.run)
	}
}

// --- framing ---

// linkFrames is one frame of each surviving kind, as the link carries them.
func linkFrames() []frame {
	return []frame{helloFrame(3), {kind: frameHeartbeat}}
}

func checkFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := append(linkFrames(), helloFrame(1<<16))
	for _, f := range want {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		g, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g.kind != w.kind || g.shard != w.shard || g.seq != w.seq || !bytes.Equal(g.rec, w.rec) {
			t.Fatalf("frame %d: got %+v want %+v", i, g, w)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("clean tail: got %v, want io.EOF", err)
	}
}

// checkFramingTornTail truncates a hello + heartbeat stream at every byte
// offset: a cut between frames must read as a clean io.EOF after the intact
// prefix, a cut inside a frame must surface ErrTornFrame — never a partial
// frame.
func checkFramingTornTail(t *testing.T) {
	var buf bytes.Buffer
	bounds := []int{0} // frame boundaries in the stream
	for _, f := range linkFrames() {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, buf.Len())
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		whole := 0 // frames fully contained before the cut
		for whole+1 < len(bounds) && bounds[whole+1] <= cut {
			whole++
		}
		for i := 0; i < whole; i++ {
			if _, err := readFrame(r); err != nil {
				t.Fatalf("cut %d: intact frame %d: %v", cut, i, err)
			}
		}
		_, err := readFrame(r)
		if cut == bounds[whole] { // cut exactly between frames
			if err != io.EOF {
				t.Fatalf("cut %d: got %v, want io.EOF", cut, err)
			}
		} else if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut %d: got %v, want ErrTornFrame", cut, err)
		}
	}
}

// checkFramingCorruption flips every byte of each kind's encoded frame in
// turn; each single-byte flip must be rejected (crc mismatch, implausible
// length, or a torn read from a garbled length prefix) — never decoded as
// valid.
func checkFramingCorruption(t *testing.T) {
	for _, f := range linkFrames() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			_, err := readFrame(bytes.NewReader(bad))
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTornFrame) {
				t.Fatalf("kind %d, flip at %d: got %v, want corrupt/torn", f.kind, i, err)
			}
		}
	}
}

// checkFramingHostileLength feeds a length prefix claiming a 64 MB body: it
// is refused before anything is sized by it. Both ends read whatever answers
// on the other side, so a claimed length must not buy an allocation.
func checkFramingHostileLength(t *testing.T) {
	hostile := binary.LittleEndian.AppendUint32(nil, 64<<20)
	hostile = append(hostile, bytes.Repeat([]byte{0xa5}, 64)...)
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := readFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("64 MB length prefix: got %v, want ErrCorruptFrame", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("refusing a 64 MB length prefix allocated %d B per read, want < 1 KB", per)
	}
}

func checkHelloValidation(t *testing.T) {
	if n, err := checkHello(helloFrame(4)); err != nil || n != 4 {
		t.Fatalf("good hello: %d, %v", n, err)
	}
	bads := []frame{
		{kind: frameHeartbeat, shard: 4, seq: frameVersion, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion - 1, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion, rec: []byte("NOPE")},
		{kind: frameHello, shard: 0, seq: frameVersion, rec: []byte(frameMagic)},
	}
	for i, f := range bads {
		if _, err := checkHello(f); !errors.Is(err, ErrBadHello) {
			t.Fatalf("bad hello %d: got %v, want ErrBadHello", i, err)
		}
	}
}

// --- lease ---

func checkLeaseHeartbeatHolds(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stores := []storage.Backend{storage.NewMemBackend(8)}
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: 250 * time.Millisecond, RedialEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if sb.PrimaryDown() {
			t.Fatal("lease expired while the primary was heartbeating")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sb.Connected() {
		t.Fatal("standby never attached")
	}
}

func checkLeaseExpires(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 1, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stores := []storage.Backend{storage.NewMemBackend(8)}
	sb, err := NewStandby(s.Addr(), stores, StandbyConfig{LeaseTimeout: 100 * time.Millisecond, RedialEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	waitAttached(t, sb)
	if sb.PrimaryDown() {
		t.Fatal("lease expired under live heartbeats")
	}
	s.Close() // primary dies: heartbeats stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := sb.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("failover detection took %v", waited)
	}
}

func waitAttached(t *testing.T, sb *Standby) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !sb.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
