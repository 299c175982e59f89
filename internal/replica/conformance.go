package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// RunFailoverConformance pins the proxy-failover contract: framing integrity
// (torn tails and corruption detected, never half-applied), lease semantics
// (heartbeats hold it, silence expires it), promotion fencing (the zombie
// primary's next append fails loudly), standby replay equivalence with cold
// recovery, zero acknowledged-commit loss across a handoff in both ack
// modes, and the log lifecycle: sender history and standby copies follow the
// primary's truncations, so a standby attaching late, reconnecting across a
// truncation or promoting right after one handles a bounded log, never the
// primary's uptime. It lives here so any future transport or protocol change
// re-proves the whole contract under -race with one call.
func RunFailoverConformance(t *testing.T) {
	checks := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"framing/roundtrip", checkFramingRoundTrip},
		{"framing/torn-tail", checkFramingTornTail},
		{"framing/corruption", checkFramingCorruption},
		{"framing/hello", checkHelloValidation},
		{"stream/dedup-by-seq", checkDedupBySeq},
		{"stream/resync-replays-history", checkResyncReplaysHistory},
		{"stream/resync-from-floor", checkResyncFromFloor},
		{"stream/memlog-follows-truncation", checkMemlogTruncation},
		{"lease/heartbeat-holds", checkLeaseHeartbeatHolds},
		{"lease/expires-on-silence", checkLeaseExpires},
		{"promotion/fences-zombie", checkPromotionFencesZombie},
		{"promotion/replay-equivalence", checkReplayEquivalence},
		{"handoff/zero-acked-loss-local", func(t *testing.T) { checkZeroAckedLoss(t, false) }},
		{"handoff/zero-acked-loss-replica-acked", func(t *testing.T) { checkZeroAckedLoss(t, true) }},
		{"lifecycle/late-attach-after-truncation", checkLateAttachAfterTruncation},
		{"lifecycle/reconnect-across-truncation", checkReconnectAcrossTruncation},
		{"lifecycle/promote-right-after-truncation", checkPromoteRightAfterTruncation},
	}
	for _, c := range checks {
		t.Run(c.name, c.run)
	}
}

// --- framing ---

func sampleFrames() []frame {
	big := bytes.Repeat([]byte{0xa5}, 4096)
	return []frame{
		helloFrame(3),
		{kind: frameRecord, shard: 2, seq: 7, rec: []byte("sealed-record")},
		{kind: frameRecord, shard: 0, seq: 1, rec: big},
		{kind: frameHeartbeat},
		{kind: frameSyncpoint, seq: 42},
		{kind: frameAck, seq: 41},
		{kind: frameFloor, shard: 1, seq: 97},
		{kind: frameTruncate, shard: 1, seq: 113},
	}
}

func checkFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleFrames()
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

// checkFramingTornTail truncates a two-frame stream at every byte offset: a
// cut between frames must read as a clean io.EOF after the intact prefix, a
// cut inside a frame must surface ErrTornFrame — never a partial frame.
func checkFramingTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 1, seq: 9, rec: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 1, seq: 10, rec: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	bounds := []int{0, first, len(full)} // frame boundaries in the stream
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

// checkFramingCorruption flips every byte of an encoded frame in turn; each
// single-byte flip must be rejected (crc mismatch, implausible length, or a
// torn read from a garbled length prefix) — never decoded as valid.
func checkFramingCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{kind: frameRecord, shard: 3, seq: 12, rec: []byte("payload-bytes")}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		_, err := readFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTornFrame) {
			t.Fatalf("flip at %d: got %v, want corrupt/torn", i, err)
		}
	}
}

func checkHelloValidation(t *testing.T) {
	if n, err := checkHello(helloFrame(4)); err != nil || n != 4 {
		t.Fatalf("good hello: %d, %v", n, err)
	}
	bads := []frame{
		{kind: frameRecord, shard: 4, seq: frameVersion, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion + 1, rec: []byte(frameMagic)},
		{kind: frameHello, shard: 4, seq: frameVersion, rec: []byte("NOPE")},
		{kind: frameHello, shard: 0, seq: frameVersion, rec: []byte(frameMagic)},
	}
	for i, f := range bads {
		if _, err := checkHello(f); !errors.Is(err, ErrBadHello) {
			t.Fatalf("bad hello %d: got %v, want ErrBadHello", i, err)
		}
	}
}

// --- stream semantics ---

// checkDedupBySeq pins the memlog's at-most-once apply: a resync that
// replays history must not double-apply, and a gap must be refused.
func checkDedupBySeq(t *testing.T) {
	m := newMemlog()
	for seq := uint64(1); seq <= 3; seq++ {
		ok, err := m.applyAt(seq, []byte{byte(seq)})
		if err != nil || !ok {
			t.Fatalf("seq %d: applied=%v err=%v", seq, ok, err)
		}
	}
	// Duplicate delivery (resync from offset 0) is dropped, not re-applied.
	if ok, err := m.applyAt(2, []byte{0xff}); err != nil || ok {
		t.Fatalf("duplicate: applied=%v err=%v", ok, err)
	}
	// A gap is a protocol violation.
	if _, err := m.applyAt(6, []byte{6}); err == nil {
		t.Fatal("gap accepted")
	}
	recs, err := m.Scan(0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("scan: %d recs, %v", len(recs), err)
	}
	for i, r := range recs {
		if !bytes.Equal(r, []byte{byte(i + 1)}) {
			t.Fatalf("rec %d mutated by duplicate: %x", i, r)
		}
	}
}

// checkResyncReplaysHistory speaks the protocol by hand: a standby that
// reconnects must receive everything the sender retains again, in identical
// order — the resend plus seq-dedup is what makes a lossy reconnect correct
// without any per-connection cursor state.
func checkResyncReplaysHistory(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 2, HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Prime(0, [][]byte{[]byte("a1"), []byte("a2")}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(1, [][]byte{[]byte("b1")}, 1); err != nil {
		t.Fatal(err)
	}
	s.Mirror(0, 3, []byte("a3"))

	// Two floor frames open each connection's stream; the records follow.
	readStream := func(n int) []frame {
		var recs []frame
		for _, f := range readStreamFrames(t, s, 2, 2+n) {
			if f.kind == frameRecord {
				recs = append(recs, f)
			}
		}
		return recs
	}

	first := readStream(4) // connection drops after a partial read elsewhere
	again := readStream(4)
	for i := range first {
		a, b := first[i], again[i]
		if a.shard != b.shard || a.seq != b.seq || !bytes.Equal(a.rec, b.rec) {
			t.Fatalf("resync diverged at %d: %+v vs %+v", i, a, b)
		}
	}
	// The stream preserves store order per shard.
	next := map[uint32]uint64{0: 1, 1: 1}
	for _, f := range first {
		if f.seq != next[f.shard] {
			t.Fatalf("shard %d: seq %d, want %d", f.shard, f.seq, next[f.shard])
		}
		next[f.shard]++
	}
}

// readStreamFrames dials the sender, checks the hello, and returns the next
// n floor, record and truncate frames.
func readStreamFrames(t *testing.T, s *Sender, shards, n int) []frame {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := checkHello(hello); err != nil || got != shards {
		t.Fatalf("hello: shards=%d err=%v", got, err)
	}
	var got []frame
	for len(got) < n {
		f, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if f.kind != frameFloor && f.kind != frameRecord && f.kind != frameTruncate {
			continue
		}
		f.rec = append([]byte(nil), f.rec...)
		got = append(got, f)
	}
	return got
}

// checkResyncFromFloor pins what a truncation does to the sender: it forgets
// the dropped records, and a standby attaching afterwards is sent the
// per-shard floors and then only what is retained — resync volume follows
// the log's bound, not the length of the stream so far.
func checkResyncFromFloor(t *testing.T) {
	s, err := NewSender("127.0.0.1:0", SenderConfig{Shards: 2, HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		s.Mirror(0, seq, []byte{'a', byte(seq)})
		s.Mirror(1, seq, []byte{'b', byte(seq)})
	}
	s.Truncate(0, 5)
	if st := s.Stats(); st.HistoryLen != 12 || st.Floors[0] != 5 || st.StreamLen != 13 {
		// Shard 1's first record still pins the head; only a1 went.
		t.Fatalf("after truncating shard 0 alone: %+v", st)
	}
	s.Truncate(1, 4)
	s.Mirror(0, 7, []byte{'a', 7})
	st := s.Stats()
	if st.HistoryLen != 8 || st.Floors[0] != 5 || st.Floors[1] != 4 || st.StreamLen != 15 {
		t.Fatalf("after truncating both shards: %+v", st)
	}

	got := readStreamFrames(t, s, 2, 2+st.HistoryLen)
	for shard, want := range []uint64{5, 4} {
		if f := got[shard]; f.kind != frameFloor || int(f.shard) != shard || f.seq != want {
			t.Fatalf("frame %d = %+v, want shard %d's floor %d", shard, f, shard, want)
		}
	}
	// Applying the attach stream to empty copies yields exactly the
	// retained suffix of each log, gap-free.
	logs := []*memlog{newMemlog(), newMemlog()}
	for _, f := range got {
		switch f.kind {
		case frameFloor:
			logs[f.shard].skipTo(f.seq)
		case frameRecord:
			if _, err := logs[f.shard].applyAt(f.seq, f.rec); err != nil {
				t.Fatal(err)
			}
		case frameTruncate:
			if err := logs[f.shard].applyTruncate(f.seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	for shard, want := range [][2]uint64{{5, 3}, {4, 3}} {
		if first, n := logs[shard].span(); first != want[0] || uint64(n) != want[1] {
			t.Fatalf("shard %d copy spans %d records from seq %d, want %d from %d", shard, n, first, want[1], want[0])
		}
	}
}

// checkMemlogTruncation pins the standby copy's three ways of moving its
// floor: a stream truncation drops a prefix it holds and refuses to reach
// past its end, an attach floor may restart a lagging copy, and neither
// disturbs dedup-by-seq.
func checkMemlogTruncation(t *testing.T) {
	m := newMemlog()
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := m.applyAt(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.applyTruncate(4); err != nil {
		t.Fatal(err)
	}
	if first, n := m.span(); first != 4 || n != 2 {
		t.Fatalf("after truncate below 4: %d records from seq %d", n, first)
	}
	if err := m.applyTruncate(9); err == nil {
		t.Fatal("stream truncation past the copy's end accepted")
	}
	if ok, err := m.applyAt(2, []byte{0xff}); err != nil || ok {
		t.Fatalf("record below the floor: applied=%v err=%v", ok, err)
	}
	m.skipTo(5) // floor inside the copy: an ordinary truncation
	if first, n := m.span(); first != 5 || n != 1 {
		t.Fatalf("after floor 5: %d records from seq %d", n, first)
	}
	m.skipTo(40) // the primary retains nothing the copy could extend
	if first, n := m.span(); first != 40 || n != 0 {
		t.Fatalf("after floor 40: %d records from seq %d", n, first)
	}
	if ok, err := m.applyAt(40, []byte{40}); err != nil || !ok {
		t.Fatalf("first retained record after a restart: applied=%v err=%v", ok, err)
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
	if !sb.Stats().Connected {
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
	s.Close() // primary dies: stream and heartbeats stop
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

// --- promotion over a live core proxy ---

// conformanceCadence is the full-checkpoint cadence of every proxy built
// here: short, so a handful of commits already truncates both sides.
const conformanceCadence = 4

// logBound is the most records one shard's log — and so the standby's copy
// of it — may retain: the previous full checkpoint, the epochs of one cadence
// (R read batches, a write batch and a checkpoint each) and the read batches
// of the epoch that overlaps the commit stage whose end truncates.
func logBound(cfg core.Config) int {
	return (conformanceCadence+1)*(cfg.ReadBatches+2) - 1
}

// conformanceConfig mirrors core's test configuration: a small ORAM so
// epochs are cheap, deterministic seeds, auto-scheduled batches.
func conformanceConfig(seed uint64) core.Config {
	return core.Config{
		Params: ringoram.Params{
			NumBlocks: 128,
			Z:         4,
			S:         6,
			A:         4,
			KeySize:   24,
			ValueSize: 64,
			Seed:      seed,
		},
		Key:            cryptoutil.KeyFromSeed([]byte("replica-conformance")),
		ReadBatches:    2,
		ReadBatchSize:  8,
		WriteBatchSize: 8,
		BatchInterval:  time.Millisecond,

		FullCheckpointEvery: conformanceCadence,
	}
}

// haPair is an in-process primary/standby deployment over shared in-memory
// backends — the same topology the binaries build, minus the client wire.
type haPair struct {
	raw     []storage.Backend // shared stores (what a real deployment's network reaches)
	views   []storage.Backend // the primary's fenced views
	cfg     core.Config
	sender  *Sender
	primary *core.Proxy
	standby *Standby
}

// haOptions shapes an haPair beyond the common case.
type haOptions struct {
	shards int
	acked  bool
	// manual drops the Δ timer: the test steps the primary's schedule itself
	// (advanceEpoch, commitStepped), so a thousand epochs take milliseconds
	// and truncations land at known points.
	manual bool
	// noStandby leaves the standby to a later attachStandby call.
	noStandby bool
	// redial overrides the standby's reconnect pacing (default 5ms).
	redial time.Duration
}

func newHAPair(t *testing.T, shards int, acked bool) *haPair {
	return newHAPairOpts(t, haOptions{shards: shards, acked: acked})
}

func newHAPairOpts(t *testing.T, o haOptions) *haPair {
	t.Helper()
	shards, acked := o.shards, o.acked
	cfg := conformanceConfig(7)
	if o.manual {
		cfg.BatchInterval = 0
	}
	raw := make([]storage.Backend, shards)
	views := make([]storage.Backend, shards)
	for i := range raw {
		raw[i] = storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
		// The primary fences at startup (as obladi.Open does when
		// replicating): holding a generation is what lets promotion
		// revoke it — a raw, token-0 handle could never be fenced out.
		view, _, err := raw[i].(storage.Fenceable).AcquireFence()
		if err != nil {
			t.Fatal(err)
		}
		views[i] = view
	}
	sender, err := NewSender("127.0.0.1:0", SenderConfig{
		Shards:         shards,
		Acked:          acked,
		HeartbeatEvery: 5 * time.Millisecond,
		BarrierTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicator = sender
	primary, err := core.NewSharded(views, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &haPair{raw: raw, views: views, cfg: cfg, sender: sender, primary: primary}
	t.Cleanup(func() {
		if h.standby != nil {
			h.standby.Stop()
		}
		h.sender.Close()
		h.primary.Close()
	})
	if !o.noStandby {
		h.attachStandby(t, o.redial)
	}
	return h
}

// attachStandby starts the pair's standby against the live sender.
func (h *haPair) attachStandby(t *testing.T, redial time.Duration) {
	t.Helper()
	base, err := core.WALConfigFor(h.cfg, 0, len(h.raw))
	if err != nil {
		t.Fatal(err)
	}
	if redial == 0 {
		redial = 5 * time.Millisecond
	}
	h.standby, err = NewStandby(h.sender.Addr(), h.raw, StandbyConfig{
		LeaseTimeout: 150 * time.Millisecond,
		RedialEvery:  redial,
		Decode:       &base,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// advanceEpoch steps a manually driven proxy through one whole epoch.
func advanceEpoch(t *testing.T, p *core.Proxy, cfg core.Config) {
	t.Helper()
	for i := 0; i <= cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

// commitStepped commits key=value on a manually driven proxy by stepping the
// epoch that carries it; it returns once the commit is acknowledged.
func commitStepped(t *testing.T, p *core.Proxy, cfg core.Config, key string, value []byte) {
	t.Helper()
	tx := p.Begin()
	if err := tx.Write(key, value); err != nil {
		t.Fatal(err)
	}
	ack := tx.CommitAsync()
	advanceEpoch(t, p, cfg)
	if err := <-ack; err != nil {
		t.Fatalf("commit %s: %v", key, err)
	}
}

// readStepped reads key on a manually driven proxy: the read rides the
// epoch's first batch, then the rest of the epoch is stepped out.
func readStepped(t *testing.T, p *core.Proxy, cfg core.Config, key string) ([]byte, bool) {
	t.Helper()
	tx := p.Begin()
	f := tx.ReadAsync(key)
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	v, found, err := f.Wait(context.Background())
	tx.Abort()
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	for i := 0; i < cfg.ReadBatches; i++ {
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	return v, found
}

// waitCaughtUp waits until the standby's copy of every shard's log ends
// where the store's does.
func (h *haPair) waitCaughtUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.standby.Stats()
		behind := !st.Connected
		for i, raw := range h.raw {
			last, err := raw.LastSeq()
			if err != nil {
				t.Fatal(err)
			}
			if st.Seqs[i] != last {
				behind = true
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkBounded asserts the lifecycle bound on all three holders of the log:
// the store logs (through the proxy's own counters), the sender's history
// and, when attached, the standby's copies.
func (h *haPair) checkBounded(t *testing.T, when string) {
	t.Helper()
	bound := logBound(h.cfg)
	for i, l := range h.primary.Stats().Logs {
		if int(l.Records) > bound {
			t.Fatalf("%s: shard %d log retains %d records, bound %d", when, i, l.Records, bound)
		}
	}
	// The stream interleaves the shards and carries their truncation marks.
	if st := h.sender.Stats(); st.HistoryLen > len(h.raw)*(bound+1) {
		t.Fatalf("%s: sender history holds %d entries for %d shards, bound %d each", when, st.HistoryLen, len(h.raw), bound)
	}
	if h.standby == nil {
		return
	}
	for i, n := range h.standby.Stats().Records {
		if n > bound {
			t.Fatalf("%s: standby copy of shard %d holds %d records, bound %d", when, i, n, bound)
		}
	}
}

// failoverStepped kills the primary, promotes the standby into a manually
// driven proxy and checks that every acknowledged key reads back and that
// the new primary commits.
func (h *haPair) failoverStepped(t *testing.T, want map[string][]byte) {
	t.Helper()
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	cfg := h.newPrimaryConfig()
	p2, err := core.NewShardedFromRecoveries(res.Stores, cfg, res.Recoveries)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for key, val := range want {
		v, found := readStepped(t, p2, cfg, key)
		if !found || !bytes.Equal(v, val) {
			t.Fatalf("%s after failover: got %q found=%v, want %q", key, v, found, val)
		}
	}
	commitStepped(t, p2, cfg, "post-failover", []byte("alive"))
}

func waitAttached(t *testing.T, sb *Standby) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !sb.Stats().Connected {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// commit writes key=value in one transaction and returns Commit's verdict.
func commit(p *core.Proxy, key string, value []byte) error {
	tx := p.Begin()
	if err := tx.Write(key, value); err != nil {
		return err
	}
	return tx.Commit()
}

// readKey reads key in its own transaction, retrying ErrEpochFull: a read
// that arrives after its epoch's last read batch is held until the next
// epoch opens and then refused, so the retry can be immediate.
func readKey(t *testing.T, p *core.Proxy, key string) ([]byte, bool) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		tx := p.Begin()
		v, found, err := tx.Read(key)
		tx.Abort()
		if err == nil {
			return v, found
		}
		if !errors.Is(err, core.ErrEpochFull) || attempt >= 50 {
			t.Fatalf("read %s: %v", key, err)
		}
	}
}

// kill simulates the primary host dying: the replication stream and
// heartbeats stop (sender gone), and the proxy is abandoned un-shut-down —
// whatever it was doing mid-epoch is lost exactly as a SIGKILL would lose it.
func (h *haPair) kill() {
	h.sender.Close()
}

// promote waits out the lease and promotes the standby, returning the
// recovered state for the new primary.
func (h *haPair) promote(t *testing.T) *PromoteResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.standby.WaitPrimaryDown(ctx); err != nil {
		t.Fatalf("lease never expired: %v", err)
	}
	base, err := core.WALConfigFor(h.cfg, 0, len(h.raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.standby.Promote(base)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	return res
}

// newPrimaryConfig strips the dead sender off the config for the promoted
// proxy (a real deployment would install its own replica listener here).
func (h *haPair) newPrimaryConfig() core.Config {
	cfg := h.cfg
	cfg.Replicator = nil
	return cfg
}

func checkPromotionFencesZombie(t *testing.T) {
	h := newHAPair(t, 2, false)
	waitAttached(t, h.standby)
	for i := 0; i < 4; i++ {
		if err := commit(h.primary, fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	// The zombie primary's handles predate the promotion fence: every
	// mutation — in particular extending the recovery log — must now fail.
	for i, v := range h.views {
		if _, err := v.Append([]byte("zombie append")); !errors.Is(err, storage.ErrFenced) {
			t.Fatalf("shard %d: zombie append: got %v, want ErrFenced", i, err)
		}
	}
	// And a transaction on the zombie proxy cannot be acknowledged: its
	// next boundary hits the fence and fails the commit loudly.
	tx := h.primary.Begin()
	err := tx.Write("zombie-key", []byte("z"))
	if err == nil {
		err = tx.Commit()
	}
	if err == nil {
		t.Fatal("zombie proxy acknowledged a commit after promotion")
	}
	// The new primary serves the full committed state.
	p2, err := core.NewShardedFromRecoveries(res.Stores, h.newPrimaryConfig(), res.Recoveries)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 0; i < 4; i++ {
		v, found := readKey(t, p2, fmt.Sprintf("key-%d", i))
		if !found || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("key-%d after failover: v=%q found=%v", i, v, found)
		}
	}
}

// checkReplayEquivalence proves the standby's continuously-replayed state is
// the state cold recovery computes: after promotion each warm log equals the
// durable store log byte for byte, and the recovery summaries match what a
// from-scratch wal.Recover over the store reads back.
func checkReplayEquivalence(t *testing.T) {
	h := newHAPair(t, 2, false)
	waitAttached(t, h.standby)
	// Enough commits for several truncations on both sides.
	for i := 0; i < 3*conformanceCadence; i++ {
		if err := commit(h.primary, fmt.Sprintf("eq-%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	for i := range h.raw {
		durable, err := res.Stores[i].Scan(0)
		if err != nil {
			t.Fatal(err)
		}
		last, err := res.Stores[i].LastSeq()
		if err != nil {
			t.Fatal(err)
		}
		// The zombie primary kept truncating the store until the fence,
		// after its stream had died: the warm copy may start lower. They
		// must agree wherever both are defined — from the store's floor on.
		floor := last + 1 - uint64(len(durable))
		if first, _ := h.standby.logs[i].span(); floor == 1 || first == 1 || first > floor {
			t.Fatalf("shard %d: store floor %d, warm floor %d; want both truncated, warm no further than the store", i, floor, first)
		}
		warm, err := h.standby.logs[i].Scan(floor)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm) != len(durable) {
			t.Fatalf("shard %d: from seq %d the warm log has %d records, the store %d", i, floor, len(warm), len(durable))
		}
		for j := range warm {
			if !bytes.Equal(warm[j], durable[j]) {
				t.Fatalf("shard %d: record %d differs between warm log and store", i, j)
			}
		}
	}
	// Cold recovery straight off the durable logs must agree with the
	// promotion's recovery summaries.
	for i := range h.raw {
		cfg, err := core.WALConfigFor(h.cfg, i, len(h.raw))
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.New(res.Stores[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cold *wal.Recovery
		if i == 0 {
			cold, err = l.Recover()
		} else {
			cold, err = l.RecoverWithFloor(res.Recoveries[0].CommittedEpoch)
		}
		if err != nil {
			t.Fatalf("cold recovery shard %d: %v", i, err)
		}
		warm := res.Recoveries[i]
		if cold.HasCommit != warm.HasCommit || cold.CommittedEpoch != warm.CommittedEpoch {
			t.Fatalf("shard %d: cold recovery (commit=%v epoch=%d) != standby replay (commit=%v epoch=%d)",
				i, cold.HasCommit, cold.CommittedEpoch, warm.HasCommit, warm.CommittedEpoch)
		}
	}
	// The standby decoded the committed epoch off the stream as it flowed.
	if got, want := h.standby.Stats().CommitEpoch, res.Recoveries[0].CommittedEpoch; got == 0 || got > want {
		t.Fatalf("streamed commit epoch %d, recovered %d", got, want)
	}
}

// checkZeroAckedLoss is the contract the whole subsystem exists for: every
// transaction whose Commit returned nil on the primary is present after
// failover — in local-durable mode because promotion tops the warm logs up
// from the fsynced tail, in replica-acked mode additionally because the ack
// was gated on standby receipt.
func checkZeroAckedLoss(t *testing.T, acked bool) {
	h := newHAPair(t, 2, acked)
	waitAttached(t, h.standby)
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("acked-%02d", i)
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := commit(h.primary, key, val); err != nil {
			t.Fatalf("commit %s: %v", key, err)
		}
		want[key] = val // Commit acked: must survive the handoff
	}
	// A multi-key read-modify-write transaction, acked as a unit.
	for attempt := 0; ; attempt++ {
		tx := h.primary.Begin()
		_, _, err := tx.Read("acked-00")
		if err == nil {
			err = tx.Write("acked-00", []byte("rewritten"))
		}
		if err == nil {
			err = tx.Write("extra", []byte("pair"))
		}
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			break
		}
		tx.Abort()
		if !errors.Is(err, core.ErrEpochFull) || attempt >= 50 {
			t.Fatalf("multi-key commit: %v", err)
		}
	}
	want["acked-00"], want["extra"] = []byte("rewritten"), []byte("pair")

	if acked {
		// Every barrier had the standby attached, so none may have degraded.
		if st := h.sender.Stats(); st.BarriersDegraded != 0 {
			t.Fatalf("%d barriers degraded with a live standby", st.BarriersDegraded)
		}
	}
	h.kill()
	res := h.promote(t)
	if res.Recoveries == nil {
		t.Fatal("promotion found no committed state")
	}
	p2, err := core.NewShardedFromRecoveries(res.Stores, h.newPrimaryConfig(), res.Recoveries)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for key, val := range want {
		v, found := readKey(t, p2, key)
		if !found {
			t.Fatalf("acknowledged commit lost across failover: %s", key)
		}
		if !bytes.Equal(v, val) {
			t.Fatalf("%s after failover: got %q want %q", key, v, val)
		}
	}
	// And the new primary is live: it accepts and commits new transactions.
	if err := commit(p2, "post-failover", []byte("alive")); err != nil {
		t.Fatalf("commit on promoted primary: %v", err)
	}
}

// --- log lifecycle under replication ---

// checkLateAttachAfterTruncation runs the primary alone for over a thousand
// epochs, then attaches a standby. The sender's history stayed bounded the
// whole time, the standby is brought up from the floors with a bounded
// resync, and its promotion loses no acknowledged commit.
func checkLateAttachAfterTruncation(t *testing.T) {
	h := newHAPairOpts(t, haOptions{shards: 2, manual: true, noStandby: true})
	want := map[string][]byte{}
	for e := 0; e < 1040; e++ {
		if e%40 != 0 {
			advanceEpoch(t, h.primary, h.cfg)
			continue
		}
		key, val := fmt.Sprintf("late-%04d", e), []byte(fmt.Sprintf("v%d", e))
		commitStepped(t, h.primary, h.cfg, key, val)
		want[key] = val
		h.checkBounded(t, fmt.Sprintf("epoch %d", e))
	}
	for i, l := range h.primary.Stats().Logs {
		if l.Truncations < 1000/conformanceCadence {
			t.Fatalf("shard %d: %d truncations over 1040 epochs at cadence %d", i, l.Truncations, conformanceCadence)
		}
	}
	streamed := h.sender.Stats().StreamLen
	h.attachStandby(t, 0)
	h.waitCaughtUp(t)
	h.checkBounded(t, "after late attach")
	ss, st := h.sender.Stats(), h.standby.Stats()
	for i := range h.raw {
		if st.Floors[i] != ss.Floors[i] || st.Floors[i] == 1 {
			t.Fatalf("shard %d: standby starts at seq %d, primary's floor is %d", i, st.Floors[i], ss.Floors[i])
		}
	}
	if resync := len(h.raw) * (logBound(h.cfg) + 1); uint64(resync)*10 > streamed {
		t.Fatalf("stream of %d entries is too short to tell a bounded resync (%d) from a full one", streamed, resync)
	}
	commitStepped(t, h.primary, h.cfg, "after-attach", []byte("seen"))
	want["after-attach"] = []byte("seen")
	h.failoverStepped(t, want)
}

// checkReconnectAcrossTruncation drops an attached standby's connection and
// lets the primary truncate past everything the standby holds before it
// redials: the reconnect must restart the copies at the new floors, stay
// bounded, and still promote without losing an acknowledged commit.
func checkReconnectAcrossTruncation(t *testing.T) {
	h := newHAPairOpts(t, haOptions{shards: 2, manual: true, redial: 500 * time.Millisecond})
	waitAttached(t, h.standby)
	want := map[string][]byte{"before-drop": []byte("b")}
	commitStepped(t, h.primary, h.cfg, "before-drop", want["before-drop"])
	h.waitCaughtUp(t)
	held := h.standby.Stats().Seqs

	h.sender.mu.Lock()
	sc := h.sender.conn
	h.sender.mu.Unlock()
	h.sender.dropConn(sc)
	for e := 0; e < 3*conformanceCadence; e++ { // well inside the redial pause
		key := fmt.Sprintf("during-drop-%d", e)
		commitStepped(t, h.primary, h.cfg, key, []byte{byte(e)})
		want[key] = []byte{byte(e)}
	}
	for i, floor := range h.sender.Stats().Floors {
		if floor <= held[i]+1 {
			t.Fatalf("shard %d: floor %d has not passed what the standby held (seq %d): no gap to reconnect across", i, floor, held[i])
		}
	}
	h.waitCaughtUp(t)
	h.checkBounded(t, "after reconnect")
	ss, st := h.sender.Stats(), h.standby.Stats()
	for i := range h.raw {
		if st.Floors[i] != ss.Floors[i] {
			t.Fatalf("shard %d: standby restarted at seq %d, primary's floor is %d", i, st.Floors[i], ss.Floors[i])
		}
	}
	h.failoverStepped(t, want)
}

// checkPromoteRightAfterTruncation kills the primary in the very epoch whose
// commit stage truncated the logs, before the standby has necessarily seen
// the truncation: promotion must find a full checkpoint at the head of
// whatever it holds and lose nothing acknowledged.
func checkPromoteRightAfterTruncation(t *testing.T) {
	h := newHAPairOpts(t, haOptions{shards: 2, manual: true})
	waitAttached(t, h.standby)
	want := map[string][]byte{}
	cuts := func() uint64 { return h.primary.Stats().Logs[1].Truncations }
	for e, start := 0, cuts(); cuts() < start+3; e++ {
		if e > 10*conformanceCadence {
			t.Fatal("no truncation in ten cadences of epochs")
		}
		key := fmt.Sprintf("cut-%d", e)
		commitStepped(t, h.primary, h.cfg, key, []byte{byte(e)})
		want[key] = []byte{byte(e)}
	}
	h.failoverStepped(t, want)
}
