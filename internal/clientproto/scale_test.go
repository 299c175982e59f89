package clientproto_test

// Full-stack overload tests: a real Obladi engine behind the mux server,
// driven past its batch-slot budget. They pin the three overload-control
// properties end to end: session caps shed instead of growing state, a
// misbehaving client costs the server only bounded resources, and past
// saturation admitted transactions keep a sane p99 while the excess gets
// retryable sheds — never hangs or wire desyncs.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/enginetest"
	"obladi/internal/kvtxn"
)

// serveEngine builds a protocol server with serve over a fresh Obladi engine.
func serveEngine(t *testing.T, engOpt enginetest.ObladiOptions, serve func(kvtxn.DB) (*clientproto.Server, error)) *clientproto.Server {
	t.Helper()
	eng, err := enginetest.NewObladi(engOpt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve(eng.DB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.DB.Close()
		if v := eng.Violation(); v != nil {
			t.Error(v)
		}
	})
	return srv
}

// TestMuxSessionCapSheds pins the per-connection session cap: the Begin past
// the cap is refused with a retryable shed, and settling a session frees its
// slot (the worker map is reaped, not just bounded).
func TestMuxSessionCapSheds(t *testing.T) {
	srv := serveEngine(t, enginetest.ObladiOptions{NumBlocks: 256, ValueSize: 64},
		func(db kvtxn.DB) (*clientproto.Server, error) { return clientproto.NewServerCaps(db, 4, 64) })
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	open := make([]*clientproto.MuxTxn, 4)
	for i := range open {
		open[i] = mc.Begin()
		// Force the Begin onto the wire and the session open before the
		// next one: a write ack round-trips through the session worker.
		if err := open[i].WriteAsync(fmt.Sprintf("k%d", i), []byte("v")).Wait(context.Background()); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	// The shed answers the Begin frame; Commit collects that pipelined ack.
	over := mc.Begin()
	err = over.Commit()
	if err == nil || !errors.Is(err, core.ErrShed) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("5th session on a cap of 4: err = %v, want retryable shed", err)
	}
	if st := srv.Stats(); st.ShedSessions == 0 || st.OpenSessions != 4 {
		t.Fatalf("stats = %+v, want 4 open and >0 shed", st)
	}

	// Settle one session; its slot must come back.
	open[0].Abort()
	waitFor(t, func() bool { return srv.Stats().OpenSessions == 3 })
	tx := mc.Begin()
	if err := tx.WriteAsync("fresh", []byte("v")).Wait(context.Background()); err != nil {
		t.Fatalf("begin after reap: %v", err)
	}
	tx.Abort()
	for _, o := range open[1:] {
		o.Abort()
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// muxFrame hand-encodes one request frame (for a raw client that bypasses
// MuxClient's read loop).
func muxFrame(kind byte, session, req uint32, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(9+len(payload)))
	b = append(b, kind)
	b = binary.BigEndian.AppendUint32(b, session)
	b = binary.BigEndian.AppendUint32(b, req)
	return append(b, payload...)
}

// TestNeverReadingClientBounded pins the OOM audit: a client that opens
// sessions, pipelines reads, and never reads a single reply byte costs the
// server only a bounded number of goroutines (each of which bounds its
// memory), and does not starve well-behaved clients on other connections.
func TestNeverReadingClientBounded(t *testing.T) {
	srv := serveEngine(t, enginetest.ObladiOptions{NumBlocks: 512, ValueSize: 64},
		func(db kvtxn.DB) (*clientproto.Server, error) { return clientproto.NewServerCaps(db, 8, 4) })

	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\x00OB2")); err != nil {
		t.Fatal(err)
	}
	// Flood: 64 sessions (8× the cap) each pipelining 200 reads, replies
	// never read. The writer goroutine is expected to jam on backpressure.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		const beginKind, readKind = 1, 2
		for s := uint32(1); s <= 64; s++ {
			if _, err := conn.Write(muxFrame(beginKind, s, 1, nil)); err != nil {
				return
			}
			for r := uint32(2); r <= 201; r++ {
				if _, err := conn.Write(muxFrame(readKind, s, r, []byte(fmt.Sprintf("k%d-%d", s, r)))); err != nil {
					return
				}
			}
		}
	}()

	// Let the server chew on the flood, then check the damage is bounded:
	// 1 read loop + ≤8 workers + ≤8×4 resolvers, plus engine internals —
	// nowhere near the 64×200 goroutines/replies an unbounded server grows.
	time.Sleep(500 * time.Millisecond)
	if got := runtime.NumGoroutine(); got > before+100 {
		t.Fatalf("goroutines grew %d -> %d under a never-reading flood; per-session resources are unbounded", before, got)
	}

	// A well-behaved client on its own connection is still served.
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	err = kvtxn.RunWithRetries(clientproto.MuxDB{C: mc}, 50, func(tx kvtxn.Txn) error {
		return tx.Write("healthy", []byte("v"))
	})
	if err != nil {
		t.Fatalf("healthy connection starved behind the flood: %v", err)
	}
}

// TestSaturationGracefulP99 is the saturation regression test: offered load
// of 2× the epoch's read-slot budget must yield (a) committed transactions
// whose p99 stays bounded, (b) retryable sheds for the excess, and (c) no
// hangs, desyncs, or non-retryable errors.
func TestSaturationGracefulP99(t *testing.T) {
	srv := serveEngine(t,
		enginetest.ObladiOptions{
			NumBlocks:     512,
			ValueSize:     64,
			ReadBatches:   2,
			ReadBatchSize: 4, // budget: 8 read slots per epoch
		},
		func(db kvtxn.DB) (*clientproto.Server, error) { return clientproto.NewServer(db, "127.0.0.1:0") })
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	const workers = 16 // 2× the 8-slot budget of concurrent single-read txns
	var (
		mu        sync.Mutex
		latencies []time.Duration
		sheds     int
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				start := time.Now()
				tx := mc.BeginCtx(ctx)
				_, _, err := tx.Read(fmt.Sprintf("w%d-i%d", w, i))
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				switch {
				case err == nil:
					mu.Lock()
					latencies = append(latencies, time.Since(start))
					mu.Unlock()
				case errors.Is(err, core.ErrShed):
					mu.Lock()
					sheds++
					mu.Unlock()
				case errors.Is(err, kvtxn.ErrAborted) || ctx.Err() != nil:
					// Ordinary retryable abort, or the run ending mid-txn.
				default:
					t.Errorf("worker %d: non-retryable error under saturation: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers hung under saturation")
	}

	if len(latencies) == 0 {
		t.Fatal("no transaction committed under saturation")
	}
	if sheds == 0 {
		t.Fatal("2x offered load never shed: admission gate not engaged on the wire path")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	if p99 > 500*time.Millisecond {
		t.Fatalf("admitted-txn p99 = %v under 2x load: degradation is not graceful (epochs are sub-millisecond here)", p99)
	}
	t.Logf("saturation: %d committed, %d shed, p99 %v", len(latencies), sheds, p99)
}
