package clientproto_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/enginetest"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

func TestMuxRoundTrip(t *testing.T) {
	mc := newShardedStack(t, 1)
	db := clientproto.MuxDB{C: mc}
	err := kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		if err := tx.Write("hello", []byte("world")); err != nil {
			return err
		}
		v, found, err := tx.Read("hello")
		if err != nil {
			return err
		}
		if !found || string(v) != "world" {
			t.Fatalf("read own write: %q %v", v, found)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		v, found, err := tx.Read("hello")
		if err != nil {
			return err
		}
		if !found || string(v) != "world" {
			return fmt.Errorf("read after commit: %q %v", v, found)
		}
		_, found, err = tx.Read("absent")
		if err != nil {
			return err
		}
		if found {
			t.Fatal("absent key found")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMuxShardedStack drives the mux protocol against a 4-shard proxy.
func TestMuxShardedStack(t *testing.T) {
	mc := newShardedStack(t, 4)
	db := clientproto.MuxDB{C: mc}
	err := kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		for i := 0; i < 16; i++ {
			if err := tx.Write(fmt.Sprintf("mux-shard-%d", i), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ReadMany pipelines all keys into one batch round per shard.
	err = kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("mux-shard-%d", i)
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.Found || len(r.Value) != 1 || r.Value[0] != byte(i) {
				t.Fatalf("%s: %v %v", r.Key, r.Value, r.Found)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMuxPipelinedReadsShareOneBatch serves a *manual-mode* proxy so the
// test drives the schedule: a session's pipelined read set must be served by
// a single read batch, and a pipelined commit by the following boundary.
func TestMuxPipelinedReadsShareOneBatch(t *testing.T) {
	params := ringoram.Params{
		NumBlocks: 256, Z: 8, S: 12, A: 8,
		KeySize: 32, ValueSize: 64, Seed: 1,
	}
	store := storage.NewMemBackend(params.Geometry().NumBuckets)
	p, err := core.New(store, core.Config{
		Params: params, Key: cryptoutil.KeyFromSeed([]byte("mux-manual")),
		ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 16,
		DisableDurability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := clientproto.NewServer(kvtxn.ProxyDB{P: p}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// Pipeline eight reads and the commit without waiting for any reply.
	tx := mc.Begin()
	futures := make([]kvtxn.ReadFuture, 8)
	for i := range futures {
		futures[i] = tx.ReadAsync(fmt.Sprintf("pipe-%d", i))
	}
	commitDone := make(chan error, 1)
	go func() { commitDone <- tx.Commit() }()

	// Wait until all eight reads are queued server-side, then fire exactly
	// one batch.
	deadline := time.Now().Add(5 * time.Second)
	for p.PendingFetches() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("reads never queued: pending=%d", p.PendingFetches())
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.StepReadBatch(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futures {
		v, found, err := f.Wait(nil)
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if found {
			t.Fatalf("future %d: unexpected value %q", i, v)
		}
	}
	// The commit decision arrives at the next boundary.
	select {
	case err := <-commitDone:
		t.Fatalf("commit decided before the boundary: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < 3; i++ {
		if err := p.StepReadBatch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := <-commitDone; err != nil {
		t.Fatal(err)
	}
}

// TestConnWithoutMagicIsClosed opens a connection the way a line-protocol
// client would: the server must close it without writing a byte.
func TestConnWithoutMagicIsClosed(t *testing.T) {
	conn, err := net.Dial("tcp", newServer(t, 1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("BEGIN\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if n != 0 {
		t.Fatalf("the server replied %d bytes to a connection without the magic", n)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a connection without the magic stayed open")
	}
}

// TestMuxSessionProtocolErrors speaks raw frames: ops on unopened sessions
// and double BEGINs get error replies without desyncing the connection.
func TestMuxSessionProtocolErrors(t *testing.T) {
	raw := dialRaw(t, newServer(t, 1).Addr())
	// READ on a session that was never opened.
	raw.send(kindRead, 42, 1, []byte("k"))
	if kind, session, req, payload := raw.recv(); kind != kindErr || session != 42 || req != 1 {
		t.Fatalf("unopened session read: kind=%#x session=%d req=%d %q", kind, session, req, payload)
	}
	// Open, then double-open.
	raw.send(kindBegin, 7, 1, nil)
	if kind, _, _, _ := raw.recv(); kind != kindOK {
		t.Fatalf("begin: kind=%#x", kind)
	}
	raw.send(kindBegin, 7, 2, nil)
	if kind, _, _, payload := raw.recv(); kind != kindErr {
		t.Fatalf("double begin: kind=%#x %q", kind, payload)
	}
	// The connection still works: abort the session cleanly.
	raw.send(kindAbort, 7, 3, nil)
	if kind, _, req, _ := raw.recv(); kind != kindOK || req != 3 {
		t.Fatalf("abort after errors: kind=%#x req=%d", kind, req)
	}
}

// TestMuxRefusedMutationAbortsSession pins that a WRITE the server refuses
// aborts its transaction: a write that was acknowledged before it must not
// commit. Four refusals, each followed by COMMIT: an oversize value, an
// oversize key, an empty key, and a WRITE frame whose key length runs past
// its payload. Every COMMIT fails and nothing of the transaction is visible.
func TestMuxRefusedMutationAbortsSession(t *testing.T) {
	srv := newServer(t, 1)
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	refusals := map[string]func(tx *clientproto.MuxTxn){
		"oversize value": func(tx *clientproto.MuxTxn) { tx.Write("bad", make([]byte, 65)) },
		"oversize key":   func(tx *clientproto.MuxTxn) { tx.Write(strings.Repeat("k", 49), []byte("v")) },
		"empty key":      func(tx *clientproto.MuxTxn) { tx.Write("", []byte("v")) },
	}
	for name, refuse := range refusals {
		good := "good/" + name
		tx := mc.Begin()
		must(t, tx.Write(good, []byte("v1")))
		refuse(tx)
		if err := tx.Commit(); err == nil {
			t.Fatalf("%s: Commit succeeded after a refused write", name)
		}
		expectAbsent(t, mc, good)
	}

	raw := dialRaw(t, srv.Addr())
	raw.send(kindBegin, 1, 1, nil)
	raw.send(kindWrite, 1, 2, writePayload("good/malformed", []byte("v1")))
	raw.send(kindWrite, 1, 3, binary.BigEndian.AppendUint32(nil, 1000))
	raw.send(kindCommit, 1, 4, nil)
	for req, want := range []byte{kindOK, kindOK, kindErr, kindErr} {
		if kind, _, got, payload := raw.recv(); kind != want || got != uint32(req+1) {
			t.Fatalf("malformed write, reply %d: kind=%#x req=%d %q, want kind %#x", req+1, kind, got, payload, want)
		}
	}
	expectAbsent(t, mc, "good/malformed")
}

// expectAbsent reads key in a transaction of its own and fails if it exists.
func expectAbsent(t *testing.T, mc *clientproto.MuxClient, key string) {
	t.Helper()
	must(t, kvtxn.RunWithRetries(clientproto.MuxDB{C: mc}, 10, func(tx kvtxn.Txn) error {
		v, found, err := tx.Read(key)
		if err == nil && found {
			t.Fatalf("%s = %q is visible: a transaction with a refused write committed", key, v)
		}
		return err
	}))
}

// TestMuxManyConcurrentSessions runs many concurrent transaction sessions
// over ONE connection, mixing reads and writes, and verifies every committed
// value — the multiplexing the line protocol fundamentally cannot do.
func TestMuxManyConcurrentSessions(t *testing.T) {
	mc := newShardedStack(t, 1)
	db := clientproto.MuxDB{C: mc}
	const workers = 24
	const txnsPer = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
					return tx.Write(key, []byte(key))
				})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Verify a sample of keys.
	for _, key := range []string{"w0-k0", "w11-k3", "w23-k1"} {
		err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
			v, found, err := tx.Read(key)
			if err != nil {
				return err
			}
			if !found || string(v) != key {
				t.Fatalf("%s: %q %v", key, v, found)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxStressServerClose is the -race stress for the v2 session machinery:
// many concurrent sessions on one connection, with the server torn down
// mid-flight. Every client call must return (no stranded futures), and the
// engine must shut down cleanly afterwards (no stranded server workers).
func TestMuxStressServerClose(t *testing.T) {
	eng, err := enginetest.NewObladi(enginetest.ObladiOptions{NumBlocks: 512, ValueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := clientproto.NewServer(eng.DB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	db := clientproto.MuxDB{C: mc}

	const workers = 32
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				tx := db.Begin()
				key := fmt.Sprintf("stress-%d-%d", w, i%8)
				if err := tx.Write(key, []byte("v")); err != nil {
					tx.Abort()
					return
				}
				if _, _, err := tx.Read(key); err != nil {
					tx.Abort()
					if errors.Is(err, kvtxn.ErrAborted) {
						continue // epoch boundary; retry
					}
					return // connection down: stop
				}
				if err := tx.Commit(); err != nil {
					if errors.Is(err, kvtxn.ErrAborted) {
						continue
					}
					return
				}
				committed.Add(1)
			}
		}(w)
	}

	// Let traffic build, then kill the server mid-flight.
	time.Sleep(100 * time.Millisecond)
	srv.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("client workers stranded after server close")
	}
	mc.Close()
	if err := eng.DB.Close(); err != nil {
		t.Fatal(err)
	}
	if v := eng.Violation(); v != nil {
		t.Fatal(v)
	}
	t.Logf("committed %d transactions before the close", committed.Load())
}
