package clientproto_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"obladi"
	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// steppedEngine is what the wire tests below serve through kvtxn.ProxyDB and
// step by hand: a manual-mode *core.Proxy, or the *obladi.DB the proxy binary
// serves.
type steppedEngine interface {
	kvtxn.Proxy
	Advance() error
	Stats() core.Stats
}

// Both engines run R = 2 read batches of 4 slots per epoch.
const wireReadBatches, wireReadBatchSize = 2, 4

func openSteppedProxy(t *testing.T) steppedEngine {
	cfg := core.Config{
		Params:        ringoram.Params{NumBlocks: 64, Z: 4, S: 6, A: 4, KeySize: 24, ValueSize: 32, Seed: 5},
		Key:           cryptoutil.KeyFromSeed([]byte("boundary-wire")),
		ReadBatches:   wireReadBatches,
		ReadBatchSize: wireReadBatchSize,
	}
	p, err := core.New(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// openSteppedDB opens a manual-mode DB over a storage server, and checks at
// cleanup that closing the DB through the adapter closed its storage
// connections: the server's drain finds none left to wait for.
func openSteppedDB(t *testing.T) steppedEngine {
	store, err := storage.NewServer(storage.NewMemBackend(1<<10), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db, err := obladi.Open(obladi.Options{
		MaxKeys:       64,
		MaxKeySize:    24,
		MaxValueSize:  32,
		Z:             4,
		S:             6,
		A:             4,
		ReadBatches:   wireReadBatches,
		ReadBatchSize: wireReadBatchSize,
		RemoteAddr:    store.Addr(),
		KeySeed:       []byte("boundary-wire"),
	})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		const grace = 10 * time.Second
		start := time.Now()
		store.Drain(grace)
		if waited := time.Since(start); waited >= grace {
			t.Errorf("storage drain waited %v: closing the DB through kvtxn.ProxyDB left its storage connections open", waited)
		}
	})
	return db
}

// TestBoundaryWindowOnTheWire pins how a read that misses its epoch's last
// read batch looks to a client: the server holds it until the next epoch
// opens and then answers with the boundary-window refusal — its own error
// code — never with an overload shed, so clients retry at once instead of
// backing off. It runs over both engines kvtxn.ProxyDB serves, the proxy
// and the *obladi.DB the proxy binary serves, and on the DB also checks a
// read past the epoch's slot budget: that one is a shed.
func TestBoundaryWindowOnTheWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(*testing.T) steppedEngine
		run  func(*testing.T, steppedEngine, *clientproto.MuxClient)
	}{
		{"proxy", openSteppedProxy, boundaryWindowRead},
		{"db", openSteppedDB, boundaryWindowRead},
		{"db-shed", openSteppedDB, overfilledEpochSheds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.open(t)
			srv, err := clientproto.NewServer(kvtxn.ProxyDB{P: eng}, "127.0.0.1:0")
			if err != nil {
				eng.Close()
				t.Fatal(err)
			}
			mc, err := clientproto.DialMux(srv.Addr())
			if err != nil {
				srv.Close()
				eng.Close()
				t.Fatal(err)
			}
			defer func() {
				mc.Close()
				srv.Close()
				if err := (kvtxn.ProxyDB{P: eng}).Close(); err != nil {
					t.Errorf("close through the adapter: %v", err)
				}
			}()
			tc.run(t, eng, mc)
		})
	}
}

func boundaryWindowRead(t *testing.T, eng steppedEngine, mc *clientproto.MuxClient) {
	for i := 0; i < wireReadBatches; i++ { // manual mode: burn the epoch's read batches
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	muxErr := make(chan error, 1)
	go func() {
		_, _, err := mc.Begin().Read("late-mux")
		muxErr <- err
	}()

	waitFor(t, func() bool { return eng.Stats().BoundaryReads == 1 })
	if err := eng.Advance(); err != nil { // the seal opens the next epoch
		t.Fatal(err)
	}
	err := <-muxErr
	if !errors.Is(err, core.ErrBoundaryWindow) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("mux read failed with %v; want core.ErrBoundaryWindow as a retryable abort", err)
	}
	if errors.Is(err, core.ErrShed) {
		t.Fatalf("boundary-window refusal %v reads as overload", err)
	}
	if st := eng.Stats(); st.ShedReads != 0 {
		t.Fatalf("ShedReads = %d on an idle proxy", st.ShedReads)
	}
}

// overfilledEpochSheds pipelines one read more than the epoch has slots: the
// admission gate sheds the last, and the shed reaches the client as a
// retryable abort.
func overfilledEpochSheds(t *testing.T, eng steppedEngine, mc *clientproto.MuxClient) {
	tx := mc.Begin()
	var last kvtxn.ReadFuture
	for i := 0; i <= wireReadBatches*wireReadBatchSize; i++ {
		last = tx.ReadAsync(fmt.Sprintf("k%d", i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err := last.Wait(ctx)
	if !errors.Is(err, core.ErrShed) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("read past the epoch's slot budget failed with %v; want core.ErrShed as a retryable abort", err)
	}
	if st := eng.Stats(); st.ShedReads != 1 {
		t.Fatalf("ShedReads = %d, want 1", st.ShedReads)
	}
	// The admitted reads are served by the epoch's batches.
	for i := 0; i <= wireReadBatches; i++ {
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	tx.Abort()
}
