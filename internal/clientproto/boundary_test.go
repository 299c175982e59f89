package clientproto_test

import (
	"errors"
	"testing"

	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// TestBoundaryWindowOnTheWire pins how a read that misses its epoch's last
// read batch looks to a client: the server holds it until the next epoch
// opens and then answers with the boundary-window refusal — its own error
// code — never with an overload shed, so clients retry at once instead of
// backing off.
func TestBoundaryWindowOnTheWire(t *testing.T) {
	cfg := core.Config{
		Params:        ringoram.Params{NumBlocks: 64, Z: 4, S: 6, A: 4, KeySize: 24, ValueSize: 32, Seed: 5},
		Key:           cryptoutil.KeyFromSeed([]byte("boundary-wire")),
		ReadBatches:   2,
		ReadBatchSize: 4,
	}
	p, err := core.New(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := clientproto.NewServer(kvtxn.ProxyDB{P: p}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		p.Close()
	})
	for i := 0; i < cfg.ReadBatches; i++ { // manual mode: burn the epoch's read batches
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}

	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	muxErr := make(chan error, 1)
	go func() {
		_, _, err := mc.Begin().Read("late-mux")
		muxErr <- err
	}()

	waitFor(t, func() bool { return p.Stats().BoundaryReads == 1 })
	if err := p.Advance(); err != nil { // the seal opens the next epoch
		t.Fatal(err)
	}
	err = <-muxErr
	if !errors.Is(err, core.ErrBoundaryWindow) || !errors.Is(err, kvtxn.ErrAborted) {
		t.Fatalf("mux read failed with %v; want core.ErrBoundaryWindow as a retryable abort", err)
	}
	if errors.Is(err, core.ErrShed) {
		t.Fatalf("boundary-window refusal %v reads as overload", err)
	}
	if st := p.Stats(); st.ShedReads != 0 {
		t.Fatalf("ShedReads = %d on an idle proxy", st.ShedReads)
	}
}
