// Package enginetest builds the three engines (Obladi, NoPriv, 2PL) in
// test-friendly configurations so workload packages can run their logic and
// invariants against every engine.
package enginetest

import (
	"fmt"
	"time"

	"obladi/internal/baseline"
	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Engine is a named engine under test.
type Engine struct {
	Name string
	DB   kvtxn.DB
	// Checkers holds the bucket-invariant watchdog of every Obladi shard
	// (empty for baselines); consult them through Violation.
	Checkers []*storage.InvariantChecker
}

// Violation reports the first bucket-invariant violation on any shard. It is
// safe (and a no-op) on baseline engines, which have no checkers.
func (e Engine) Violation() error {
	for _, c := range e.Checkers {
		if v := c.Violation(); v != nil {
			return v
		}
	}
	return nil
}

// ObladiOptions tunes the Obladi engine for workload tests.
type ObladiOptions struct {
	NumBlocks      int // per-shard ORAM capacity
	Shards         int // key-space partitions (default 1)
	ValueSize      int
	ReadBatches    int
	ReadBatchSize  int
	WriteBatchSize int
	Durability     bool
	Seed           uint64
}

// NewObladi builds an auto-mode Obladi engine over checked memory storage.
func NewObladi(opt ObladiOptions) (Engine, error) {
	if opt.NumBlocks == 0 {
		opt.NumBlocks = 4096
	}
	if opt.ValueSize == 0 {
		opt.ValueSize = 256
	}
	if opt.ReadBatches == 0 {
		opt.ReadBatches = 8
	}
	if opt.ReadBatchSize == 0 {
		opt.ReadBatchSize = 32
	}
	if opt.WriteBatchSize == 0 {
		opt.WriteBatchSize = 64
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	cfg := core.Config{
		Params: ringoram.Params{
			NumBlocks: opt.NumBlocks,
			Z:         8,
			S:         12,
			A:         8,
			KeySize:   48,
			ValueSize: opt.ValueSize,
			Seed:      opt.Seed,
		},
		Key:               cryptoutil.KeyFromSeed([]byte("enginetest")),
		ReadBatches:       opt.ReadBatches,
		ReadBatchSize:     opt.ReadBatchSize,
		WriteBatchSize:    opt.WriteBatchSize,
		BatchInterval:     300 * time.Microsecond,
		DisableDurability: !opt.Durability,
	}
	stores := make([]storage.Backend, opt.Shards)
	checkers := make([]*storage.InvariantChecker, opt.Shards)
	for i := range stores {
		checkers[i] = storage.NewInvariantChecker(storage.NewMemBackend(cfg.Params.Geometry().NumBuckets))
		stores[i] = checkers[i]
	}
	p, err := core.NewSharded(stores, cfg)
	if err != nil {
		return Engine{}, err
	}
	name := "obladi"
	if opt.Shards > 1 {
		name = fmt.Sprintf("obladi-%dshard", opt.Shards)
	}
	return Engine{Name: name, DB: kvtxn.ProxyDB{P: p}, Checkers: checkers}, nil
}

// NewObladiMux builds an Obladi engine served over loopback TCP through the
// client protocol server and reached with the multiplexed v2 client — the
// full wire stack a remote application sees. Closing the engine's DB closes
// the client, the server, and the underlying proxy.
func NewObladiMux(opt ObladiOptions) (Engine, error) {
	eng, err := NewObladi(opt)
	if err != nil {
		return Engine{}, err
	}
	srv, err := clientproto.NewServer(eng.DB, "127.0.0.1:0")
	if err != nil {
		eng.DB.Close()
		return Engine{}, err
	}
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		srv.Close()
		eng.DB.Close()
		return Engine{}, err
	}
	return Engine{
		Name:     eng.Name + "-mux",
		DB:       wireDB{client: clientproto.MuxDB{C: mc}, srv: srv, engine: eng.DB},
		Checkers: eng.Checkers,
	}, nil
}

// wireDB chains a wire client over a protocol server over an engine,
// closing all three in order.
type wireDB struct {
	client kvtxn.DB
	srv    *clientproto.Server
	engine kvtxn.DB
}

func (w wireDB) Begin() kvtxn.Txn { return w.client.Begin() }

func (w wireDB) Close() error {
	err := w.client.Close()
	if serr := w.srv.Close(); err == nil {
		err = serr
	}
	if eerr := w.engine.Close(); err == nil {
		err = eerr
	}
	return err
}

// Baselines returns the NoPriv and 2PL engines over unpaced memory stores.
func Baselines() []Engine {
	return []Engine{
		{Name: "nopriv", DB: baseline.NewNoPriv(baseline.NewMemStore(storage.ProfileDummy))},
		{Name: "twopl", DB: baseline.NewTwoPL(baseline.NewMemStore(storage.ProfileDummy))},
	}
}
