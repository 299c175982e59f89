package bench

import (
	"fmt"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// shardStoreProfile models one shard's private storage server: modest
// latency, a bounded number of concurrent request slots, and per-item
// service times, so a single backend saturates under one shard's batch and
// extra shards add aggregate capacity — the deployment the sharded proxy
// targets. The per-item costs matter since I/O went vectored: without them
// one scatter-gather call would amortize the whole batch to a single round
// trip and the experiment would degenerate into a CPU benchmark instead of
// measuring storage capacity scaling.
var shardStoreProfile = storage.Profile{
	Name:           "shardstore",
	Read:           time.Millisecond,
	Write:          time.Millisecond,
	ReadPerSlot:    25 * time.Microsecond,
	WritePerBucket: 30 * time.Microsecond,
	MaxConcurrent:  32,
}

// ShardScale measures aggregate read/write throughput of a uniform
// microbenchmark as the trusted proxy is partitioned into 1, 2 and 4 shards,
// each shard owning an independent (capped-concurrency) storage backend.
// Per-shard batch quotas are fixed — every shard issues R read batches of
// bread and one write batch of bwrite per epoch — so aggregate epoch
// capacity, and with it saturated throughput, grows with the shard count.
// Counted: the reads served and writes committed per epoch, which the fixed
// per-shard schedule lets grow with the shard count.
func ShardScale(cfg Config) ([]Row, error) {
	cfg.setDefaults()
	const (
		readBatches = 4
		readBatch   = 16
		writeBatch  = 32
		numKeys     = 2048 // uniform key space, shared by all configurations
	)
	epochs := 6
	if cfg.Quick {
		epochs = 3
	}
	var rows []Row
	for _, shards := range []int{1, 2, 4} {
		p := ringoram.Params{
			// Equal per-shard geometry across configurations keeps path
			// lengths comparable; capacity headroom absorbs hash skew.
			NumBlocks: numKeys,
			Z:         16, S: 24, A: 16,
			KeySize: 24, ValueSize: 64,
			Seed: cfg.Seed,
		}
		// This experiment measures the latency/capacity-bound regime the
		// sharded deployment targets; below a floor the run degenerates into
		// a CPU benchmark of N-fold dummy traffic.
		scale := cfg.LatencyScale
		if scale < 0.5 {
			scale = 0.5
		}
		prof := shardStoreProfile.Scaled(scale)
		stores := make([]storage.Backend, shards)
		for i := range stores {
			stores[i] = storage.WithLatency(storage.NewMemBackend(p.Geometry().NumBuckets), prof)
		}
		proxy, err := core.NewSharded(stores, core.Config{
			Params: p, Key: cryptoutil.KeyFromSeed([]byte("shardscale")),
			ReadBatches:       readBatches,
			ReadBatchSize:     readBatch,
			WriteBatchSize:    writeBatch,
			DisableDurability: true,
		})
		if err != nil {
			return nil, err
		}
		rng := newRand(cfg.Seed + uint64(shards))
		// Saturate ~60% of the aggregate quotas: high enough to exercise
		// every shard, low enough that hash skew rarely overflows one.
		readTarget := readBatches * readBatch * shards * 6 / 10
		writeTarget := writeBatch * shards * 6 / 10
		pick := func(n int) []string {
			seen := make(map[string]bool, n)
			out := make([]string, 0, n)
			for len(out) < n {
				k := fmt.Sprintf("u-%d", rng.IntN(numKeys))
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
			return out
		}
		runEpoch := func() (reads, writes int, err error) {
			rtx := proxy.Begin()
			readKeys := pick(readTarget)
			readDone := make(chan error, 1)
			go func() {
				_, rerr := rtx.ReadMany(readKeys)
				readDone <- rerr
			}()
			var chans []<-chan error
			for _, k := range pick(writeTarget) {
				tx := proxy.Begin()
				if werr := tx.Write(k, []byte("v")); werr != nil {
					tx.Abort()
					continue
				}
				chans = append(chans, tx.CommitAsync())
			}
			// ReadMany queues every fetch before blocking; wait for that,
			// then drive the fixed schedule.
			for i := 0; i < 100000 && proxy.PendingFetches() < readTarget; i++ {
				time.Sleep(10 * time.Microsecond)
			}
			for b := 0; b < readBatches; b++ {
				if serr := proxy.StepReadBatch(); serr != nil {
					return 0, 0, serr
				}
			}
			if eerr := proxy.EndEpoch(); eerr != nil {
				return 0, 0, eerr
			}
			if rerr := <-readDone; rerr == nil {
				reads = len(readKeys)
			}
			rtx.Abort()
			for _, ch := range chans {
				if cerr := <-ch; cerr == nil {
					writes++
				}
			}
			return reads, writes, nil
		}
		// Warm-up epoch, then measure.
		if _, _, err := runEpoch(); err != nil {
			proxy.Close()
			return nil, err
		}
		totalReads, totalWrites := 0, 0
		start := time.Now()
		for e := 0; e < epochs; e++ {
			r, w, err := runEpoch()
			if err != nil {
				proxy.Close()
				return nil, err
			}
			totalReads += r
			totalWrites += w
		}
		elapsed := time.Since(start)
		proxy.Close()
		storage.CloseAll(stores)
		x := fmt.Sprint(shards)
		rows = append(rows,
			Row{Experiment: "shards", Series: "Reads", X: x, Value: opsPerSec(totalReads, elapsed), Unit: "reads/s"},
			Row{Experiment: "shards", Series: "Writes", X: x, Value: opsPerSec(totalWrites, elapsed), Unit: "writes/s"},
			Row{Experiment: "shards", Series: "Total", X: x, Value: opsPerSec(totalReads+totalWrites, elapsed), Unit: "ops/s"},
			Row{Experiment: "shards", Series: "Completed", X: x, Value: perOp(totalReads+totalWrites, epochs), Unit: "ops/epoch"},
		)
	}
	return rows, nil
}
