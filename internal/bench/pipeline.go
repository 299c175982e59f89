package bench

import (
	"fmt"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Pipeline measures the epoch-boundary pipelining win (beyond the paper's
// figures, quantifying its §7 overlap argument): committed write
// transactions per second on latency-injected backends with the boundary's
// commit stage run synchronously (every epoch pays the full write-back +
// durability round trip before the next epoch starts) versus pipelined
// (epoch e's flush, checkpoints and store commit overlap epoch e+1's read
// batches). Durability is ON — the checkpoints and the store commit are
// precisely the round trips the pipeline hides.
func Pipeline(cfg Config) ([]Row, error) {
	cfg.setDefaults()
	const (
		readBatches    = 4
		readBatchSize  = 16
		writeBatchSize = 32
		txnsPerEpoch   = 8
		numKeys        = 2048
	)
	epochs := 12
	if cfg.Quick {
		epochs = 6
	}
	// The pipeline hides storage round trips, so measure in the
	// latency-bound regime it targets (dynamo's slow capped writes, the
	// WAN's fat RTT); below a scale floor the run degenerates into a CPU
	// benchmark where the boundary is already nearly free.
	profiles := []storage.Profile{storage.ProfileDynamo, storage.ProfileServerWAN}
	var rows []Row
	for _, prof := range profiles {
		for _, mode := range []struct {
			name     string
			boundary core.BoundaryMode
		}{
			{"Synchronous", core.BoundarySync},
			{"Pipelined", core.BoundaryPipelined},
		} {
			p := ringoram.Params{
				NumBlocks: numKeys, Z: 16, S: 24, A: 16,
				KeySize: 24, ValueSize: 64, Seed: cfg.Seed,
			}
			scale := cfg.LatencyScale
			if scale < 0.5 {
				scale = 0.5
			}
			if prof.Name == "server WAN" {
				// Keep the WAN point CI-friendly; ratios are what matter.
				scale /= 2
			}
			backend := storage.WithLatency(storage.NewMemBackend(p.Geometry().NumBuckets), prof.Scaled(scale))
			proxy, err := core.New(backend, core.Config{
				Params: p, Key: cryptoutil.KeyFromSeed([]byte("pipeline")),
				ReadBatches:         readBatches,
				ReadBatchSize:       readBatchSize,
				WriteBatchSize:      writeBatchSize,
				Boundary:            mode.boundary,
				FullCheckpointEvery: 4,
				Parallelism:         256,
			})
			if err != nil {
				return nil, err
			}
			rng := newRand(cfg.Seed + 1)
			runEpoch := func(e int) []<-chan error {
				chans := make([]<-chan error, 0, txnsPerEpoch)
				for i := 0; i < txnsPerEpoch; i++ {
					tx := proxy.Begin()
					// Distinct keys within an epoch: no write-write aborts.
					k := fmt.Sprintf("p-%d-%d", i, rng.IntN(numKeys/txnsPerEpoch))
					if err := tx.Write(k, []byte("v")); err != nil {
						tx.Abort()
						continue
					}
					chans = append(chans, tx.CommitAsync())
				}
				// The fixed schedule: R read batches, then the boundary. In
				// pipelined mode EndEpoch returns at the seal, so the next
				// epoch's batches overlap this epoch's commit stage.
				for b := 0; b < readBatches; b++ {
					if err := proxy.StepReadBatch(); err != nil {
						return chans
					}
				}
				proxy.EndEpoch()
				return chans
			}
			// Warm-up epoch (initial evictions), then measure.
			for _, ch := range runEpoch(-1) {
				<-ch
			}
			start := time.Now()
			var chans []<-chan error
			for e := 0; e < epochs; e++ {
				chans = append(chans, runEpoch(e)...)
			}
			committed := 0
			for _, ch := range chans {
				if err := <-ch; err == nil {
					committed++
				}
			}
			elapsed := time.Since(start)
			proxy.Close()
			backend.Close()
			if committed == 0 {
				return nil, fmt.Errorf("bench: pipeline %s/%s committed nothing", mode.name, prof.Name)
			}
			rows = append(rows, Row{Experiment: "pipeline", Series: mode.name, X: prof.Name, Value: opsPerSec(committed, elapsed), Unit: "txns/s", Profile: prof.Name, Shards: 1})
		}
	}
	return rows, nil
}
