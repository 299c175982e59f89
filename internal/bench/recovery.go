package bench

import (
	"fmt"
	"os"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// Recovery measures cold-start crash recovery of the disk backend — heap
// replay, KV replay and segmented recovery-log replay with per-record crc32c
// verification — at 1, 2 and 4 replay workers (beyond the paper: pFSCK-style
// parallel check/replay). One worker is the serial baseline; the parallel
// rows show how much of the reopen is the embarrassingly parallel per-file
// scan. The store is built once with a small segment roll-over so the log
// fans out into enough segments for the worker pool to matter.
//
// The last rows put uptime on the x-axis (the paper's Table 11b holds it
// fixed): the proxy runs 64, 512 and 4096 epochs before the crash, and what
// recovery reads off the log and how long it takes must not move — the log
// is cut at every full checkpoint, so recovery cost is a function of the
// ORAM's size and the public parameters only.
func Recovery(cfg Config) ([]Row, error) {
	cfg.setDefaults()
	epochs, iters := 16, 20
	if cfg.Quick {
		epochs, iters = 8, 5
	}
	dir, err := os.MkdirTemp("", "obladi-bench-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := buildRecoveryStore(dir, epochs); err != nil {
		return nil, err
	}
	var rows []Row
	for _, workers := range []int{1, 2, 4} {
		times := make([]time.Duration, 0, iters)
		var total time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			b, err := storage.OpenDiskBackendOpts(dir, 0, storage.DiskOptions{RecoveryWorkers: workers})
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			if err := b.Close(); err != nil {
				return nil, err
			}
			times = append(times, d)
			total += d
		}
		rows = append(rows, Row{
			Experiment: "recovery",
			Series:     "Replay",
			X:          fmt.Sprintf("%d-workers", workers),
			Value:      float64(total) / float64(iters) / float64(time.Millisecond),
			Unit:       "ms/recovery",
			Profile:    "Disk",
			P50ms:      percentile(times, 50),
			P99ms:      percentile(times, 99),
		})
	}
	lhRows, err := recoveryLogHeap(cfg, epochs, iters)
	if err != nil {
		return nil, err
	}
	upRows, err := recoveryVsUptime(cfg, iters)
	if err != nil {
		return nil, err
	}
	return append(append(rows, lhRows...), upRows...), nil
}

// uptimeAxis is the epochs-before-the-crash sweep shared by the recovery and
// failover experiments. Every point sits at the same phase of the
// full-checkpoint cadence, so the logs compared hold the same records.
func uptimeAxis(cfg Config) []int {
	if cfg.Quick {
		return []int{32, 128, 512}
	}
	return []int{64, 512, 4096}
}

// runEpochs steps a manually driven proxy through n epochs, each committing
// one write over a small fixed key set.
func runEpochs(p *core.Proxy, readBatches, n int) error {
	for e := 0; e < n; e++ {
		tx := p.Begin()
		if err := tx.Write(fmt.Sprintf("up-%03d", e%256), []byte("v")); err != nil {
			return err
		}
		ack := tx.CommitAsync()
		for b := 0; b < readBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				return err
			}
		}
		if err := p.EndEpoch(); err != nil {
			return err
		}
		if err := <-ack; err != nil {
			return err
		}
	}
	return nil
}

// recoveryVsUptime crashes a proxy after a growing number of epochs and
// measures the log recovery of §8 — scan, decrypt, decode, rebuild the ORAM
// metadata — each time: bytes read off the log, and time.
func recoveryVsUptime(cfg Config, iters int) ([]Row, error) {
	key := cryptoutil.KeyFromSeed([]byte("bench-recovery-uptime"))
	ccfg := core.Config{
		Params:      ringoram.Params{NumBlocks: 4096, Z: 8, S: 12, A: 8, KeySize: 24, ValueSize: 64, Seed: cfg.Seed},
		Key:         key,
		ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 32,
	}
	wcfg, err := core.WALConfigFor(ccfg, 0, 1)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, uptime := range uptimeAxis(cfg) {
		backend := storage.NewMemBackend(ccfg.Params.Geometry().NumBuckets)
		p, err := core.New(backend, ccfg)
		if err != nil {
			return nil, err
		}
		// A few epochs past the axis point, so the crash is not on a
		// truncation's heels, then one read batch of the epoch that dies.
		if err := runEpochs(p, ccfg.ReadBatches, uptime+3); err != nil {
			return nil, err
		}
		if err := p.StepReadBatch(); err != nil {
			return nil, err
		}
		times := make([]time.Duration, 0, iters)
		var total time.Duration
		var bytesRead int
		for i := 0; i < iters; i++ {
			l, err := wal.New(backend, wcfg)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			rec, err := l.Recover()
			if err != nil {
				return nil, err
			}
			if _, err := ringoram.Restore(key, ccfg.Params, rec.Full, rec.Deltas...); err != nil {
				return nil, err
			}
			d := time.Since(start)
			times = append(times, d)
			total += d
			bytesRead = rec.Stats.BytesRead
		}
		p.Close()
		x := fmt.Sprintf("%d-epochs", uptime)
		rows = append(rows,
			Row{Experiment: "recovery", Series: "LogRecovery/uptime", X: x, Profile: "Mem", Unit: "ms/recovery",
				Value: float64(total) / float64(iters) / float64(time.Millisecond), P50ms: percentile(times, 50), P99ms: percentile(times, 99)},
			Row{Experiment: "recovery", Series: "LogBytesRead/uptime", X: x, Profile: "Mem", Unit: "KiB",
				Value: float64(bytesRead) / 1024},
		)
	}
	return rows, nil
}

// recoveryLogHeap measures the same cold start for a 2-shard logheap group:
// the reopen scans mixed WAL+bucket segments, demuxes per-shard streams,
// loads each shard's index checkpoint and replays only the records above its
// watermark — the parallel segment scan plus the index rebuild the unified
// log trades the heap file for.
func recoveryLogHeap(cfg Config, epochs, iters int) ([]Row, error) {
	const shards = 2
	dir, err := os.MkdirTemp("", "obladi-bench-recovery-lh-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := buildLogHeapRecoveryStore(dir, shards, epochs); err != nil {
		return nil, err
	}
	var rows []Row
	for _, workers := range []int{1, 2, 4} {
		times := make([]time.Duration, 0, iters)
		var total time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			g, err := storage.OpenDiskGroupOpts(dir, shards, 0, storage.DiskOptions{
				LogHeap: true, RecoveryWorkers: workers,
			})
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			if err := g.Close(); err != nil {
				return nil, err
			}
			times = append(times, d)
			total += d
		}
		rows = append(rows, Row{
			Experiment: "recovery",
			Series:     "Replay+logheap",
			X:          fmt.Sprintf("%d-workers", workers),
			Value:      float64(total) / float64(iters) / float64(time.Millisecond),
			Unit:       "ms/recovery",
			Profile:    "Disk+logheap",
			Shards:     shards,
			P50ms:      percentile(times, 50),
			P99ms:      percentile(times, 99),
		})
	}
	return rows, nil
}

// buildLogHeapRecoveryStore populates a logheap group dir: every shard's
// bucket versions, WAL records and epoch commits multiplexed into one
// many-segment physical log, plus per-shard KV entries. The graceful close
// installs each shard's index checkpoint, so the measured reopen does what a
// production restart does: load checkpoints, then scan and demux the mixed
// segments above the watermarks.
func buildLogHeapRecoveryStore(dir string, shards, epochs int) error {
	g, err := storage.OpenDiskGroupOpts(dir, shards, 64, storage.DiskOptions{
		LogHeap: true, SegMaxBytes: 32 << 10,
	})
	if err != nil {
		return err
	}
	views := g.Backends()
	payload := make([]byte, 512)
	for e := uint64(1); e <= uint64(epochs); e++ {
		for s, v := range views {
			var writes []storage.BucketWrite
			for bucket := 0; bucket < 64; bucket++ {
				writes = append(writes, storage.BucketWrite{Bucket: bucket, Epoch: e, Slots: [][]byte{payload, payload}})
			}
			if err := v.WriteBuckets(writes); err != nil {
				return err
			}
			for r := 0; r < 32; r++ {
				if _, err := v.Append(payload); err != nil {
					return err
				}
			}
			if err := v.Put(fmt.Sprintf("ckpt-%d-%d", s, e), payload); err != nil {
				return err
			}
		}
		for _, v := range views {
			if err := v.CommitEpoch(e); err != nil {
				return err
			}
		}
	}
	return g.Close()
}

// buildRecoveryStore populates dir with a bucket heap, KV entries and a
// many-segment recovery log, so a reopen has real replay work in every
// namespace.
func buildRecoveryStore(dir string, epochs int) error {
	b, err := storage.OpenDiskBackendOpts(dir, 64, storage.DiskOptions{SegMaxBytes: 32 << 10})
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	for e := uint64(1); e <= uint64(epochs); e++ {
		var writes []storage.BucketWrite
		for bucket := 0; bucket < 64; bucket++ {
			writes = append(writes, storage.BucketWrite{Bucket: bucket, Epoch: e, Slots: [][]byte{payload, payload}})
		}
		if err := b.WriteBuckets(writes); err != nil {
			return err
		}
		for r := 0; r < 64; r++ {
			if _, err := b.Append(payload); err != nil {
				return err
			}
		}
		if err := b.Put(fmt.Sprintf("ckpt-%d", e), payload); err != nil {
			return err
		}
		if err := b.CommitEpoch(e); err != nil {
			return err
		}
	}
	return b.Close()
}
