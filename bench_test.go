package obladi_test

// This file maps every table and figure of the paper's evaluation (§11)
// onto a Go benchmark. Each benchmark runs the corresponding experiment of
// internal/bench at CI scale and logs the series the paper plots; run
//
//	go test -bench=. -benchmem
//
// to regenerate all of them, or cmd/obladi-bench for full-scale runs.

import (
	"strings"
	"testing"

	"obladi"
	"obladi/internal/bench"
)

// benchCfg is the CI-scale configuration for benchmark runs.
func benchCfg() bench.Config {
	return bench.Config{Quick: true, LatencyScale: 0.25, Seed: 42}
}

// runExperiment executes one named experiment per benchmark iteration and
// logs its rows. The first (and usually only) iteration's primary metric is
// reported so `-bench` output carries a meaningful number.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Run(name, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-10s %-16s %-14s %12.2f %s", r.Experiment, r.Series, r.X, r.Value, r.Unit)
			}
			if len(rows) > 0 {
				// ReportMetric units must not contain whitespace.
				unit := strings.ReplaceAll(rows[0].Unit, " ", "_")
				b.ReportMetric(rows[0].Value, unit)
			}
		}
	}
}

// BenchmarkFig9aApplicationThroughput regenerates Figure 9a: committed
// transactions per second for Obladi, NoPriv, MySQL, ObladiW, NoPrivW on
// TPC-C, FreeHealth, and SmallBank.
func BenchmarkFig9aApplicationThroughput(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9bApplicationLatency regenerates Figure 9b: mean committed
// transaction latency for the same matrix.
func BenchmarkFig9bApplicationLatency(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig10aParallelism regenerates Figure 10a: sequential Ring ORAM
// vs the parallel executor (with and without encryption) across the four
// storage backends at batch size 500.
func BenchmarkFig10aParallelism(b *testing.B) { runExperiment(b, "fig10a") }

// BenchmarkFig10bBatchSizeThroughput regenerates Figure 10b: parallel ORAM
// throughput as the batch size sweeps upward.
func BenchmarkFig10bBatchSizeThroughput(b *testing.B) { runExperiment(b, "fig10b") }

// BenchmarkFig10cBatchSizeLatency regenerates Figure 10c: per-batch latency
// across the same sweep.
func BenchmarkFig10cBatchSizeLatency(b *testing.B) { runExperiment(b, "fig10c") }

// BenchmarkFig10dDelayedVisibility regenerates Figure 10d: buffered epoch
// write-back with bucket deduplication vs immediate write-through.
func BenchmarkFig10dDelayedVisibility(b *testing.B) { runExperiment(b, "fig10d") }

// BenchmarkFig10eEpochSizeORAM regenerates Figure 10e: relative throughput
// gain as the epoch grows in batches.
func BenchmarkFig10eEpochSizeORAM(b *testing.B) { runExperiment(b, "fig10e") }

// BenchmarkFig10fEpochSizeProxy regenerates Figure 10f: application
// throughput as a function of epoch duration.
func BenchmarkFig10fEpochSizeProxy(b *testing.B) { runExperiment(b, "fig10f") }

// BenchmarkFig11aCheckpointFrequency regenerates Figure 11a: throughput
// under durability as the full-checkpoint cadence varies.
func BenchmarkFig11aCheckpointFrequency(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkTable11bRecovery regenerates Table 11b: recovery time breakdown
// (levels, slowdown, recovery time, log bytes, position/permutation map
// entries, path replay) by database size, and the log bytes and records
// recovery reads as uptime grows.
func BenchmarkTable11bRecovery(b *testing.B) { runExperiment(b, "table11b") }

// BenchmarkPublicAPIUpdate measures the end-to-end public API on the
// embedded backend (not a paper figure; a library-user-facing number).
func BenchmarkPublicAPIUpdate(b *testing.B) {
	db, err := obladi.Open(obladi.Options{
		MaxKeys:       4096,
		KeySeed:       []byte("bench"),
		BatchInterval: 200_000, // 200µs
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Update(func(tx *obladi.Txn) error {
			return tx.Write("bench-key", []byte("bench-value"))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
