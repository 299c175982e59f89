// Package bench regenerates every table and figure of the paper's
// evaluation (§11). Each experiment returns rows of (series, x, value) that
// print as the same series the paper plots. Absolute numbers depend on the
// host and on the latency scale factor. Beside the timings each figure emits
// counted rows, measured at the storage boundary through a storage.Recorder —
// round trips, bucket writes, log bytes, committed operations — which are
// exact for a seed and carry the paper's structural claims; the shape tests
// assert only on those.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks data sizes and run lengths to CI scale.
	Quick bool
	// LatencyScale multiplies the canonical storage latency profiles
	// (1.0 = paper-like; default 0.1 quick / 0.25 full).
	LatencyScale float64
	// Seed makes experiments deterministic where possible.
	Seed uint64
}

func (c *Config) setDefaults() {
	if c.LatencyScale == 0 {
		if c.Quick {
			c.LatencyScale = 0.1
		} else {
			c.LatencyScale = 0.25
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Row is one data point: Experiment/Series identify the curve or bar, X the
// position on the x-axis, Value the measurement in Unit — a throughput, a
// latency, a ratio, a size or a count.
type Row struct {
	Experiment string
	Series     string
	X          string
	Value      float64
	Unit       string
}

// Experiment names in paper order.
var experiments = []struct {
	name string
	desc string
	run  func(Config) ([]Row, error)
}{
	{"fig9a", "application throughput (Obladi, NoPriv, MySQL, ObladiW, NoPrivW)", Fig9a},
	{"fig9b", "application latency", Fig9b},
	{"fig10a", "sequential vs parallel vs parallel+crypto ops/s, and storage round trips per op", Fig10a},
	{"fig10b", "throughput and storage round trips per op vs batch size", Fig10b},
	{"fig10c", "latency and storage round trips per op vs batch size", Fig10c},
	{"fig10d", "delayed visibility (normal vs write back): throughput and bucket writes per op", Fig10d},
	{"fig10e", "epoch size impact on ORAM throughput and bucket writes per op", Fig10e},
	{"fig10f", "epoch size impact on application throughput", Fig10f},
	{"fig11a", "throughput and log bytes per commit vs checkpoint frequency", Fig11a},
	{"table11b", "recovery cost breakdown, and what recovery reads vs uptime", Table11b},
	{"shards", "aggregate throughput and committed ops per epoch vs shard count (beyond the paper: sharded proxy)", ShardScale},
}

// Names lists all experiment ids.
func Names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range experiments {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by name.
func Run(name string, cfg Config) ([]Row, error) {
	cfg.setDefaults()
	for _, e := range experiments {
		if e.name == name {
			return e.run(cfg)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
}

// Print renders rows as an aligned table grouped by experiment and series.
func Print(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "EXPERIMENT\tSERIES\tX\tVALUE\tUNIT")
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Experiment != sorted[j].Experiment {
			return sorted[i].Experiment < sorted[j].Experiment
		}
		return false // keep insertion order within an experiment
	})
	for _, r := range sorted {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Experiment, r.Series, r.X, formatValue(r.Value), r.Unit)
	}
	return tw.Flush()
}

// formatValue prints two decimals, or three significant digits below one so
// that small per-op counts stay readable.
func formatValue(v float64) string {
	if v != 0 && math.Abs(v) < 1 {
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// opsPerSec converts a count and duration to a rate.
func opsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
