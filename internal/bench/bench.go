// Package bench regenerates every table and figure of the paper's
// evaluation (§11). Each experiment returns rows of (series, x, value) that
// print as the same series the paper plots. Absolute numbers depend on the
// host and on the latency scale factor; the experiments are designed so the
// paper's *shape* (who wins, by what factor, where curves bend) reproduces.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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
	// ScaleSessions overrides the session sweep of the scale experiment
	// with a single point (0 = the default sweep).
	ScaleSessions int
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
// position on the x-axis, Value the measurement. Profile, Shards and the
// latency percentiles are optional annotations experiments fill when they
// apply; they ride into the machine-readable output (-json) so the perf
// trajectory can be tracked across PRs.
type Row struct {
	Experiment string `json:"experiment"`
	Series     string `json:"series"`
	X          string `json:"x"`
	// Value is the measurement in Unit — a throughput for the rate-style
	// experiments (the vector/pipeline/shards rows), but also latencies,
	// ratios or sizes for the figure reproductions, hence the neutral
	// JSON name.
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Profile string  `json:"profile,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	P50ms   float64 `json:"p50_ms,omitempty"`
	P99ms   float64 `json:"p99_ms,omitempty"`
	// Scale-experiment annotations: concurrent session count, offered
	// (attempted) load in txns/s, and the fraction of it load-shed.
	Sessions int     `json:"sessions,omitempty"`
	Offered  float64 `json:"offered_txns_per_sec,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
}

// WriteJSON writes one experiment's rows as BENCH_<experiment>-style JSON:
// a machine-readable record of throughput (and, where measured, latency
// percentiles) per series/profile/shard-count.
func WriteJSON(path, experiment string, rows []Row) error {
	doc := struct {
		Experiment string `json:"experiment"`
		Rows       []Row  `json:"results"`
	}{Experiment: experiment, Rows: rows}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// percentile returns the p-th percentile (0..100) of durations in
// milliseconds (nearest-rank on a sorted copy).
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted)-1)*p/100 + 0.5)
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// Experiment names in paper order.
var experiments = []struct {
	name string
	desc string
	run  func(Config) ([]Row, error)
}{
	{"fig9a", "application throughput (Obladi, NoPriv, MySQL, ObladiW, NoPrivW)", Fig9a},
	{"fig9b", "application latency", Fig9b},
	{"fig10a", "sequential vs parallel vs parallel+crypto ops/s", Fig10a},
	{"fig10b", "throughput vs batch size", Fig10b},
	{"fig10c", "latency vs batch size", Fig10c},
	{"fig10d", "delayed visibility (normal vs write back)", Fig10d},
	{"fig10e", "epoch size impact on ORAM throughput", Fig10e},
	{"fig10f", "epoch size impact on application throughput", Fig10f},
	{"fig11a", "throughput vs checkpoint frequency", Fig11a},
	{"table11b", "recovery time breakdown", Table11b},
	{"shards", "aggregate throughput vs shard count (beyond the paper: sharded proxy)", ShardScale},
	{"pipeline", "epoch-boundary pipelining: synchronous vs overlapped commit stage (beyond the paper)", Pipeline},
	{"vector", "scatter-gather storage I/O vs scalar call-per-slot baseline (beyond the paper)", Vector},
	{"disk", "durable disk backend vs in-memory store, scalar vs vectored I/O, plus 2-shard group commit (beyond the paper)", Disk},
	{"recovery", "crash-recovery time: serial vs parallel segment replay at 1/2/4 workers (beyond the paper)", Recovery},
	{"hotpath", "proxy CPU hot path: executor slot pipeline and single-shard mem throughput, with allocs/slot (beyond the paper)", HotPath},
	{"failover", "hot-standby replication tax (standalone vs replicated vs replica-acked) and measured failover timeline (beyond the paper)", Failover},
	{"scale", "overload control: committed throughput, p99 and shed rate vs session count (to 100k+) and vs offered load past saturation (beyond the paper)", Scale},
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
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%s\n", r.Experiment, r.Series, r.X, r.Value, r.Unit)
	}
	return tw.Flush()
}

// opsPerSec converts a count and duration to a rate.
func opsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
