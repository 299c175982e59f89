package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obladi/internal/storage"
)

// goldenStreams pins the first 1000 generated transactions of every
// workload for seed 1: the load is frozen, and a change to a generator must
// show up here and be made deliberately.
var goldenStreams = map[string]string{
	"kv-mem":     "d63cf5a76c20225d",
	"kv-contend": "36524ba2546913fd",
	"bank-disk":  "dea03583eee42230",
	"kv-wire":    "baf3cbe48193953e",
}

func streamHash(w *workload, seed uint64, n int) string {
	g := newGenerator(w, seed)
	h := sha256.New()
	var buf []byte
	for i := 0; i < n; i++ {
		spec := g.next()
		buf = spec.appendTo(buf[:0])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestGoldenStreams(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if got := streamHash(w, 1, 1000); got != goldenStreams[w.name] {
			t.Errorf("%s: stream hash %s, golden %s", w.name, got, goldenStreams[w.name])
		}
		if streamHash(w, 1, 1000) == streamHash(w, 2, 1000) {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", w.name)
		}
	}
}

// TestQuietEstimator checks the estimator on synthetic data: epochs that
// differ by phase (every 16th is dearer), additive bursts on a quarter of
// them. The bursts move the mean but not the quiet cost, and the quiet cost
// is the phase-weighted cost of a cycle, not the cost of the cheapest epoch.
func TestQuietEstimator(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2, 5}, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("interpolated quartile = %v, want 2.5", got)
	}
	const n = 200 * epochStrata
	quiet := make([]block, n)
	noisy := make([]block, n)
	for i := range quiet {
		base := int64(5e6)
		if i%epochStrata == 0 {
			base = 9e6 // the full-checkpoint epoch
		}
		quiet[i] = block{wallNs: base, cpuNs: base + 1e6, commits: 64}
		noisy[i] = quiet[i]
		if (i/epochStrata)%4 == 1 || i%7 == 0 {
			noisy[i].wallNs += int64(1e6 + (i%13)*3e5)
			noisy[i].cpuNs += int64(5e5 + (i%11)*2e5)
		}
	}
	wantWall := (15*5.0 + 9.0) / 16
	qw, qc := quietEpoch(quiet)
	nw, nc := quietEpoch(noisy)
	if math.Abs(qw-wantWall) > 1e-9 || math.Abs(qc-wantWall-1) > 1e-9 {
		t.Errorf("quiet epoch of clean data = %v wall, %v cpu; want %v, %v", qw, qc, wantWall, wantWall+1)
	}
	if math.Abs(nw/qw-1) > 0.002 || math.Abs(nc/qc-1) > 0.002 {
		t.Errorf("quiet epoch moved under bursts: wall %v -> %v, cpu %v -> %v", qw, nw, qc, nc)
	}
	sum := 0.0
	for _, e := range noisy {
		sum += float64(e.wallNs) / 1e6
	}
	if m := sum / n / qw; m < 1.05 {
		t.Fatalf("bursts moved the mean by only %.3f", m)
	}
	// The decomposed epochs are a tenth of every stratum, none from a burst.
	marked := quietEpochs(noisy)
	perStratum := make([]int, epochStrata)
	for i, m := range marked {
		if !m {
			continue
		}
		perStratum[i%epochStrata]++
		if noisy[i].wallNs != quiet[i].wallNs {
			t.Fatalf("epoch %d is marked quiet but carries a burst", i)
		}
	}
	for s, n := range perStratum {
		if n == 0 {
			t.Errorf("stratum %d has no quiet epoch", s)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {20, 30}}
	if got := covered(ivs, 1, 25); got != 3+3+5 {
		t.Errorf("covered = %d, want 11", got)
	}
}

// TestDriverPathHasNoTimers: load must come from stepping, never from
// sleeping or timers, anywhere in the program.
func TestDriverPathHasNoTimers(t *testing.T) {
	banned := []string{"time.Sleep", "time.After", "time.NewTimer", "time.Tick", "time.NewTicker", "time.AfterFunc"}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("listing the package's sources: %v, %v", files, err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if strings.Contains(string(src), b) {
				t.Errorf("%s uses %s", file, b)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads the program defines.
func TestBenchmarkJSONMatches(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %s/%s/%s, program has %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v, program has %v", kind, m.Name, *m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// TestMeterMirrorsCapabilities: a type assertion on the wrapper must answer
// as it would on the wrapped store, or the proxy would take another commit
// path than the one deployed.
func TestMeterMirrorsCapabilities(t *testing.T) {
	var c storageCounters
	mem, err := meterBackends([]storage.Backend{storage.NewMemBackend(7)}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem[0].(storage.Fenceable); !ok {
		t.Error("wrapped MemBackend lost Fenceable")
	}
	if _, ok := mem[0].(storage.LogBatcher); ok {
		t.Error("wrapped MemBackend gained LogBatcher")
	}
	if _, ok := mem[0].(storage.EpochCommitBatcher); ok {
		t.Error("wrapped MemBackend gained EpochCommitBatcher")
	}
	view, token, err := mem[0].(storage.Fenceable).AcquireFence()
	if err != nil || token == 0 {
		t.Fatalf("AcquireFence through the wrapper: token %d, %v", token, err)
	}
	before := c.calls[callAppend].Load()
	if _, err := view.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.calls[callAppend].Load() != before+1 {
		t.Error("calls through a fenced view are not counted")
	}

	for _, logHeap := range []bool{false, true} {
		g, err := storage.OpenDiskGroupOpts(t.TempDir(), 2, 7, storage.DiskOptions{LogHeap: logHeap})
		if err != nil {
			t.Fatal(err)
		}
		raw := g.Backends()
		wrapped, err := meterBackends(raw, &c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			if _, ok := wrapped[i].(storage.LogBatcher); !ok {
				t.Errorf("logheap=%v shard %d lost LogBatcher", logHeap, i)
			}
			rawECB, rawOK := raw[i].(storage.EpochCommitBatcher)
			ecb, ok := wrapped[i].(storage.EpochCommitBatcher)
			if ok != rawOK || ok != logHeap {
				t.Fatalf("logheap=%v shard %d: EpochCommitBatcher raw=%v wrapped=%v", logHeap, i, rawOK, ok)
			}
			if ok && (ecb.CommitStream() != rawECB.CommitStream() ||
				ecb.CommitStream() != wrapped[0].(storage.EpochCommitBatcher).CommitStream()) {
				t.Errorf("shard %d: CommitStream identity not preserved", i)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// quickOptions is the smoke configuration: one set-up, a short warm-up, a
// one-second pass.
func quickOptions(t *testing.T, name string, trace bool) options {
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return options{w: w, seed: 1, seconds: 1, warmup: blockEpochs, setups: 1, trace: trace,
		dataRoot: t.TempDir(), log: io.Discard}
}

// TestUnifiedCommitThroughMeter proves the wrapped bank-disk proxy still
// takes the single-barrier commit: epochs retire through CommitEpochNoSync,
// never through CommitEpoch's own barrier, and the fsync waves the disk
// group served match the barrier rounds the wrapper counted.
func TestUnifiedCommitThroughMeter(t *testing.T) {
	o := quickOptions(t, "bank-disk", false)
	e, err := newEnv(o.w, o.seed, o.dataRoot)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	d := newDriver(e, o.seed)
	res, err := d.runPass(o.warmup, 2, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	epochs := int64(len(res.blocks) * blockEpochs)
	if n := e.counters.commitsInline.Load(); n != int64(o.w.shards) {
		// InitORAM commits epoch 0 inline once per shard; nothing after.
		t.Errorf("%d inline CommitEpoch calls, want %d (bootstrap only)", n, o.w.shards)
	}
	if n := e.counters.commitsNoSync.Load(); n < epochs*int64(o.w.shards) {
		t.Errorf("%d CommitEpochNoSync calls over %d epochs of %d shards", n, epochs, o.w.shards)
	}
	// Every shard calls SyncLog once per round (R read batches, the write
	// batch, the commit); the group coalesces a round into about one wave.
	rounds := float64(res.storage.barriers) / float64(o.w.shards) / float64(epochs)
	if want := float64(o.w.readBatches + 2); rounds != want {
		t.Errorf("%.2f barrier rounds per epoch, want %.0f", rounds, want)
	}
	waves := float64(res.fsyncs) / float64(epochs)
	if waves < 0.9*rounds || waves > 1.4*rounds {
		t.Errorf("%.2f fsync waves per epoch for %.2f barrier rounds", waves, rounds)
	}
}

// TestQuickSmoke runs every workload's traced run end to end — stepping,
// oracle, cross-pass count check, probes, trace writer — and an untraced
// run of kv-mem, and checks what the committed numbers rely on.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		name := workloads[i].name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := quickOptions(t, name, true)
			o.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
			res, err := o.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			m := func(name string) float64 {
				v, ok := res.Metrics[name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Fatalf("metric %s = %v (present %v)", name, v.Value, ok)
				}
				return v.Value
			}
			if c := m("trace.coverage"); c < 95 {
				t.Errorf("trace.coverage = %.2f%%", c)
			}
			aborts := m("mvtso.conflict_aborts_per_commit") + m("mvtso.cascading_aborts_per_commit")
			switch name {
			case "kv-mem", "kv-wire":
				if aborts != 0 {
					t.Errorf("%v aborts per commit on an uncontended workload", aborts)
				}
			case "kv-contend":
				if m("mvtso.conflict_aborts_per_commit") <= 0 {
					t.Error("no conflict aborts under contention")
				}
			}
			if wire := m("clientproto.wire_us_per_op"); (wire > 0) != (name == "kv-wire") {
				t.Errorf("clientproto.wire_us_per_op = %v", wire)
			}
			if fsyncs := m("storage.fsyncs_per_epoch"); (fsyncs > 0) != (name == "bank-disk") {
				t.Errorf("storage.fsyncs_per_epoch = %v", fsyncs)
			}
			for _, d := range perLayer {
				if !strings.Contains(d.name, ".") || strings.HasPrefix(d.name, "core.") || strings.Contains(d.name, ".probe_") {
					if m(d.name) <= 0 {
						t.Errorf("%s = %v", d.name, m(d.name))
					}
				}
			}
			checkTraceFile(t, o.traceOut)
		})
	}
	t.Run("kv-mem-untraced", func(t *testing.T) {
		t.Parallel()
		o := quickOptions(t, "kv-mem", false)
		res, err := o.run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
			t.Fatalf("correct=%v failed=%d metrics=%d", res.Correct, res.Failed, len(res.Metrics))
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, v)
			}
		}
		if v := res.Metrics["attempts_per_commit"].Value; v != 1 {
			t.Errorf("attempts_per_commit = %v on kv-mem", v)
		}
	})
}

// checkTraceFile reads the spans back: every line is a span whose parent,
// if any, is an earlier span that contains its start.
func checkTraceFile(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := make(map[int]spanRecord)
	names := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if rec.End < rec.Start {
			t.Fatalf("span %d ends before it starts", rec.ID)
		}
		spans[rec.ID] = rec
		names[rec.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"driver.epoch", "core.step_read", "core.seal", "core.commit_stage", "storage.read", "storage.write"} {
		if names[name] == 0 {
			t.Errorf("trace has no %s span", name)
		}
	}
	for id, rec := range spans {
		if rec.Parent < 0 {
			continue
		}
		if rec.Parent >= id {
			t.Fatalf("span %d has later parent %d", id, rec.Parent)
		}
	}
}
