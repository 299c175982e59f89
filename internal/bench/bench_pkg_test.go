package bench

import (
	"bytes"
	"strings"
	"testing"

	"obladi/internal/storage"
)

// quickCfg is an extra-small configuration so harness tests stay fast. The
// shape tests read counted rows only, which do not depend on the latency
// scale, so it is small.
func quickCfg() Config {
	return Config{Quick: true, LatencyScale: 0.02, Seed: 7}
}

// table indexes rows by series and x.
type table map[string]map[string]float64

func index(rows []Row) table {
	tb := table{}
	for _, r := range rows {
		if tb[r.Series] == nil {
			tb[r.Series] = map[string]float64{}
		}
		tb[r.Series][r.X] = r.Value
	}
	return tb
}

// get returns the value at series/x, failing the test if the row is missing.
func (tb table) get(t *testing.T, series, x string) float64 {
	t.Helper()
	v, ok := tb[series][x]
	if !ok {
		t.Fatalf("missing row %s/%s", series, x)
	}
	return v
}

// falling checks that series strictly decreases along xs.
func (tb table) falling(t *testing.T, series string, xs ...string) {
	t.Helper()
	for i := 1; i < len(xs); i++ {
		if prev, cur := tb.get(t, series, xs[i-1]), tb.get(t, series, xs[i]); cur >= prev {
			t.Errorf("%s did not fall from x=%s to x=%s: %v -> %v", series, xs[i-1], xs[i], prev, cur)
		}
	}
}

// profileNames lists the Figure 10 backends.
func profileNames() []string {
	var names []string
	for _, p := range storage.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("expected 11 experiments (every table and figure, plus shards), got %d: %v", len(names), names)
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Fatalf("experiment %q has no description", n)
		}
	}
	if _, err := Run("nonsense", quickCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPrintFormatsRows(t *testing.T) {
	rows := []Row{
		{Experiment: "figX", Series: "s", X: "1", Value: 12.5, Unit: "ops/s"},
		{Experiment: "figX", Series: "s", X: "2", Value: 0.0125, Unit: "calls/op"},
	}
	var buf bytes.Buffer
	if err := Print(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "12.50") || !strings.Contains(out, "0.0125") {
		t.Fatalf("print output:\n%s", out)
	}
}

// TestFig10aShape: the parallel executor's batch crosses storage in a few
// vectored calls where the sequential client pays one per slot and bucket,
// and encryption leaves the call and slot trace exactly as it was.
func TestFig10aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, x := range profileNames() {
		seq, par := tb.get(t, "Sequential round trips", x), tb.get(t, "Parallel round trips", x)
		if par >= seq {
			t.Errorf("%s: parallel %v round trips per op, sequential %v", x, par, seq)
		}
		if crypto := tb.get(t, "ParallelCrypto round trips", x); crypto != par {
			t.Errorf("%s: encryption changed the round trips per op: %v vs %v", x, crypto, par)
		}
		if diff := tb.get(t, "ParallelCrypto trace diff", x); diff != 0 {
			t.Errorf("%s: encryption changed %v events of the slot trace", x, diff)
		}
	}
}

// TestFig10bShape: batching amortises round trips, so they fall per op as the
// batch grows.
func TestFig10bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, x := range profileNames() {
		tb.falling(t, x+" round trips", "1", "10", "100", "500")
	}
}

// TestFig10dShape: delayed visibility writes each bucket once per epoch, so
// it writes fewer buckets per op than write-through.
func TestFig10dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10d(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, x := range profileNames() {
		if normal, wt := tb.get(t, "Normal bucket writes", x), tb.get(t, "Write Back bucket writes", x); normal >= wt {
			t.Errorf("%s: delayed visibility wrote %v buckets per op, write-through %v", x, normal, wt)
		}
	}
}

// TestFig10eShape: a longer epoch deduplicates more bucket rewrites.
func TestFig10eShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig10e(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, x := range profileNames() {
		tb.falling(t, x+" bucket writes", "1", "2", "8", "32")
	}
}

// TestFig11aShape: rarer full checkpoints cost fewer log bytes per commit.
func TestFig11aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig11a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, p := range []storage.Profile{storage.ProfileServer, storage.ProfileServerWAN, storage.ProfileDynamo} {
		tb.falling(t, p.Name+" log bytes", "1", "4", "16")
	}
}

func TestTable11bProducesAllRows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table11b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	for _, series := range []string{"Levels", "Slowdown", "RecTime", "Network", "Pos", "Perm", "Paths"} {
		if len(tb[series]) != 2 {
			t.Errorf("table11b series %q has %d points, want one per size", series, len(tb[series]))
		}
	}
	if small, large := tb.get(t, "Levels", "2000"), tb.get(t, "Levels", "10000"); large <= small {
		t.Errorf("levels do not grow with size: %v -> %v", small, large)
	}
	for _, series := range []string{"LogRecovery/uptime", "LogBytesRead/uptime", "RecordsReplayed/uptime"} {
		if len(tb[series]) != 3 {
			t.Errorf("table11b series %q has %d points, want one per uptime", series, len(tb[series]))
		}
	}
}

// TestRecoveryShape: the log is cut at every full checkpoint, so what
// recovery reads does not grow with uptime. The axis points share a cadence
// phase and hold the same records, whose sizes differ only with the keys
// written.
func TestRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := recoveryVsUptime(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("expected time, bytes and records rows at three uptime points: %+v", rows)
	}
	for _, r := range rows {
		if r.Value <= 0 {
			t.Errorf("%s %s: nonpositive value %f", r.Series, r.X, r.Value)
		}
	}
	tb := index(rows)
	axis := []string{"32-epochs", "128-epochs", "512-epochs"}
	records, kib := tb.get(t, "RecordsReplayed/uptime", axis[0]), tb.get(t, "LogBytesRead/uptime", axis[0])
	if records == 0 || kib == 0 {
		t.Fatalf("recovery read nothing: %v records, %v KiB", records, kib)
	}
	for _, x := range axis[1:] {
		if r := tb.get(t, "RecordsReplayed/uptime", x); r != records {
			t.Errorf("recovery at %s read %v records, at %s %v; want it flat", x, r, axis[0], records)
		}
		if v := tb.get(t, "LogBytesRead/uptime", x); v > kib*1.1 || v < kib*0.9 {
			t.Errorf("recovery at %s read %v KiB, at %s %v; want it flat", x, v, axis[0], kib)
		}
	}
}

func TestAblationEpochCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := AblationEpochCommit(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestAblationReadCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := AblationReadCache(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
}

// TestShardScaleShape: every shard keeps its own fixed schedule, so the
// operations an epoch completes grow with the shard count.
func TestShardScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := ShardScale(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := index(rows)
	one, two, four := tb.get(t, "Completed", "1"), tb.get(t, "Completed", "2"), tb.get(t, "Completed", "4")
	if !(0 < one && one < two && two < four) {
		t.Errorf("ops completed per epoch at 1, 2, 4 shards: %v, %v, %v; want growing", one, two, four)
	}
}
