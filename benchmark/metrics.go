package main

// This file names every metric the benchmark reports and computes them from
// a pass's raw results. BENCHMARK.json lists the same names, units and
// directions; TestBenchmarkJSONMatches keeps the two in step.

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system pays per commit, per workload. No
// time is gated except setup_s: identical code differs by more than 10% in
// time on the host this was built on, so throughput and CPU time are
// per-layer diagnostics (README, "End-to-end metrics"). The counts' bounds are
// at least twice the largest deviation the -aa 5 runs showed. setup_s's is
// not: the benchmark contract requires the metric and caps its bound at 25%.
var endToEnd = []metricDef{
	{"attempts_per_commit", "count", "lower", 0.01},
	{"storage_bytes_per_commit", "B", "lower", 0.01},
	{"storage_calls_per_commit", "count", "lower", 0.01},
	{"barriers_per_epoch", "count", "lower", 0.01},
	{"allocs_per_commit", "count", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer locates a change inside the system. Ungated.
var perLayer = []metricDef{
	{"commit_tput", "1/s", "higher", 0},
	{"cpu_ms_per_commit", "ms", "lower", 0},
	{"core.step_read_ms", "ms", "lower", 0},
	{"core.seal_ms", "ms", "lower", 0},
	{"core.commit_wait_ms", "ms", "lower", 0},
	{"core.client_calls_us_per_txn", "us", "lower", 0},
	{"core.self_ms_per_epoch", "ms", "lower", 0},
	{"core.epoch_ms", "ms", "lower", 0},
	{"core.epoch_ms_mean", "ms", "lower", 0},
	{"core.epoch_ms_p90", "ms", "lower", 0},
	{"core.real_read_slot_share", "%", "higher", 0},
	{"core.real_write_slot_share", "%", "higher", 0},
	{"mvtso.conflict_aborts_per_commit", "count", "lower", 0},
	{"mvtso.cascading_aborts_per_commit", "count", "lower", 0},
	{"mvtso.probe_ns_per_txn", "ns", "lower", 0},
	{"oramexec.probe_read_batch_us", "us", "lower", 0},
	{"oramexec.probe_write_batch_us", "us", "lower", 0},
	{"oramexec.probe_flush_us", "us", "lower", 0},
	{"oramexec.physical_slots_per_read_slot", "count", "lower", 0},
	{"oramexec.local_read_share", "%", "higher", 0},
	{"oramexec.evictions_per_epoch", "count", "lower", 0},
	{"oramexec.reshuffles_per_epoch", "count", "lower", 0},
	{"ringoram.probe_plan_us_per_batch", "us", "lower", 0},
	{"ringoram.stash_peak", "count", "lower", 0},
	{"cryptoutil.probe_seal_ns_per_slot", "ns", "lower", 0},
	{"cryptoutil.probe_open_ns_per_slot", "ns", "lower", 0},
	{"wal.probe_append_us_per_batch", "us", "lower", 0},
	{"storage.log_bytes_per_commit", "B", "lower", 0},
	{"storage.read_calls_per_epoch", "count", "lower", 0},
	{"storage.write_calls_per_epoch", "count", "lower", 0},
	{"storage.log_appends_per_epoch", "count", "lower", 0},
	{"storage.read_bytes_per_commit", "B", "lower", 0},
	{"storage.write_bytes_per_commit", "B", "lower", 0},
	{"storage.read_ms_per_epoch", "ms", "lower", 0},
	{"storage.write_ms_per_epoch", "ms", "lower", 0},
	{"storage.barrier_ms_per_epoch", "ms", "lower", 0},
	{"storage.busy_share", "%", "lower", 0},
	{"storage.fsyncs_per_epoch", "count", "lower", 0},
	{"storage.fsync_ms_per_epoch", "ms", "lower", 0},
	{"storage.disk_bytes_per_commit", "B", "lower", 0},
	{"clientproto.wire_us_per_op", "us", "lower", 0},
	{"clientproto.frames_per_commit", "count", "lower", 0},
	{"clientproto.wire_bytes_per_commit", "B", "lower", 0},
	{"trace.coverage", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio is a/b, or 0 when b is 0 (a layer that is not in this workload's
// path reports 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// collect turns a name->value map into the reported form, checking that it
// covers defs exactly.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not computed")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		panic("benchmark: computed a metric that is not declared")
	}
	return out
}

// endToEndValues computes the gated metrics from the timed pass.
func endToEndValues(res *passResult, setupS float64) map[string]float64 {
	commits := float64(res.acked)
	epochs := float64(len(res.epochs))
	return map[string]float64{
		"attempts_per_commit":      ratio(float64(res.begun), commits),
		"storage_bytes_per_commit": ratio(float64(res.storage.bytesIn+res.storage.bytesOut), commits),
		"storage_calls_per_commit": ratio(float64(res.storage.totalCalls()), commits),
		"barriers_per_epoch":       ratio(float64(res.storage.barriers), epochs),
		"allocs_per_commit":        ratio(float64(res.mallocs), commits),
		"live_heap_mb":             float64(res.liveHeap) / (1 << 20),
		"setup_s":                  setupS,
	}
}

// perLayerValues computes the ungated metrics. Throughput and CPU time come
// from timed, the untraced pass; everything else from the traced pass (its
// spans, counts and epoch times belong together: the host may run at another
// speed minutes later), and the difference between the two prices the tracing.
func perLayerValues(w *workload, timed, traced *passResult, tr *tracer, pr probeResult) map[string]float64 {
	tracedMs := blockEpochMs(traced.blocks)
	timedQuiet, timedCPU := quietEpoch(timed.epochs)
	timedCommitsPerEpoch := ratio(float64(timed.acked), float64(len(timed.epochs)))
	tracedQuiet, _ := quietEpoch(traced.epochs)
	commits := float64(traced.acked)
	epochs := float64(len(traced.epochs))
	st := traced.stats
	sc := traced.storage

	// Decompose the traced pass's quiet epochs; their mean is a quiet cycle.
	q := tr.summarize(traced.firstEpoch, quietEpochs(traced.epochs))
	qEpochs := float64(q.epochs)
	clientNs := q.phaseNanos[spanClientBegin] + q.phaseNanos[spanClientResolve] + q.phaseNanos[spanClientCommit] + q.phaseNanos[spanAcks]
	qTxns := ratio(float64(traced.begun), epochs) * qEpochs

	// The whole pass, for coverage and storage occupancy.
	every := make([]bool, len(traced.epochs))
	for i := range every {
		every[i] = true
	}
	all := tr.summarize(traced.firstEpoch, every)

	v := map[string]float64{
		// Commits per epoch are fixed by the load; the quiet epoch prices them.
		"commit_tput":       ratio(timedCommitsPerEpoch, timedQuiet/1e3),
		"cpu_ms_per_commit": ratio(timedCPU, timedCommitsPerEpoch),

		"core.step_read_ms":            ratio(float64(q.phaseNanos[spanStepRead])/1e6, float64(q.phaseCount[spanStepRead])),
		"core.seal_ms":                 ratio(float64(q.phaseNanos[spanSeal])/1e6, float64(q.phaseCount[spanSeal])),
		"core.commit_wait_ms":          ratio(float64(q.phaseNanos[spanCommitStage])/1e6, float64(q.phaseCount[spanCommitStage])),
		"core.client_calls_us_per_txn": ratio(float64(clientNs)/1e3, qTxns),
		"core.self_ms_per_epoch":       ratio(float64(q.coreSelf)/1e6, qEpochs),
		"core.epoch_ms":                tracedQuiet,
		"core.epoch_ms_mean":           mean(tracedMs),
		"core.epoch_ms_p90":            quantile(tracedMs, 0.9),
		"core.real_read_slot_share":    100 * ratio(float64(st.RealReads), float64(st.ReadBatchSlots)),
		"core.real_write_slot_share":   100 * ratio(float64(st.RealWrites), float64(st.WriteSlots)),

		"mvtso.conflict_aborts_per_commit":  ratio(float64(st.ConflictAborts), commits),
		"mvtso.cascading_aborts_per_commit": ratio(float64(st.CascadingAborts), commits),
		"mvtso.probe_ns_per_txn":            pr.mvtsoNs,

		"oramexec.probe_read_batch_us":          pr.readBatchUs,
		"oramexec.probe_write_batch_us":         pr.writeBatchUs,
		"oramexec.probe_flush_us":               pr.flushUs,
		"oramexec.physical_slots_per_read_slot": ratio(float64(st.Executor.RemoteReads+st.Executor.LocalReads), float64(st.ReadBatchSlots)),
		"oramexec.local_read_share":             100 * ratio(float64(st.Executor.LocalReads), float64(st.Executor.RemoteReads+st.Executor.LocalReads)),
		"oramexec.evictions_per_epoch":          ratio(float64(st.Executor.Evictions), epochs),
		"oramexec.reshuffles_per_epoch":         ratio(float64(st.Executor.Reshuffles), epochs),

		"ringoram.probe_plan_us_per_batch": pr.planUs,
		"ringoram.stash_peak":              float64(st.StashPeak),

		"cryptoutil.probe_seal_ns_per_slot": pr.sealNs,
		"cryptoutil.probe_open_ns_per_slot": pr.openNs,

		"wal.probe_append_us_per_batch": pr.walAppendUs,
		"storage.log_bytes_per_commit":  ratio(float64(sc.logBytes), commits),

		"storage.read_calls_per_epoch":   ratio(float64(sc.calls[callRead]), epochs),
		"storage.write_calls_per_epoch":  ratio(float64(sc.calls[callWrite]), epochs),
		"storage.log_appends_per_epoch":  ratio(float64(sc.calls[callAppend]), epochs),
		"storage.read_bytes_per_commit":  ratio(float64(sc.bytesIn), commits),
		"storage.write_bytes_per_commit": ratio(float64(sc.bytesOut), commits),
		"storage.read_ms_per_epoch":      ratio(float64(sc.nanos[callRead])/1e6, epochs),
		"storage.write_ms_per_epoch":     ratio(float64(sc.nanos[callWrite])/1e6, epochs),
		"storage.barrier_ms_per_epoch":   ratio(float64(sc.nanos[callBarrier])/1e6, epochs),
		"storage.busy_share":             100 * ratio(float64(all.storageBusy), float64(all.epochNanos)),
		"storage.fsyncs_per_epoch":       ratio(float64(traced.fsyncs), epochs),
		"storage.fsync_ms_per_epoch":     ratio(float64(traced.fsyncNs)/1e6, epochs),
		"storage.disk_bytes_per_commit":  0,

		"clientproto.wire_us_per_op": 0,
		// Every request frame is answered by exactly one reply frame.
		"clientproto.frames_per_commit":     ratio(2*float64(traced.frames), commits),
		"clientproto.wire_bytes_per_commit": ratio(float64(traced.wireBytes), commits),

		"trace.coverage":     100 * ratio(float64(all.topCovered), float64(all.epochNanos)),
		"trace.overhead_pct": 100 * (ratio(tracedQuiet, timedQuiet) - 1),
	}
	if w.store == storeDisk {
		v["storage.disk_bytes_per_commit"] = ratio(float64(traced.diskBytes), commits)
	}
	if w.wire {
		// What the client waits through in its phases, less the time the
		// server spent inside the proxy on its behalf, per request frame.
		phases := all.phaseNanos[spanClientBegin] + all.phaseNanos[spanClientResolve] + all.phaseNanos[spanClientCommit]
		v["clientproto.wire_us_per_op"] = ratio(float64(phases-traced.engineNs)/1e3, float64(traced.frames))
	}
	return v
}
