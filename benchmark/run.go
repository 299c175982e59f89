package main

import (
	"fmt"
	"io"
	"sort"
)

// This file sequences one benchmark run: set-up, the measured pass or
// passes, the oracle, and the metrics.

const setupRepeats = 3 // set-ups per full untraced run; setup_s is their median

// options are one run's inputs.
type options struct {
	w        *workload
	seed     uint64
	seconds  float64 // reference-host length of the measured pass
	warmup   int     // epochs run before measuring
	setups   int     // untraced run: set-ups performed (the last one is measured on)
	trace    bool
	traceOut string // traced run: where to write the spans (optional)
	dataRoot string
	log      io.Writer // progress and diagnostics
}

// result is what a run reports: the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// blocksFor converts a pass length into its fixed amount of work.
func (o *options) blocksFor(seconds float64) int {
	n := int(seconds*o.w.blocksPerSecond + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// measure runs one pass on a fresh driver over e, then drains it and checks
// the store against the oracle.
func (o *options) measure(e *env, nblocks int, tr *tracer) (*passResult, *driver, error) {
	d := newDriver(e, o.seed)
	if tr != nil {
		d.tr = tr
		e.counters.tracer.Store(tr)
		defer e.counters.tracer.Store(nil)
	}
	// A host much slower than the reference one stops at one and a half
	// times the nominal length rather than overrunning the caller's limit.
	maxWall := int64(1.5 * float64(nblocks) / o.w.blocksPerSecond * 1e9)
	res, err := d.runPass(o.warmup, nblocks, maxWall)
	if err != nil {
		return nil, nil, err
	}
	if err := d.drain(); err != nil {
		return nil, nil, err
	}
	if err := d.verifyStore(); err != nil {
		return nil, nil, err
	}
	if res.truncated {
		fmt.Fprintf(o.log, "note: pass cut short after %d of %d blocks (host slower than the reference)\n", len(res.blocks), nblocks)
	}
	return res, d, nil
}

// run executes one benchmark run and returns its result. Any error —
// including an oracle violation — means no metrics.
func (o *options) run() (*result, error) {
	if o.trace {
		return o.runTraced()
	}
	var e *env
	setups := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		start := nanotime()
		var err error
		if e, err = newEnv(o.w, o.seed, o.dataRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(nanotime()-start)/1e9)
	}
	defer e.close()
	res, d, err := o.measure(e, o.blocksFor(o.seconds), nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s seed=%d: set-ups %.3f s\n", o.w.name, o.seed, setups)
	sort.Float64s(setups)
	wallMs, cpuMs := quietEpoch(res.epochs)
	fmt.Fprintf(o.log, "%s seed=%d: %d blocks, %.2fs measured, %d epochs, %d commits; quiet epoch %.3f ms wall, %.3f ms CPU\n",
		o.w.name, o.seed, len(res.blocks), float64(res.wallNs)/1e9, len(res.epochs), res.acked, wallMs, cpuMs)
	return &result{
		Correct:   true,
		Attempted: d.generated,
		Failed:    d.failed,
		Metrics:   collect(endToEnd, endToEndValues(res, setups[len(setups)/2])),
	}, nil
}

// runTraced splits the run between an untraced and a traced pass over two
// identically seeded systems: the second gives the spans, counts and epoch
// times, the first prices the tracing. The two passes must agree on every
// logical count.
func (o *options) runTraced() (*result, error) {
	nblocks := o.blocksFor(o.seconds / 2)
	pass := func(tr *tracer) (*passResult, *driver, error) {
		e, err := newEnv(o.w, o.seed, o.dataRoot)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		defer e.close()
		return o.measure(e, nblocks, tr)
	}
	timed, _, err := pass(nil)
	if err != nil {
		return nil, err
	}
	// Room for the driver's and the store's spans of every epoch.
	tr := newTracer((nblocks*blockEpochs + o.warmup) * 64)
	traced, d, err := pass(tr)
	if err != nil {
		return nil, err
	}
	if !timed.truncated && !traced.truncated {
		a, b := timed.stats, traced.stats
		if a.Committed != b.Committed || a.Epochs != b.Epochs || a.ReadBatchSlots != b.ReadBatchSlots ||
			a.RealReads != b.RealReads || a.RealWrites != b.RealWrites {
			return nil, fmt.Errorf("timed and traced passes disagree: committed %d/%d epochs %d/%d read slots %d/%d real reads %d/%d real writes %d/%d",
				a.Committed, b.Committed, a.Epochs, b.Epochs, a.ReadBatchSlots, b.ReadBatchSlots, a.RealReads, b.RealReads, a.RealWrites, b.RealWrites)
		}
	}
	probes, err := runProbes(o.w, o.seed)
	if err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	fmt.Fprintf(o.log, "%s seed=%d traced: 2x%d blocks, %d spans\n", o.w.name, o.seed, nblocks, len(tr.spans))
	return &result{
		Correct:   true,
		Attempted: d.generated,
		Failed:    d.failed,
		Metrics:   collect(perLayer, perLayerValues(o.w, timed, traced, tr, probes)),
	}, nil
}
