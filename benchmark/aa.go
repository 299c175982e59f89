package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// This file is the A/A mode: N full sets of the same binary, compared
// against the benchmark's own bounds. A bound is only worth gating on if
// identical code stays well inside it.

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them: the statistic the
// acceptance procedure applies to ten runs.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// maxDeviation is the largest pairwise difference as a share of the median.
func maxDeviation(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((s[len(s)-1] - s[0]) / med)
}

// runAA runs sets full sets of every workload and prints, per workload and
// end-to-end metric, the per-set values, their largest pairwise deviation,
// their quartile spread, and the bound. It fails if a deviation other than
// setup_s's exceeds its bound.
func runAA(base options, sets int) int {
	values := make(map[string]map[string][]float64) // workload -> metric -> per-set values
	for set := 0; set < sets; set++ {
		for i := range workloads {
			o := base
			o.w, o.trace = &workloads[i], false
			res, err := o.run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %s: %v\n", set+1, o.w.name, err)
				return 1
			}
			if res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %s: %d of %d transactions failed\n", set+1, o.w.name, res.Failed, res.Attempted)
				return 1
			}
			if values[o.w.name] == nil {
				values[o.w.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[o.w.name][name] = append(values[o.w.name][name], m.Value)
			}
		}
	}
	fmt.Printf("| workload | metric | unit | per-set values | max dev | IQR/median | bound |\n|---|---|---|---|---|---|---|\n")
	failed := false
	for i := range workloads {
		for _, d := range endToEnd {
			vs := values[workloads[i].name][d.name]
			strs := make([]string, len(vs))
			for k, v := range vs {
				strs[k] = fmt.Sprintf("%.5g", v)
			}
			dev := maxDeviation(vs)
			mark := ""
			if dev > d.bound {
				mark = " **over**"
				// setup_s is a wall-clock time, gated only because the
				// benchmark contract requires it; like the contract's own
				// acceptance procedure, the verdict leaves its spread out.
				failed = failed || d.name != "setup_s"
			}
			fmt.Printf("| %s | %s | %s | %s | %.2f%%%s | %.2f%% | %.0f%% |\n", workloads[i].name, d.name, d.unit,
				strings.Join(strs, " "), 100*dev, mark, 100*quartileSpread(vs), 100*d.bound)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: a deviation between identical sets exceeds its bound")
		return 1
	}
	return 0
}
