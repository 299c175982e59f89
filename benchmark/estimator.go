package main

import (
	"math"
	"sort"
)

// The timing estimator. Interference on a shared host is additive: it makes
// some epochs slower and none faster, so the low end of an epoch's cost is
// the quiet-machine cost and repeats better than the mean or the median.
// Epochs are not alike, though — every 16th writes a full checkpoint — so the
// low end is taken within strata of like epochs (epoch index modulo the
// checkpoint cadence) and the strata are averaged: a synthetic quiet cycle.
// Every epoch time the benchmark reports is computed this way; block means
// and high quantiles are reported beside it. README.md has the measurements
// behind these choices, and why no time is gated.

const (
	// quietQuantile bounds a stratum's quiet values: those at or below it.
	quietQuantile = 0.10
	// epochStrata is the proxy's full-checkpoint cadence (wal's default
	// FullCheckpointEvery), which blockEpochs is a multiple of.
	epochStrata = 16
)

// quietValues marks, in every stratum, the values at or below the stratum's
// quiet quantile (value i belongs to stratum i%epochStrata). Each stratum
// gives about the same share of its values. Fewer values than strata are one
// stratum.
func quietValues(values []float64) []bool {
	strata := epochStrata
	if len(values) < strata {
		strata = 1
	}
	marked := make([]bool, len(values))
	var stratum []float64
	for s := 0; s < strata; s++ {
		stratum = stratum[:0]
		for i := s; i < len(values); i += strata {
			stratum = append(stratum, values[i])
		}
		limit := quantile(stratum, quietQuantile)
		for i := s; i < len(values); i += strata {
			marked[i] = values[i] <= limit
		}
	}
	return marked
}

// quietMean returns the mean over strata of the mean of each stratum's quiet
// values.
func quietMean(values []float64) float64 {
	strata := epochStrata
	if len(values) < strata {
		strata = 1
	}
	marked := quietValues(values)
	total := 0.0
	for s := 0; s < strata; s++ {
		sum, n := 0.0, 0
		for i := s; i < len(values); i += strata {
			if marked[i] {
				sum, n = sum+values[i], n+1
			}
		}
		total += sum / float64(n) // a stratum's minimum is always marked
	}
	return total / float64(strata)
}

// quietEpoch returns the quiet-machine wall and CPU cost of one epoch, in
// milliseconds, from a pass's per-epoch samples.
func quietEpoch(epochs []block) (wallMs, cpuMs float64) {
	wall := make([]float64, len(epochs))
	cpu := make([]float64, len(epochs))
	for i, e := range epochs {
		wall[i], cpu[i] = float64(e.wallNs)/1e6, float64(e.cpuNs)/1e6
	}
	return quietMean(wall), quietMean(cpu)
}

// quietEpochs marks the epochs the traced pass decomposes: those whose wall
// time quietEpoch averages, so the decomposition adds up to the quiet epoch.
func quietEpochs(epochs []block) []bool {
	walls := make([]float64, len(epochs))
	for i, e := range epochs {
		walls[i] = float64(e.wallNs)
	}
	return quietValues(walls)
}

// quantile returns the q-quantile of values by linear interpolation between
// order statistics (q in [0,1]). It does not modify values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// blockEpochMs returns every block's wall time per epoch, in milliseconds.
func blockEpochMs(blocks []block) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = float64(b.wallNs) / 1e6 / blockEpochs
	}
	return out
}
