// Package workload provides YCSB-style workload generation for the
// microbenchmarks: key choosers (uniform, zipfian, latest) and operation
// mixes. The application benchmarks (TPC-C, SmallBank, FreeHealth) live in
// their own packages.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Uniform selects keys uniformly.
type Uniform struct {
	n int
}

// NewUniform creates a uniform chooser over n keys.
func NewUniform(n int) *Uniform {
	if n <= 0 {
		panic("workload: non-positive key count")
	}
	return &Uniform{n: n}
}

// Next implements Oracle.
func (u *Uniform) Next(rng *rand.Rand) int { return rng.IntN(u.n) }

// N implements Oracle.
func (u *Uniform) N() int { return u.n }

// Zipfian selects keys with a zipfian distribution using the Gray et al.
// "quick and dirty" algorithm, as popularized by YCSB. Item 0 is the
// hottest.
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian creates a zipfian chooser over n keys with the given skew
// (YCSB default 0.99).
func NewZipfian(n int, theta float64) *Zipfian {
	if n <= 0 {
		panic("workload: non-positive key count")
	}
	z := &Zipfian{n: n, theta: theta}
	z.zeta2 = zeta(2, theta)
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Oracle.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// N implements Oracle.
func (z *Zipfian) N() int { return z.n }

// OpKind is a microbenchmark operation type.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  string
}

// Mix generates an operation stream with a fixed read fraction.
type Mix struct {
	chooser   Oracle
	readFrac  float64
	keyPrefix string
}

// Oracle selects keys from [0, n): the chooser a Mix draws from.
type Oracle interface {
	Next(rng *rand.Rand) int
	N() int
}

// NewMix creates a generator: readFrac in [0,1], keys named
// "<prefix><index>".
func NewMix(c Oracle, readFrac float64, prefix string) *Mix {
	return &Mix{chooser: c, readFrac: readFrac, keyPrefix: prefix}
}

// Next generates one operation.
func (m *Mix) Next(rng *rand.Rand) Op {
	op := Op{Key: m.Key(m.chooser.Next(rng))}
	if rng.Float64() >= m.readFrac {
		op.Kind = OpWrite
	}
	return op
}

// Key formats the i-th key.
func (m *Mix) Key(i int) string {
	return fmt.Sprintf("%s%08d", m.keyPrefix, i)
}

// Keys returns all n key names (for preloading).
func (m *Mix) Keys() []string {
	out := make([]string, m.chooser.N())
	for i := range out {
		out[i] = m.Key(i)
	}
	return out
}
