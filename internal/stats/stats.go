// Package stats provides the small statistical toolkit used throughout the
// entitlement pipeline: quantiles, symmetric MAPE (the paper's forecast
// accuracy metric, §7.1), empirical CDFs, and reproducible random sampling
// helpers (Dirichlet draws for hose-polytope sampling).
//
// Everything is deterministic given a seed; no global random state is used.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantileSorted is Quantile for data already in ascending order; it avoids
// the copy and sort. The caller must guarantee ordering.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SMAPE computes the symmetric Mean Absolute Percentage Error between the
// actual series a and the forecast series f, exactly as defined in §7.1:
//
//	sMAPE = (1/n) Σ |A_t − F_t| / ((A_t + F_t)/2)
//
// By construction the result lies in [0, 2]. Pairs where A_t+F_t == 0
// contribute 0 (both series agree on zero). It returns ErrEmpty when the
// series are empty and an error when lengths differ.
func SMAPE(a, f []float64) (float64, error) {
	if len(a) != len(f) {
		return 0, errors.New("stats: sMAPE series length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range a {
		denom := (a[i] + f[i]) / 2
		if denom == 0 {
			continue
		}
		s += math.Abs(a[i]-f[i]) / denom
	}
	return s / float64(len(a)), nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns P(X <= x) under the empirical distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile of the sample.
func (c *CDF) Quantile(q float64) float64 { return QuantileSorted(c.sorted, q) }

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF, using at
// most n evenly spaced sample points.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / maxInt(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(len(c.sorted))
	}
	return xs, ps
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dirichlet draws a sample from a symmetric Dirichlet distribution with
// concentration alpha over k dimensions, using rng. The result sums to 1.
// It is used to sample traffic splits uniformly (alpha=1) from a hose's
// destination simplex.
func Dirichlet(rng *rand.Rand, k int, alpha float64) []float64 {
	if k <= 0 {
		return nil
	}
	xs := make([]float64, k)
	sum := 0.0
	for i := range xs {
		xs[i] = gammaSample(rng, alpha)
		sum += xs[i]
	}
	if sum == 0 {
		// Degenerate draw; fall back to uniform.
		for i := range xs {
			xs[i] = 1 / float64(k)
		}
		return xs
	}
	for i := range xs {
		xs[i] /= sum
	}
	return xs
}

// gammaSample draws from Gamma(alpha, 1) using Marsaglia–Tsang for alpha>=1
// and the boost transform for alpha<1.
func gammaSample(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
