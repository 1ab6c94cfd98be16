// Package stats provides the descriptive statistics used throughout the
// reproduction: moments, quantiles, empirical CDFs, binned moments,
// ranks, and the paired tests behind Q2.
//
// The paper's figures report means, standard deviations, percentiles of
// failure metrics, and CDFs of over-provisioning fractions; everything
// needed to regenerate them lives here, implemented against the standard
// library only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

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

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (R type-7, the default of R's
// quantile() and of NumPy), which is what the paper's R-based analysis
// used. xs need not be sorted.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, errors.New("stats: quantile p outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already sorted slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	if sorted[lo] == sorted[hi] {
		// Skip the interpolation: a*(1-f) + a*f can drift off a by an
		// ulp, escaping the sample range.
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics reported throughout the
// paper's figures (mean with an sd error bar, plus range/percentiles).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantileSorted(sorted, 0.50),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

// Ranks returns the 1-based mid-ranks of xs (ties share the average of
// the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
