package stats

import (
	"errors"
	"math"
	"slices"
)

// bucketIndex returns the bucket for x, clamping out-of-range values:
// the number of interior edges at or below x (edges ascend; a NaN x
// lands in bucket 0). Figures bin by a handful of edges, where this
// count, free of data-dependent branches, beats a binary search.
func bucketIndex(edges []float64, x float64) int {
	b := 0
	for _, e := range edges[1 : len(edges)-1] {
		if x >= e {
			b++
		}
	}
	return b
}

// Moments is the count, mean and sample standard deviation of one
// group of values.
type Moments struct {
	N      int
	Mean   float64
	StdDev float64
}

// MomentsOf returns the Moments of xs, summed in slice order; an empty
// xs has zero Moments.
func MomentsOf(xs []float64) Moments {
	return Moments{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
}

// GroupedMoments computes, for a paired sample (key, value), the Moments
// of the values whose keys fall into each bucket of edges: the bars and
// error bars of the "failure rate vs factor bin" figures (Figs 5, 9, 16
// and 17). Keys below the first edge or at or above the last are clamped
// into the end buckets, and rows with a NaN key are skipped. Each
// bucket's values are taken in row order, so Mean and StdDev sum them in
// the order a per-bucket slice would; nothing is sorted. An empty bucket
// has zero Moments.
func GroupedMoments(keys, values []float64, edges []float64) ([]Moments, error) {
	if len(keys) != len(values) {
		return nil, errors.New("stats: length mismatch")
	}
	if len(edges) < 2 {
		return nil, errors.New("stats: need at least two bin edges")
	}
	// One pass buckets and counts every row; bucket -1 marks a NaN key.
	bucket := make([]int32, len(keys))
	start := make([]int, len(edges))
	for i, k := range keys {
		if math.IsNaN(k) {
			bucket[i] = -1
			continue
		}
		b := bucketIndex(edges, k)
		bucket[i] = int32(b)
		start[b+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	// A second fills one buffer with each bucket's values, in row order.
	buf := make([]float64, start[len(start)-1])
	next := slices.Clone(start[:len(start)-1])
	for i, b := range bucket {
		if b >= 0 {
			buf[next[b]] = values[i]
			next[b]++
		}
	}
	out := make([]Moments, len(edges)-1)
	for b := range out {
		out[b] = MomentsOf(buf[start[b]:start[b+1]])
	}
	return out, nil
}
