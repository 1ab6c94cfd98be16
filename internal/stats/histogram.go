package stats

import (
	"errors"
	"math"
)

// bucketIndex returns the bucket for x, clamping out-of-range values.
func bucketIndex(edges []float64, x float64) int {
	n := len(edges) - 1
	if x < edges[0] {
		return 0
	}
	if x >= edges[n] {
		return n - 1
	}
	// Binary search for the right-most edge <= x.
	lo, hi := 0, n
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// GroupedSummary computes, for a paired sample (key, value), the Summary
// of values whose keys fall into each bucket. This is the primitive
// behind every "failure rate vs factor-bin" figure (Figs 5, 8, 9, 16, 17).
func GroupedSummary(keys, values []float64, edges []float64) ([]Summary, error) {
	if len(keys) != len(values) {
		return nil, errors.New("stats: length mismatch")
	}
	if len(edges) < 2 {
		return nil, errors.New("stats: need at least two bin edges")
	}
	groups := make([][]float64, len(edges)-1)
	for i, k := range keys {
		if math.IsNaN(k) {
			continue
		}
		groups[bucketIndex(edges, k)] = append(groups[bucketIndex(edges, k)], values[i])
	}
	out := make([]Summary, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			out[i] = Summary{}
			continue
		}
		s, err := Summarize(g)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
