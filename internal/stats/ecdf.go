package stats

import "sort"

// ECDF returns the empirical cumulative distribution function of xs as
// a step function ready to plot: one point (x[i], p[i] = P(X <= x[i]))
// per distinct sample value, in ascending order. xs is not modified.
func ECDF(xs []float64) (x, p []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		x = append(x, sorted[i])
		p = append(p, float64(j+1)/float64(n))
		i = j + 1
	}
	return x, p, nil
}
