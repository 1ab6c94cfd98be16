package stats

import (
	"math"
	"slices"
	"testing"
)

// FuzzQuantile checks that Quantile never panics and respects order
// statistics bounds for arbitrary (finite) inputs.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3}, 0.5)
	f.Add([]byte{9}, 0.0)
	f.Add([]byte{0, 0, 255, 7}, 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		if len(raw) == 0 {
			return
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b) - 128
		}
		q, err := Quantile(xs, p)
		if err != nil {
			if p >= 0 && p <= 1 && !math.IsNaN(p) {
				t.Fatalf("valid p=%v rejected: %v", p, err)
			}
			return
		}
		mn, mx := slices.Min(xs), slices.Max(xs)
		if q < mn || q > mx {
			t.Fatalf("quantile %v outside sample range [%v, %v]", q, mn, mx)
		}
	})
}
