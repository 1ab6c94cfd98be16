package stats

import (
	"math"
	"testing"

	"rainshine/internal/rng"
)

// refBucketIndex is the binary search bucketIndex replaced, kept as the
// reference refGroupedSummary buckets by.
func refBucketIndex(edges []float64, x float64) int {
	n := len(edges) - 1
	if x < edges[0] {
		return 0
	}
	if x >= edges[n] {
		return n - 1
	}
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

func TestBucketIndexBoundaries(t *testing.T) {
	edges := []float64{0, 10, 20, 30}
	tests := []struct {
		x    float64
		want int
	}{
		{0, 0}, {9.999, 0}, {10, 1}, {19.999, 1}, {20, 2}, {29.999, 2},
		{30, 2},  // top edge closed
		{-1, 0},  // clamp low
		{999, 2}, // clamp high
	}
	for _, tt := range tests {
		if got := bucketIndex(edges, tt.x); got != tt.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

// TestBucketIndexMatchesBinarySearch checks bucketIndex against
// refBucketIndex on seeded keys, ±Inf, NaN and every edge itself, for
// edge lists of two to nine edges, repeated edges among them.
func TestBucketIndexMatchesBinarySearch(t *testing.T) {
	src := rng.New(1)
	for _, edges := range [][]float64{
		{0, 1}, {0, 10, 20}, {0, 60, 65, 70, 75, 200}, {0, 10, 10, 20}, {-5, -1, 0, 1, 2, 3, 5, 8, 13},
	} {
		xs := append([]float64{math.Inf(-1), math.Inf(1), math.NaN()}, edges...)
		for i := 0; i < 2000; i++ {
			xs = append(xs, edges[0]-5+(edges[len(edges)-1]-edges[0]+10)*src.Float64())
		}
		for _, x := range xs {
			if got, want := bucketIndex(edges, x), refBucketIndex(edges, x); got != want {
				t.Fatalf("edges %v, x %v: bucket %d, binary search %d", edges, x, got, want)
			}
		}
	}
}

func TestGroupedMoments(t *testing.T) {
	keys := []float64{1, 1, 5, 5, 5}
	vals := []float64{10, 20, 1, 2, 3}
	gs, err := GroupedMoments(keys, vals, []float64{0, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].N != 2 || !almostEqual(gs[0].Mean, 15, 1e-12) {
		t.Errorf("group 0 = %+v", gs[0])
	}
	if gs[1].N != 3 || !almostEqual(gs[1].Mean, 2, 1e-12) {
		t.Errorf("group 1 = %+v", gs[1])
	}
}

func TestGroupedMomentsMismatch(t *testing.T) {
	if _, err := GroupedMoments([]float64{1}, []float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

// refGroupedSummary is the Summarize-based grouping GroupedMoments
// replaced, kept as the reference its bits are checked against.
func refGroupedSummary(keys, values []float64, edges []float64) ([]Summary, error) {
	groups := make([][]float64, len(edges)-1)
	for i, k := range keys {
		if math.IsNaN(k) {
			continue
		}
		groups[refBucketIndex(edges, k)] = append(groups[refBucketIndex(edges, k)], values[i])
	}
	out := make([]Summary, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
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

// TestGroupedMomentsMatchesSummaries checks every bucket's N, and the
// bit patterns of its Mean and StdDev, against refGroupedSummary on
// seeded data with NaN keys (skipped), keys clamped from below the
// first edge and from at or above the last (±Inf among them), buckets
// no key reaches, and NaN values.
func TestGroupedMomentsMatchesSummaries(t *testing.T) {
	edges := []float64{0, 60, 65, 70, 75, 200}
	sawEmpty, sawNaN := false, false
	for seed := uint64(1); seed <= 50; seed++ {
		src := rng.New(seed)
		n := src.IntN(3000)
		keys, vals := make([]float64, n), make([]float64, n)
		for i := range keys {
			switch u := src.Float64(); {
			case u < 0.05:
				keys[i] = math.NaN()
			case u < 0.08:
				keys[i] = math.Inf(-1 + 2*src.IntN(2))
			case u < 0.12:
				keys[i] = -50 * src.Float64()
			case u < 0.16:
				keys[i] = 200 + 100*src.Float64()*float64(src.IntN(2))
			case u < 0.2 && seed%2 == 0:
				keys[i] = 0 // the first edge itself
			default:
				// Seed-dependent gaps leave middle buckets empty.
				keys[i] = 60 + 15*src.Float64()*float64(seed%3)/2
			}
			vals[i] = float64(src.IntN(4)) + 0.1*src.NormFloat64()
			if src.Float64() < 0.01*float64(seed%3) {
				vals[i] = math.NaN()
			}
		}
		got, err := GroupedMoments(keys, vals, edges)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refGroupedSummary(keys, vals, edges)
		if err != nil {
			t.Fatal(err)
		}
		for b := range want {
			g, w := got[b], want[b]
			if g.N != w.N || math.Float64bits(g.Mean) != math.Float64bits(w.Mean) ||
				math.Float64bits(g.StdDev) != math.Float64bits(w.StdDev) {
				t.Fatalf("seed %d bucket %d: got %+v, want N=%d Mean=%v StdDev=%v", seed, b, g, w.N, w.Mean, w.StdDev)
			}
			sawEmpty = sawEmpty || g.N == 0
			sawNaN = sawNaN || math.IsNaN(g.Mean)
		}
	}
	if !sawEmpty || !sawNaN {
		t.Fatalf("data reached an empty bucket: %v, a NaN mean: %v", sawEmpty, sawNaN)
	}
}
