package stats

import "testing"

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

func TestGroupedSummary(t *testing.T) {
	keys := []float64{1, 1, 5, 5, 5}
	vals := []float64{10, 20, 1, 2, 3}
	gs, err := GroupedSummary(keys, vals, []float64{0, 3, 10})
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

func TestGroupedSummaryMismatch(t *testing.T) {
	if _, err := GroupedSummary([]float64{1}, []float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}
