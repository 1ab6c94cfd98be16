package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// The unbiased variance of this classic sample is 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance of empty = %v, want 0", got)
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.p)
		if err != nil {
			t.Fatalf("Quantile err: %v", err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(p=%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(empty) should error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("Quantile(p<0) should error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("Quantile(p>1) should error")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("Quantile(NaN) should error")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		a := math.Abs(math.Mod(p1, 1))
		b := math.Abs(math.Mod(p2, 1))
		if a > b {
			a, b = b, a
		}
		qa, err1 := Quantile(xs, a)
		qb, err2 := Quantile(xs, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return qa <= qb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 || !almostEqual(s.Mean, 5.5, 1e-12) {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.P50, 5.5, 1e-12) {
		t.Errorf("P50 = %v, want 5.5", s.P50)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}
