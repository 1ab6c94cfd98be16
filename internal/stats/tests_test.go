package stats

import (
	"math"
	"testing"

	"rainshine/internal/rng"
)

func TestPairedT(t *testing.T) {
	// Consistent positive differences: strongly significant.
	xs := []float64{2.1, 2.2, 1.9, 2.3, 2.0, 2.1, 2.2, 1.8}
	ys := []float64{1.0, 1.1, 0.9, 1.2, 1.1, 1.0, 1.2, 0.8}
	r, err := PairedT(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.001) || r.Statistic <= 0 {
		t.Errorf("paired shift not detected: %+v", r)
	}
	// No difference at all.
	r, err = PairedT(xs, xs)
	if err != nil || r.P != 1 {
		t.Errorf("identical pairs: %+v, %v", r, err)
	}
	// Constant nonzero difference: p vanishes (floating-point residue in
	// xs[i]+1-xs[i] keeps the variance infinitesimally nonzero, so allow
	// any astronomically small p rather than exactly 0).
	shift := make([]float64, len(xs))
	for i := range shift {
		shift[i] = xs[i] + 1
	}
	r, err = PairedT(shift, xs)
	if err != nil || r.P > 1e-30 {
		t.Errorf("constant shift: %+v, %v", r, err)
	}
	if _, err := PairedT(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedT([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair should error")
	}
}

func TestWilcoxonSignedRank(t *testing.T) {
	src := rng.New(37)
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		base := src.NormFloat64()
		xs[i] = base + 1
		ys[i] = base + src.NormFloat64()*0.3
	}
	r, err := WilcoxonSignedRank(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.01) || r.Statistic <= 0 {
		t.Errorf("Wilcoxon missed clear shift: %+v", r)
	}
	// Null case.
	for i := range xs {
		xs[i] = src.NormFloat64()
		ys[i] = src.NormFloat64()
	}
	r, err = WilcoxonSignedRank(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0 || r.P > 1 {
		t.Errorf("p out of range: %v", r.P)
	}
	if _, err := WilcoxonSignedRank(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WilcoxonSignedRank([]float64{1, 1}, []float64{1, 1}); err == nil {
		t.Error("all-zero differences should error")
	}
}

func TestTDistributionAgainstKnownValues(t *testing.T) {
	// Classic table values: two-sided p for t=2.228, df=10 is 0.05.
	if p := twoSidedTP(2.228, 10); math.Abs(p-0.05) > 0.001 {
		t.Errorf("t=2.228 df=10: p = %v, want ~0.05", p)
	}
	// t=1.96 with huge df approaches the normal 0.05.
	if p := twoSidedTP(1.959964, 1e7); math.Abs(p-0.05) > 0.001 {
		t.Errorf("normal limit: p = %v", p)
	}
	// Symmetry.
	if twoSidedTP(2.5, 7) != twoSidedTP(-2.5, 7) {
		t.Error("two-sided p must be symmetric in t")
	}
	// t=0 gives p=1.
	if p := twoSidedTP(0, 5); math.Abs(p-1) > 1e-9 {
		t.Errorf("t=0: p = %v", p)
	}
}

func TestRegIncBetaProperties(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.35, 0.5, 0.82} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.5, 0.7} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Errorf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
	// Monotone in x.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.05 {
		v := regIncBeta(3, 2, x)
		if v < prev {
			t.Fatalf("not monotone at %v", x)
		}
		prev = v
	}
}

func TestNormalCDF(t *testing.T) {
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Error("Phi(0) != 0.5")
	}
	if math.Abs(normalCDF(1.959964)-0.975) > 1e-5 {
		t.Errorf("Phi(1.96) = %v", normalCDF(1.959964))
	}
}
