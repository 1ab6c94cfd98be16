package stats

import "testing"

func TestECDFBasics(t *testing.T) {
	x, p, err := ECDF([]float64{1, 2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// P(X <= x) steps to 0.25 at 1, 0.75 at 2 (a tie) and 1 at 4.
	wantX := []float64{1, 2, 4}
	wantP := []float64{0.25, 0.75, 1}
	if len(x) != len(wantX) || len(p) != len(wantP) {
		t.Fatalf("ECDF = %v, %v", x, p)
	}
	for i := range wantX {
		if x[i] != wantX[i] || !almostEqual(p[i], wantP[i], 1e-12) {
			t.Errorf("point %d = (%v,%v), want (%v,%v)", i, x[i], p[i], wantX[i], wantP[i])
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, _, err := ECDF(nil); err != ErrEmpty {
		t.Errorf("ECDF(nil) err = %v", err)
	}
}

func TestECDFPoints(t *testing.T) {
	xs, ps, err := ECDF([]float64{3, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantX := []float64{1, 2, 3}
	wantP := []float64{0.25, 0.5, 1}
	if len(xs) != 3 {
		t.Fatalf("Points len = %d", len(xs))
	}
	for i := range wantX {
		if xs[i] != wantX[i] || !almostEqual(ps[i], wantP[i], 1e-12) {
			t.Errorf("Points[%d] = (%v,%v), want (%v,%v)", i, xs[i], ps[i], wantX[i], wantP[i])
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	x, _, err := ECDF(in)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("ECDF reordered its input: %v", in)
	}
	in[0] = 100
	if x[len(x)-1] != 3 {
		t.Error("ECDF aliased caller slice")
	}
}
