package cart

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// determinismFrame builds a mixed-type frame with missing values — the
// shapes that exercise every split path (numeric scan, nominal subsets,
// surrogate missing routing).
func determinismFrame(t testing.TB, n int) *frame.Frame {
	t.Helper()
	src := rng.New(99)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	cat := make([]int, n)
	y := make([]float64, n)
	lab := make([]int, n)
	for i := range y {
		x1[i] = src.Float64() * 100
		x2[i] = src.NormFloat64() * 10
		if src.Float64() < 0.05 {
			x1[i] = math.NaN()
		}
		cat[i] = src.IntN(5)
		y[i] = x2[i]*0.3 + float64(cat[i]) + src.NormFloat64()
		if x1[i] > 60 || cat[i] == 3 {
			lab[i] = 1
		}
	}
	f := frame.New(n)
	for name, data := range map[string][]float64{"x1": x1, "x2": x2, "y": y} {
		if err := f.AddContinuous(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddNominalInts("cat", cat, []string{"a", "b", "c", "d", "e"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("lab", lab, []string{"neg", "pos"}); err != nil {
		t.Fatal(err)
	}
	return f
}

// workerCounts are the fan-outs the determinism tests compare: serial,
// fixed oversubscription, and whatever this machine defaults to.
var workerCounts = []int{1, 4, runtime.GOMAXPROCS(0)}

// TestFitWorkersDeterministic asserts that the fitted tree is identical
// — node for node, float for float — for every worker count.
func TestFitWorkersDeterministic(t *testing.T) {
	f := determinismFrame(t, 4000)
	for _, task := range []struct {
		name   string
		target string
		cfg    Config
	}{
		{"regression", "y", Config{Task: Regression, MaxDepth: 6, MinSplit: 20, MinLeaf: 8, CP: 1e-4}},
		{"classification", "lab", Config{Task: Classification, MaxDepth: 6, MinSplit: 20, MinLeaf: 8, CP: 1e-4}},
	} {
		t.Run(task.name, func(t *testing.T) {
			var want *Tree
			for _, w := range workerCounts {
				cfg := task.cfg
				cfg.Workers = w
				tree, err := Fit(f, task.target, []string{"x1", "x2", "cat"}, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if want == nil {
					want = tree
					continue
				}
				if !reflect.DeepEqual(want, tree) {
					t.Errorf("workers=%d: tree differs from workers=%d", w, workerCounts[0])
				}
			}
		})
	}
}

// TestPredictFrameWorkersDeterministic asserts that chunked parallel
// prediction returns the exact serial outputs.
func TestPredictFrameWorkersDeterministic(t *testing.T) {
	f := determinismFrame(t, 4000)
	tree, err := Fit(f, "y", []string{"x1", "x2", "cat"},
		Config{Task: Regression, MaxDepth: 6, MinSplit: 20, MinLeaf: 8, CP: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.PredictFrameContext(context.Background(), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts[1:] {
		got, err := tree.PredictFrameContext(t.Context(), f, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: predictions differ from serial", w)
		}
	}
}

// TestCrossValidateWorkersDeterministic asserts that the parallel fold ×
// cp sweep selects the same cp with the same error table as the serial
// sweep.
func TestCrossValidateWorkersDeterministic(t *testing.T) {
	f := determinismFrame(t, 2000)
	cands := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	var want []CPRow
	for _, w := range workerCounts {
		cv, err := CrossValidate(f, "y", []string{"x1", "x2", "cat"},
			Config{Task: Regression, MaxDepth: 5, MinSplit: 20, MinLeaf: 8, Workers: w},
			cands, 5, 7)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = cv
			continue
		}
		if !reflect.DeepEqual(want, cv) {
			t.Errorf("workers=%d: CV result differs from workers=%d", w, workerCounts[0])
		}
	}
}
