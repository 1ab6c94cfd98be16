package cart

import (
	"math"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// benchScenarioFrame reproduces the 20k-row reference scenario the
// recorded cart_fit_20k benchmark trains on: one continuous driver, one
// 7-level nominal, additive response.
func benchScenarioFrame(t testing.TB, n int) *frame.Frame {
	t.Helper()
	src := rng.New(1)
	x1 := make([]float64, n)
	cat := make([]int, n)
	y := make([]float64, n)
	for i := range y {
		x1[i] = src.Float64() * 100
		cat[i] = src.IntN(7)
		y[i] = x1[i]*0.01 + float64(cat[i])
	}
	f := frame.New(n)
	if err := f.AddContinuous("x1", x1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("cat", cat, []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBinnedWorkersDeterministic asserts the binned engine grows a
// byte-identical tree for every worker count, rerun included.
func TestBinnedWorkersDeterministic(t *testing.T) {
	f := determinismFrame(t, 5000)
	for _, task := range []struct {
		name     string
		target   string
		features []string
		cfg      Config
	}{
		{"regression", "y", []string{"x1", "x2", "cat"}, Config{Task: Regression, Split: SplitBinned, MaxDepth: 6, CP: 0.001}},
		{"classification", "lab", []string{"x1", "x2", "cat"}, Config{Task: Classification, Split: SplitBinned, MaxDepth: 6, CP: 0.001}},
	} {
		t.Run(task.name, func(t *testing.T) {
			var want string
			for run := 0; run < 2; run++ {
				for _, w := range workerCounts {
					cfg := task.cfg
					cfg.Workers = w
					tree, err := Fit(f, task.target, task.features, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := tree.String()
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("workers=%d run=%d grew a different tree:\n%s\nwant:\n%s", w, run, got, want)
					}
				}
			}
		})
	}
}

// TestBinnedBinsDeterministic asserts determinism holds for non-default
// bin budgets and that coarser budgets still produce a working tree.
func TestBinnedBinsDeterministic(t *testing.T) {
	f := determinismFrame(t, 5000)
	for _, bins := range []int{16, 64, 255} {
		var want string
		for _, w := range workerCounts {
			cfg := Config{Task: Regression, Split: SplitBinned, Bins: bins, MaxDepth: 6, CP: 0.001, Workers: w}
			tree, err := Fit(f, "y", []string{"x1", "x2", "cat"}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tree.NumLeaves() < 2 {
				t.Fatalf("bins=%d: degenerate tree", bins)
			}
			got := tree.String()
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("bins=%d workers=%d grew a different tree", bins, w)
			}
		}
	}
}

// TestBinnedCategoricalMatchesExact: with only nominal and ordinal
// features (level sets are the bins) and an integer-valued response
// (exact float accumulation), the binned engine must reproduce the
// exact engine's tree byte for byte.
func TestBinnedCategoricalMatchesExact(t *testing.T) {
	n := 3000
	src := rng.New(7)
	cat := make([]int, n)
	ord := make([]int, n)
	y := make([]float64, n)
	lab := make([]int, n)
	for i := range y {
		cat[i] = src.IntN(6)
		ord[i] = src.IntN(9)
		y[i] = float64(cat[i]*3 + ord[i] + src.IntN(4))
		if ord[i] > 5 || cat[i] == 2 {
			lab[i] = 1
		}
	}
	f := frame.New(n)
	if err := f.AddNominalInts("cat", cat, []string{"a", "b", "c", "d", "e", "f"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddOrdinalInts("ord", ord, []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("lab", lab, []string{"neg", "pos"}); err != nil {
		t.Fatal(err)
	}
	for _, task := range []struct {
		name   string
		target string
		cfg    Config
	}{
		{"regression", "y", Config{Task: Regression, MaxDepth: 5, CP: 0.001}},
		{"classification", "lab", Config{Task: Classification, MaxDepth: 5, CP: 0.001}},
	} {
		t.Run(task.name, func(t *testing.T) {
			exactCfg, binCfg := task.cfg, task.cfg
			exactCfg.Split = SplitExact
			binCfg.Split = SplitBinned
			et, err := Fit(f, task.target, []string{"cat", "ord"}, exactCfg)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := Fit(f, task.target, []string{"cat", "ord"}, binCfg)
			if err != nil {
				t.Fatal(err)
			}
			if et.String() != bt.String() {
				t.Fatalf("binned tree diverged from exact:\nbinned:\n%s\nexact:\n%s", bt.String(), et.String())
			}
		})
	}
}

// TestBinnedRoutingConsistency asserts the threshold contract: training
// routes rows by byte code, prediction routes raw floats by threshold,
// and both must agree — routing every training row through the fitted
// tree has to land exactly Node.N rows on every leaf.
func TestBinnedRoutingConsistency(t *testing.T) {
	f := determinismFrame(t, 5000)
	cfg := Config{Task: Regression, Split: SplitBinned, MaxDepth: 6, CP: 0.0005, MinSplit: 10}
	tree, err := Fit(f, "y", []string{"x1", "x2", "cat"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := tree.AssignLeaves(f)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, tree.NumLeaves())
	for _, id := range leaves {
		got[id]++
	}
	for i, leaf := range tree.Leaves() {
		if got[i] != leaf.N {
			t.Errorf("leaf %d: routed %d training rows, trained on %d", i, got[i], leaf.N)
		}
	}
}

// TestBinnedCVDevianceClose asserts the accuracy contract from the
// roadmap: on the 20k reference scenario the binned engine's
// cross-validated deviance stays within 1%% of the exact engine's at
// every candidate complexity.
func TestBinnedCVDevianceClose(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row cross-validation")
	}
	f := benchScenarioFrame(t, 20000)
	candidates := []float64{0.001, 0.003, 0.01}
	exactCfg := Config{Task: Regression, Split: SplitExact, MaxDepth: 6}
	binCfg := Config{Task: Regression, Split: SplitBinned, MaxDepth: 6}
	exact, err := CrossValidate(f, "y", []string{"x1", "cat"}, exactCfg, candidates, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	binned, err := CrossValidate(f, "y", []string{"x1", "cat"}, binCfg, candidates, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		e, b := exact[i].XError, binned[i].XError
		if e <= 0 {
			t.Fatalf("cp=%g: exact XError %g not positive", exact[i].CP, e)
		}
		if rel := math.Abs(b-e) / e; rel > 0.01 {
			t.Errorf("cp=%g: binned XError %g vs exact %g (%.2f%% apart, want <=1%%)",
				exact[i].CP, b, e, rel*100)
		}
	}
}

// TestBinnedManyLevelFallback: a categorical feature with more levels
// than a byte code can address silently falls back to the exact engine.
func TestBinnedManyLevelFallback(t *testing.T) {
	n := 2000
	src := rng.New(23)
	nLevels := 300
	levels := make([]string, nLevels)
	for i := range levels {
		levels[i] = "l" + string(rune('0'+i%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i/100))
	}
	cat := make([]int, n)
	y := make([]float64, n)
	for i := range y {
		cat[i] = src.IntN(nLevels)
		y[i] = float64(cat[i] % 5)
	}
	f := frame.New(n)
	if err := f.AddNominalInts("wide", cat, levels); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	exact, err := Fit(f, "y", []string{"wide"}, Config{Split: SplitExact, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	binned, err := Fit(f, "y", []string{"wide"}, Config{Split: SplitBinned, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if exact.String() != binned.String() {
		t.Error("SplitBinned with a 300-level nominal must fall back to the exact engine")
	}
}

// TestChooseBinned pins the engine-selection policy.
func TestChooseBinned(t *testing.T) {
	feats := []Feature{{Name: "x", Kind: frame.Continuous}}
	wide := []Feature{{Name: "w", Kind: frame.Nominal, Levels: make([]string, 256)}}
	cases := []struct {
		name  string
		cfg   Config
		rows  int
		feats []Feature
		want  bool
	}{
		{"auto small", Config{}, AutoBinRows - 1, feats, false},
		{"auto large", Config{}, AutoBinRows, feats, true},
		{"forced exact", Config{Split: SplitExact}, AutoBinRows, feats, false},
		{"forced binned small", Config{Split: SplitBinned}, 100, feats, true},
		{"wide nominal falls back", Config{Split: SplitBinned}, 100, wide, false},
	}
	for _, tc := range cases {
		if got := chooseBinned(tc.cfg, tc.rows, tc.feats); got != tc.want {
			t.Errorf("%s: chooseBinned = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBinnedAllMissingFeature: a continuous feature with every cell
// null must simply never split, not corrupt the fit.
func TestBinnedAllMissingFeature(t *testing.T) {
	n := 600
	src := rng.New(31)
	x := make([]float64, n)
	dead := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		x[i] = src.Float64() * 10
		dead[i] = src.Float64()
		y[i] = math.Floor(x[i])
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	dc := f.MustCol("dead")
	for i := 0; i < n; i++ {
		dc.SetMissing(i)
	}
	tree, err := Fit(f, "y", []string{"x", "dead"}, Config{Split: SplitBinned, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() < 2 {
		t.Fatal("tree failed to split on the live feature")
	}
	if imp := tree.Importance()["dead"]; imp != 0 {
		t.Errorf("all-null feature earned importance %g", imp)
	}
}

// multiChunkFrame builds a frame whose root node spans several
// frame.ChunkRows windows, so the binned engine's chunk-sliced histogram
// build and two-pass parallel partition both engage.
func multiChunkFrame(t testing.TB, n int) *frame.Frame {
	t.Helper()
	src := rng.New(41)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	cat := make([]uint8, n)
	y := make([]float64, n)
	for i := range y {
		x1[i] = src.Float64() * 100
		x2[i] = src.NormFloat64() * 5
		cat[i] = uint8(src.IntN(6))
		if src.Float64() < 0.02 {
			cat[i] = 250 // out-of-range sentinel: reads as missing
		}
		y[i] = x1[i]*0.05 + float64(cat[i]%6) + src.NormFloat64()*0.3
	}
	f := frame.New(n)
	if err := f.AddContinuous("x1", x1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("x2", x2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalCodes("cat", cat, []string{"a", "b", "c", "d", "e", "f"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBinnedMultiChunkDeterministic pins byte-identical trees across
// worker counts on a frame whose nodes exceed one chunk, covering the
// chunk x feature histogram slabs and the two-pass parallel partition
// (the 5000-row tests above only ever see single-chunk nodes).
func TestBinnedMultiChunkDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk frame needs >128Ki rows")
	}
	f := multiChunkFrame(t, 3*frame.ChunkRows/2+100)
	var want string
	for run := 0; run < 2; run++ {
		for _, w := range workerCounts {
			cfg := Config{Task: Regression, Split: SplitBinned, MaxDepth: 5, CP: 0.001, Workers: w}
			tree, err := Fit(f, "y", []string{"x1", "x2", "cat"}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tree.NumLeaves() < 2 {
				t.Fatal("degenerate tree")
			}
			got := tree.String()
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("workers=%d run=%d grew a different tree on a multi-chunk node", w, run)
			}
		}
	}
}

// TestBinnedWideFrameDeterministic pins determinism on a frame wide
// enough (>= wideFrameFeatures candidates) that the histogram build
// switches to the feature-parallel strategy regardless of node size.
func TestBinnedWideFrameDeterministic(t *testing.T) {
	n := 4000
	src := rng.New(43)
	f := frame.New(n)
	names := make([]string, 0, wideFrameFeatures+4)
	y := make([]float64, n)
	for fi := 0; fi < wideFrameFeatures+4; fi++ {
		name := "f" + string(rune('0'+fi/10)) + string(rune('0'+fi%10))
		names = append(names, name)
		if fi%2 == 0 {
			col := make([]float64, n)
			for i := range col {
				col[i] = src.Float64() * 10
				y[i] += col[i] * float64(fi%5) * 0.01
			}
			if err := f.AddContinuous(name, col); err != nil {
				t.Fatal(err)
			}
			continue
		}
		codes := make([]uint8, n)
		for i := range codes {
			codes[i] = uint8(src.IntN(4))
			y[i] += float64(codes[i]) * float64(fi%3) * 0.02
		}
		if err := f.AddNominalCodes(name, codes, []string{"p", "q", "r", "s"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, w := range workerCounts {
		cfg := Config{Task: Regression, Split: SplitBinned, MaxDepth: 5, CP: 0.0005, Workers: w}
		tree, err := Fit(f, "y", names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tree.NumLeaves() < 2 {
			t.Fatal("degenerate tree")
		}
		got := tree.String()
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d grew a different tree on a wide frame", w)
		}
	}
}

// TestBinnedTypedMatchesLegacy: a frame built from adopted uint8 codes
// (including out-of-range missing sentinels) must train exactly the tree
// its float64-backed twin trains — physical column layout is invisible
// to the learner.
func TestBinnedTypedMatchesLegacy(t *testing.T) {
	n := 6000
	src := rng.New(47)
	codes := make([]uint8, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		codes[i] = uint8(src.IntN(5))
		if src.Float64() < 0.05 {
			codes[i] = 200
		}
		x[i] = src.Float64() * 40
		y[i] = x[i]*0.1 + float64(codes[i]%5) + src.NormFloat64()*0.2
	}
	levels := []string{"a", "b", "c", "d", "e"}
	typed := frame.New(n)
	if err := typed.AddNominalCodes("cat", append([]uint8(nil), codes...), levels); err != nil {
		t.Fatal(err)
	}
	if err := typed.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := typed.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	// AddNominalInts would auto-type this column too, so build the
	// float64-backed twin explicitly: raw level indexes with the NaN
	// missing sentinel, exactly the pre-typed physical layout.
	legacy := frame.New(n)
	floats := make([]float64, n)
	for i, cd := range codes {
		if cd < 5 {
			floats[i] = float64(cd)
		} else {
			floats[i] = math.NaN()
		}
	}
	if err := legacy.AddColumn(frame.Column{
		Name: "cat", Kind: frame.Nominal, Data: floats,
		Levels: append([]string(nil), levels...),
	}); err != nil {
		t.Fatal(err)
	}
	if legacy.MustCol("cat").Codes() != nil {
		t.Fatal("twin construction broken: expected float64 storage")
	}
	if err := legacy.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := legacy.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	for _, split := range []SplitMethod{SplitExact, SplitBinned} {
		cfg := Config{Task: Regression, Split: split, MaxDepth: 5, CP: 0.001}
		tt, err := Fit(typed, "y", []string{"cat", "x"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := Fit(legacy, "y", []string{"cat", "x"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tt.String() != lt.String() {
			t.Errorf("split=%d: typed-code frame trained a different tree than its float64 twin", split)
		}
	}
}
