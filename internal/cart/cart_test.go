package cart

import (
	"errors"
	"math"
	"strings"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// regressionFrame builds a frame where y is exactly determined by a
// threshold on x: y = 1 if x > 5 else 0.
func thresholdFrame(t *testing.T, n int) *frame.Frame {
	t.Helper()
	src := rng.New(1)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = src.Float64() * 10
		if x[i] > 5 {
			y[i] = 1
		}
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegressionRecoversThreshold(t *testing.T) {
	f := thresholdFrame(t, 500)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("tree did not split")
	}
	if math.Abs(tree.Root.Threshold-5) > 0.3 {
		t.Errorf("threshold = %v, want ~5", tree.Root.Threshold)
	}
	lo, err := tree.Predict([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := tree.Predict([]float64{8})
	if lo > 0.05 || hi < 0.95 {
		t.Errorf("predictions lo=%v hi=%v", lo, hi)
	}
}

func TestRegressionNominalSplit(t *testing.T) {
	// Categories a,c have mean 0; b,d have mean 10. The optimal split
	// must group {a,c} vs {b,d} even though they interleave.
	n := 400
	codes := make([]int, n)
	y := make([]float64, n)
	src := rng.New(2)
	for i := range codes {
		codes[i] = i % 4
		base := 0.0
		if codes[i] == 1 || codes[i] == 3 {
			base = 10
		}
		y[i] = base + src.NormFloat64()*0.1
	}
	f := frame.New(n)
	if err := f.AddNominalInts("cat", codes, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"cat"}, Config{Task: Regression, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("no split found")
	}
	// a(0), c(2) must route together; b(1), d(3) together.
	if tree.Root.inLeftSet(0) != tree.Root.inLeftSet(2) {
		t.Error("a and c split apart")
	}
	if tree.Root.inLeftSet(1) != tree.Root.inLeftSet(3) {
		t.Error("b and d split apart")
	}
	if tree.Root.inLeftSet(0) == tree.Root.inLeftSet(1) {
		t.Error("low and high groups not separated")
	}
}

func TestClassificationGini(t *testing.T) {
	// Two classes perfectly separated by x <= 0.
	n := 300
	x := make([]float64, n)
	yc := make([]int, n)
	src := rng.New(3)
	for i := range x {
		x[i] = src.NormFloat64()
		if x[i] > 0 {
			yc[i] = 1
		}
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("cls", yc, []string{"neg", "pos"}); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "cls", []string{"x"}, Config{Task: Classification, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := tree.Predict([]float64{-1})
	p1, _ := tree.Predict([]float64{1})
	if p0 != 0 || p1 != 1 {
		t.Errorf("class predictions = %v, %v", p0, p1)
	}
	if len(tree.ClassLevels) != 2 {
		t.Errorf("ClassLevels = %v", tree.ClassLevels)
	}
}

func TestClassificationRejectsContinuousTarget(t *testing.T) {
	f := thresholdFrame(t, 50)
	if _, err := Fit(f, "y", []string{"x"}, Config{Task: Classification}); err == nil {
		t.Error("classification with continuous target should error")
	}
}

func TestFitErrors(t *testing.T) {
	f := thresholdFrame(t, 50)
	if _, err := Fit(f, "nope", []string{"x"}, Config{}); err == nil {
		t.Error("missing target should error")
	}
	if _, err := Fit(f, "y", []string{"nope"}, Config{}); err == nil {
		t.Error("missing feature should error")
	}
	if _, err := Fit(f, "y", nil, Config{}); err == nil {
		t.Error("no features should error")
	}
	if _, err := Fit(f, "y", []string{"y"}, Config{}); err == nil {
		t.Error("target-as-feature should error")
	}
	if _, err := Fit(frame.New(0), "y", []string{"x"}, Config{}); err == nil {
		t.Error("empty frame should error")
	}
	if _, err := Fit(f, "y", []string{"x"}, Config{Task: Task(9)}); err == nil {
		t.Error("unknown task should error")
	}
}

func TestFitToleratesMissingFeatures(t *testing.T) {
	// NaN feature cells are missing values, not errors: the tree must
	// fit on the available cases and still find the x threshold.
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		if i >= n/2 {
			y[i] = 10
		}
		if i%10 == 3 {
			x[i] = math.NaN() // 10% missing
		}
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression})
	if err != nil {
		t.Fatalf("fit with missing cells: %v", err)
	}
	root := tree.Root
	if root.IsLeaf() {
		t.Fatal("no split found despite clear threshold")
	}
	if root.Threshold < 80 || root.Threshold > 120 {
		t.Errorf("threshold = %v, want near 100", root.Threshold)
	}
	// Leaf populations must cover every row: missing rows follow the
	// majority child, none are dropped.
	total := 0
	for _, leaf := range tree.Leaves() {
		total += leaf.N
	}
	if total != n {
		t.Errorf("leaves cover %d rows, want %d", total, n)
	}
	// Prediction with a missing value routes via DefaultLeft, not panic.
	if _, err := tree.Predict([]float64{math.NaN()}); err != nil {
		t.Errorf("predict on missing value: %v", err)
	}
}

func TestFitRejectsNonFiniteTarget(t *testing.T) {
	f2 := frame.New(2)
	if err := f2.AddContinuous("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f2.AddContinuous("y", []float64{1, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(f2, "y", []string{"x"}, Config{Task: Regression}); err == nil {
		t.Error("Inf target should error")
	}
}

func TestMinLeafRespected(t *testing.T) {
	f := thresholdFrame(t, 100)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MinLeaf: 30, MinSplit: 60, MaxDepth: 8, CP: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tree.Leaves() {
		if leaf.N < 30 {
			t.Errorf("leaf with %d < MinLeaf rows", leaf.N)
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	f := thresholdFrame(t, 500)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 3, CP: -1, MinSplit: 4, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Errorf("depth = %d > 3", d)
	}
}

func TestCPStopsUselessSplits(t *testing.T) {
	// Pure-noise target: with default cp the tree should stay a stump.
	n := 300
	src := rng.New(5)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = src.Float64()
		y[i] = src.NormFloat64()
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, CP: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() > 2 {
		t.Errorf("noise tree grew %d leaves", tree.NumLeaves())
	}
}

func TestPredictErrors(t *testing.T) {
	f := thresholdFrame(t, 100)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestPredictFrameMatchesLeafMeans(t *testing.T) {
	f := thresholdFrame(t, 400)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 4, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := tree.PredictFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := tree.AssignLeaves(f)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: prediction equals the mean target of the rows assigned
	// to the same leaf.
	sums := make(map[int]float64)
	counts := make(map[int]int)
	y := f.MustCol("y").Data
	for r, leaf := range leaves {
		sums[leaf] += y[r]
		counts[leaf]++
	}
	for r, leaf := range leaves {
		want := sums[leaf] / float64(counts[leaf])
		if math.Abs(preds[r]-want) > 1e-9 {
			t.Fatalf("row %d pred %v != leaf mean %v", r, preds[r], want)
		}
	}
}

func TestAssignLeavesIDsValid(t *testing.T) {
	f := thresholdFrame(t, 300)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 4, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := tree.AssignLeaves(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id < 0 || id >= tree.NumLeaves() {
			t.Fatalf("leaf id %d out of range", id)
		}
	}
	if _, err := tree.AssignLeaves(frame.New(0)); err == nil {
		t.Error("frame missing feature columns should error")
	}
}

func TestImportance(t *testing.T) {
	// y depends on x1 strongly, x2 not at all.
	n := 500
	src := rng.New(7)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		x1[i] = src.Float64()
		x2[i] = src.Float64()
		y[i] = 5 * x1[i]
	}
	f := frame.New(n)
	for _, c := range []struct {
		name string
		data []float64
	}{{"x1", x1}, {"x2", x2}, {"y", y}} {
		if err := f.AddContinuous(c.name, c.data); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := Fit(f, "y", []string{"x1", "x2"}, Config{Task: Regression, MaxDepth: 4, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.Importance()
	if imp["x1"] != 100 {
		t.Errorf("x1 importance = %v, want 100", imp["x1"])
	}
	if imp["x2"] > 5 {
		t.Errorf("x2 importance = %v, want ~0", imp["x2"])
	}
	ranked := tree.RankedFeatures()
	if ranked[0] != "x1" {
		t.Errorf("ranked = %v", ranked)
	}
}

func TestImportanceAllZero(t *testing.T) {
	// Stump: no splits, all importances zero.
	f := thresholdFrame(t, 50)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 1, MinSplit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if imp := tree.Importance(); imp["x"] != 0 {
		t.Errorf("stump importance = %v", imp["x"])
	}
}

func TestOrdinalSplitsRespectOrder(t *testing.T) {
	// Ordinal month 0..11 with a jump after month 6; split must be a
	// contiguous threshold, not an arbitrary subset.
	n := 360
	codes := make([]int, n)
	y := make([]float64, n)
	for i := range codes {
		codes[i] = i % 12
		if codes[i] > 6 {
			y[i] = 2
		}
	}
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	f := frame.New(n)
	if err := f.AddOrdinalInts("month", codes, months); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"month"}, Config{Task: Regression, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("no split")
	}
	if tree.Root.Threshold < 6 || tree.Root.Threshold > 7 {
		t.Errorf("ordinal threshold = %v, want in (6,7)", tree.Root.Threshold)
	}
}

func TestUnseenNominalLevelRoutesDefault(t *testing.T) {
	n := 200
	codes := make([]int, n)
	y := make([]float64, n)
	for i := range codes {
		codes[i] = i % 2 // levels 0,1 used; level 2 never seen
		y[i] = float64(codes[i]) * 10
	}
	f := frame.New(n)
	if err := f.AddNominalInts("cat", codes, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"cat"}, Config{Task: Regression, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Level 2 ("c") was not in training; prediction must not panic and
	// must return one of the two leaf values.
	v, err := tree.Predict([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 && v != 10 {
		t.Errorf("unseen level prediction = %v", v)
	}
	// Out-of-range code must also be safe.
	if _, err := tree.Predict([]float64{99}); err != nil {
		t.Errorf("out-of-range code errored: %v", err)
	}
}

// TestNominalCellOutsideLevelsIsMissing: a float64-backed nominal
// column can hold a cell that names no level (frame.AddColumn adopts
// Data as-is). Both engines must treat it as missing — train exactly
// the tree they train when the cell is NaN — and route it at training
// time the way prediction routes it, so every leaf's N matches the rows
// prediction sends there.
func TestNominalCellOutsideLevelsIsMissing(t *testing.T) {
	n := 400
	src := rng.New(61)
	bad := make([]float64, n)
	nan := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		c := src.IntN(3)
		x[i] = src.Float64() * 10
		y[i] = float64(c)*2 + x[i]*0.3 + src.NormFloat64()*0.1
		bad[i], nan[i] = float64(c), float64(c)
		if i%9 == 0 {
			bad[i], nan[i] = 5, math.NaN()
		}
		if i%23 == 0 {
			bad[i], nan[i] = -1, math.NaN()
		}
	}
	build := func(cat []float64) *frame.Frame {
		f := frame.New(n)
		if err := f.AddColumn(frame.Column{Name: "cat", Kind: frame.Nominal, Data: cat, Levels: []string{"a", "b", "c"}}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddContinuous("x", x); err != nil {
			t.Fatal(err)
		}
		if err := f.AddContinuous("y", y); err != nil {
			t.Fatal(err)
		}
		return f
	}
	badF, nanF := build(bad), build(nan)
	for _, split := range []SplitMethod{SplitExact, SplitBinned} {
		cfg := Config{Task: Regression, Split: split, MaxDepth: 4, MinSplit: 10, CP: 0.001}
		got, err := Fit(badF, "y", []string{"cat", "x"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Fit(nanF, "y", []string{"cat", "x"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("split=%d: out-of-range cells trained a different tree than NaN cells:\n%s\nvs\n%s", split, got, want)
		}
		ids, err := got.AssignLeaves(badF)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, got.NumLeaves())
		for _, id := range ids {
			counts[id]++
		}
		for id, leaf := range got.Leaves() {
			if counts[id] != leaf.N {
				t.Errorf("split=%d: leaf %d trained on %d rows, prediction routes %d", split, id, leaf.N, counts[id])
			}
		}
	}
}

func TestPruneReducesLeaves(t *testing.T) {
	f := thresholdFrame(t, 500)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 8, CP: -1, MinSplit: 4, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.NumLeaves()
	if before < 3 {
		t.Skipf("tree too small to prune (%d leaves)", before)
	}
	tree.Prune(0.5)
	after := tree.NumLeaves()
	if after >= before {
		t.Errorf("prune did not shrink tree: %d -> %d", before, after)
	}
	// The real split (x<=5) explains nearly all variance, so even heavy
	// pruning must keep it.
	if after < 2 {
		t.Errorf("prune removed the dominant split entirely")
	}
}

func TestPruneToLeaves(t *testing.T) {
	f := thresholdFrame(t, 500)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 8, CP: -1, MinSplit: 4, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree.PruneToLeaves(2)
	if tree.NumLeaves() > 2 {
		t.Errorf("PruneToLeaves(2) left %d leaves", tree.NumLeaves())
	}
	tree.PruneToLeaves(0) // clamps to 1
	if tree.NumLeaves() != 1 {
		t.Errorf("PruneToLeaves(0) left %d leaves", tree.NumLeaves())
	}
}

func TestPruneNoopOnStumpAndZeroAlpha(t *testing.T) {
	f := thresholdFrame(t, 100)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.NumLeaves()
	tree.Prune(0)
	if tree.NumLeaves() != before {
		t.Error("Prune(0) changed the tree")
	}
}

func TestStringAndDescribeLeaf(t *testing.T) {
	f := thresholdFrame(t, 300)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 2, CP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if !strings.Contains(s, "CART (y ~ x)") || !strings.Contains(s, "leaf#") {
		t.Errorf("String() = %q", s)
	}
	desc, err := tree.DescribeLeaf(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "x") && desc != "(root)" {
		t.Errorf("DescribeLeaf = %q", desc)
	}
	if _, err := tree.DescribeLeaf(999); err == nil {
		t.Error("bad leaf id should error")
	}
}

func TestDescribeLeafRootOnly(t *testing.T) {
	f := thresholdFrame(t, 50)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MinSplit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := tree.DescribeLeaf(0)
	if err != nil || desc != "(root)" {
		t.Errorf("DescribeLeaf = %q, %v", desc, err)
	}
}

func TestLeafIDsAreSequential(t *testing.T) {
	f := thresholdFrame(t, 500)
	tree, err := Fit(f, "y", []string{"x"}, Config{Task: Regression, MaxDepth: 5, CP: 0.001, MinSplit: 10, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, leaf := range tree.Leaves() {
		if leaf.LeafID != i {
			t.Fatalf("leaf %d has id %d", i, leaf.LeafID)
		}
	}
}

func TestTwoFeatureInteraction(t *testing.T) {
	// y = 1 only when dc == DC1 AND temp > 78: the tree must find both
	// splits (this is the Fig 18 structure in miniature).
	n := 2000
	src := rng.New(11)
	dc := make([]int, n)
	temp := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		dc[i] = src.IntN(2)
		temp[i] = 56 + src.Float64()*34
		if dc[i] == 0 && temp[i] > 78 {
			y[i] = 1 + src.NormFloat64()*0.05
		} else {
			y[i] = src.NormFloat64() * 0.05
		}
	}
	f := frame.New(n)
	if err := f.AddNominalInts("dc", dc, []string{"DC1", "DC2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("temp", temp); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(f, "y", []string{"dc", "temp"}, Config{Task: Regression, MaxDepth: 3, CP: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	hot1, _ := tree.Predict([]float64{0, 85})
	cold1, _ := tree.Predict([]float64{0, 60})
	hot2, _ := tree.Predict([]float64{1, 85})
	if hot1 < 0.8 {
		t.Errorf("DC1 hot prediction = %v, want ~1", hot1)
	}
	if cold1 > 0.2 || hot2 > 0.2 {
		t.Errorf("cold/DC2 predictions = %v, %v, want ~0", cold1, hot2)
	}
	imp := tree.Importance()
	if imp["temp"] == 0 || imp["dc"] == 0 {
		t.Errorf("importance missing interaction factor: %v", imp)
	}
}

func TestValidateBins(t *testing.T) {
	for _, n := range []int{0, 2, 64, 255} {
		if err := ValidateBins(n); err != nil {
			t.Errorf("ValidateBins(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{1, 256, -3} {
		err := ValidateBins(n)
		if err == nil {
			t.Errorf("ValidateBins(%d) = nil, want error", n)
			continue
		}
		var bre *BinsRangeError
		if !errors.As(err, &bre) || bre.Bins != n {
			t.Errorf("ValidateBins(%d) = %v, want *BinsRangeError carrying %d", n, err, n)
		}
		if !strings.Contains(err.Error(), "[2, 255]") {
			t.Errorf("ValidateBins(%d) error %q does not state the range", n, err)
		}
	}
}
