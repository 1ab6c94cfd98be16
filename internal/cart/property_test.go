package cart

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// randomFrame builds a frame with one continuous, one nominal, and one
// ordinal feature plus a target derived from them with noise, sized and
// seeded by the fuzzer.
func randomFrame(seed uint64, nRaw uint16) (*frame.Frame, error) {
	n := int(nRaw%400) + 50
	src := rng.New(seed)
	x := make([]float64, n)
	cat := make([]int, n)
	ord := make([]int, n)
	y := make([]float64, n)
	for i := range y {
		x[i] = src.Float64() * 100
		cat[i] = src.IntN(5)
		ord[i] = src.IntN(7)
		y[i] = 0.05*x[i] + float64(cat[i]%3) + 0.3*float64(ord[i]) + src.NormFloat64()
	}
	f := frame.New(n)
	if err := f.AddContinuous("x", x); err != nil {
		return nil, err
	}
	if err := f.AddNominalInts("cat", cat, []string{"a", "b", "c", "d", "e"}); err != nil {
		return nil, err
	}
	if err := f.AddOrdinalInts("ord", ord, []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6"}); err != nil {
		return nil, err
	}
	if err := f.AddContinuous("y", y); err != nil {
		return nil, err
	}
	return f, nil
}

var propFeatures = []string{"x", "cat", "ord"}

func propConfig(seed uint64) Config {
	return Config{
		Task:     Regression,
		MaxDepth: int(seed%6) + 2,
		MinSplit: int(seed%30) + 4,
		MinLeaf:  int(seed%10) + 1,
		CP:       0.001,
	}
}

// TestPropPredictionsWithinTargetRange: a regression tree predicts leaf
// means, so every prediction must lie inside [min(y), max(y)].
func TestPropPredictionsWithinTargetRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		fr, err := randomFrame(seed, nRaw)
		if err != nil {
			return false
		}
		tree, err := Fit(fr, "y", propFeatures, propConfig(seed))
		if err != nil {
			return false
		}
		y := fr.MustCol("y").Data
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range y {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		preds, err := tree.PredictFrameContext(context.Background(), fr, 1)
		if err != nil {
			return false
		}
		for _, p := range preds {
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropLeafSizesPartitionRows: leaf N values sum to the row count and
// AssignLeaves agrees with the leaf statistics.
func TestPropLeafSizesPartitionRows(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		fr, err := randomFrame(seed, nRaw)
		if err != nil {
			return false
		}
		cfg := propConfig(seed)
		tree, err := Fit(fr, "y", propFeatures, cfg)
		if err != nil {
			return false
		}
		total := 0
		for _, leaf := range tree.Leaves() {
			if leaf.N < cfg.MinLeaf && tree.NumLeaves() > 1 {
				return false
			}
			total += leaf.N
		}
		if total != fr.NumRows() {
			return false
		}
		assign, err := tree.AssignLeaves(fr)
		if err != nil {
			return false
		}
		counts := make([]int, tree.NumLeaves())
		for _, a := range assign {
			counts[a]++
		}
		for i, leaf := range tree.Leaves() {
			if counts[i] != leaf.N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropImportanceBounds: importances lie in [0, 100] with the max
// exactly 100 when any split happened.
func TestPropImportanceBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		fr, err := randomFrame(seed, nRaw)
		if err != nil {
			return false
		}
		tree, err := Fit(fr, "y", propFeatures, propConfig(seed))
		if err != nil {
			return false
		}
		imp := tree.Importance()
		maxV := 0.0
		for _, v := range imp {
			if v < 0 || v > 100 {
				return false
			}
			if v > maxV {
				maxV = v
			}
		}
		if tree.NumLeaves() > 1 && maxV != 100 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropPruningShrinksMonotonically: repeated weakest-link pruning
// yields a non-increasing leaf count ending at 1, and the pruned tree
// still partitions the data.
func TestPropPruningShrinksMonotonically(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		fr, err := randomFrame(seed, nRaw)
		if err != nil {
			return false
		}
		tree, err := Fit(fr, "y", propFeatures, propConfig(seed))
		if err != nil {
			return false
		}
		prev := tree.NumLeaves()
		for target := prev - 1; target >= 1; target-- {
			tree.PruneToLeaves(target)
			now := tree.NumLeaves()
			if now > target || now > prev {
				return false
			}
			prev = now
			total := 0
			for _, leaf := range tree.Leaves() {
				total += leaf.N
			}
			if total != fr.NumRows() {
				return false
			}
		}
		return tree.NumLeaves() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropSSEDecreasesWithSplits: the total leaf impurity never exceeds
// the root impurity (splitting can only explain variance).
func TestPropSSEDecreasesWithSplits(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		fr, err := randomFrame(seed, nRaw)
		if err != nil {
			return false
		}
		tree, err := Fit(fr, "y", propFeatures, propConfig(seed))
		if err != nil {
			return false
		}
		leafSSE := 0.0
		for _, leaf := range tree.Leaves() {
			if leaf.Impurity < -1e-9 {
				return false
			}
			leafSSE += leaf.Impurity
		}
		return leafSSE <= tree.Root.Impurity+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropRefitterMaintainedOrder drives Refitters through random
// Append/Refit schedules: batches of 0 to 300 rows whose numeric cells
// come from a small set (so ties are common) holding -0, +0, NaN and
// ±Inf. Between refits Append must leave the maintained orders alone;
// after each Refit every numeric feature's order must be the full
// (value, row) order of its finite cells, with no pending row left.
func TestPropRefitterMaintainedOrder(t *testing.T) {
	values := []float64{-2, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	feats := []Feature{
		{Name: "a", Kind: frame.Continuous},
		{Name: "b", Kind: frame.Continuous},
		{Name: "o", Kind: frame.Ordinal, Levels: []string{"o0", "o1", "o2", "o3"}},
		{Name: "c", Kind: frame.Nominal, Levels: []string{"c0", "c1", "c2"}},
	}
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		r, err := NewRefitter("y", feats, nil, RefitConfig{Config: Config{Workers: 1, CP: 0.01}})
		if err != nil {
			t.Fatal(err)
		}
		held := 0 // rows up to the last Refit
		batches := 1 + src.IntN(12)
		for bi := 0; bi < batches; bi++ {
			k := src.IntN(301)
			rows := make([][]float64, k)
			y := make([]float64, k)
			for i := range rows {
				o, c := float64(src.IntN(4)), float64(src.IntN(3))
				if src.Float64() < 0.1 {
					o = math.NaN()
				}
				rows[i] = []float64{values[src.IntN(len(values))], values[src.IntN(len(values))], o, c}
				y[i] = c + src.NormFloat64()
			}
			if err := r.Append(rows, y); err != nil {
				t.Fatal(err)
			}
			for fi, f := range feats {
				if f.Kind != frame.Nominal && !slices.Equal(r.sorted[fi], refSortedFinite(r.cols[fi], 0, held)) {
					t.Fatalf("seed %d batch %d: Append moved feature %s's maintained order", seed, bi, f.Name)
				}
			}
			if r.Rows() == 0 || (bi < batches-1 && src.Float64() < 0.6) {
				continue
			}
			if _, err := r.Refit(context.Background()); err != nil {
				t.Fatal(err)
			}
			held = r.Rows()
			for fi, f := range feats {
				if len(r.pending[fi]) != 0 {
					t.Fatalf("seed %d batch %d: feature %s has %d pending rows after Refit", seed, bi, f.Name, len(r.pending[fi]))
				}
				if f.Kind != frame.Nominal && !slices.Equal(r.sorted[fi], refSortedFinite(r.cols[fi], 0, held)) {
					t.Fatalf("seed %d batch %d: feature %s's order is not the (value, row) order of its finite cells", seed, bi, f.Name)
				}
			}
		}
	}
}

// refSortedFinite is the comparison sort the radix presort replaced,
// kept as the reference its order is checked against: the rows in
// [lo, hi) whose cell in col is finite, sorted by (value, row index).
func refSortedFinite(col []float64, lo, hi int) []int32 {
	s := make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		if isFinite(col[r]) {
			s = append(s, int32(r))
		}
	}
	slices.SortFunc(s, func(a, c int32) int {
		va, vc := col[a], col[c]
		switch {
		case va < vc:
			return -1
		case va > vc:
			return 1
		case a < c:
			return -1
		case a > c:
			return 1
		}
		return 0
	})
	return s
}

// TestPropRadixOrderMatchesComparisonSort checks sortedFinite's radix
// order against refSortedFinite on columns drawn to reach every corner
// of the key mapping and the digit skipping: heavy ties, mixed −0/+0,
// NaN and ±Inf, subnormals and ±MaxFloat64, a single distinct value,
// columns with no finite cell, integer-valued and float32-widened
// values (whose low digits every key shares), and a mix of all of
// them. The sorted range starts at a non-zero lo, as Refitter.Append's
// does, with cells outside it that must not leak in; the histograms
// and the ping-pong buffer are reused dirty from call to call.
func TestPropRadixOrderMatchesComparisonSort(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pick := func(src *rng.Source, vs ...float64) float64 { return vs[src.IntN(len(vs))] }
	type gen struct {
		name string
		draw func(src *rng.Source) float64
	}
	gens := []gen{
		{"ties", func(src *rng.Source) float64 { return float64(src.IntN(4)) - 1.5 }},
		{"signed-zero", func(src *rng.Source) float64 { return pick(src, math.Copysign(0, -1), 0, -1, 1, 0.5) }},
		{"non-finite", func(src *rng.Source) float64 { return pick(src, nan, inf, -inf, src.NormFloat64()) }},
		{"extremes", func(src *rng.Source) float64 {
			return pick(src, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				3*math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
				math.Nextafter(math.MaxFloat64, 0), 0, math.Copysign(0, -1))
		}},
		{"single", func(*rng.Source) float64 { return 3.25 }},
		{"all-non-finite", func(src *rng.Source) float64 { return pick(src, nan, inf, -inf) }},
		{"integers", func(src *rng.Source) float64 { return float64(src.IntN(2000) - 1000) }},
		{"float32", func(src *rng.Source) float64 { return float64(float32(70 + 15*src.NormFloat64())) }},
		{"wide", func(src *rng.Source) float64 { return src.NormFloat64() * math.Pow(10, float64(src.IntN(80)-40)) }},
	}
	pure := gens
	gens = append(gens, gen{"mixed", func(src *rng.Source) float64 { return pure[src.IntN(len(pure))].draw(src) }})

	cnt := new(digitCounts)
	tmp := make([]int32, 0, 6000)
	for gi, g := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 130, 160, 1000, 5000} {
			for rep := 0; rep < 4; rep++ {
				src := rng.New(uint64(1000*gi + 10*n + rep + 1))
				lo := src.IntN(40)
				col := make([]float64, lo+n+src.IntN(40))
				for i := range col {
					col[i] = g.draw(src)
				}
				tmp = tmp[:n]
				for i := range tmp {
					tmp[i] = -1
				}
				got := sortedFinite(col, lo, lo+n, tmp, cnt)
				if want := refSortedFinite(col, lo, lo+n); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d lo=%d rep=%d: radix order differs from the comparison order", g.name, n, lo, rep)
				}
			}
		}
	}
}
