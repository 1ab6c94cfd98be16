package cart

import (
	"context"
	"math"
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
