// Package envan answers Q3: how far can the environmental set points
// (temperature, relative humidity) stray before reliability suffers?
//
// The SF view bins failure rates by operating temperature (Figs 16-17).
// The MF view fits a CART over the disk failure rate with every factor
// present, reads the temperature / humidity thresholds the tree
// discovered, and contrasts the implied operating regimes per DC
// (Fig 18): in the study, DC1 disks degrade ~50% above 78 °F and a
// further ~25% below 25% RH, while DC2 (chilled water) is insensitive.
package envan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/parallel"
	"rainshine/internal/stats"
)

// TempEdges are the Fig 16/17 temperature bins: <60, 60-65, 65-70,
// 70-75, >75 °F (open ends are clamped by the histogram helper).
var TempEdges = []float64{0, 60, 65, 70, 75, 200}

// TempBinLabels label the bins for display.
var TempBinLabels = []string{"<60", "60-65", "65-70", "70-75", ">75"}

// BinnedRates returns, per temperature bin, the Summary of the value
// column over rack-days (mean = the bar, sd = the error bar).
func BinnedRates(f *frame.Frame, value string) ([]stats.Summary, error) {
	tc, err := f.Col("temp")
	if err != nil {
		return nil, err
	}
	vc, err := f.Col(value)
	if err != nil {
		return nil, err
	}
	return stats.GroupedSummary(tc.Data, vc.Data, TempEdges)
}

// MFFeatures are the candidate factors for the environmental tree.
// Region is included so spatial rate differences (hot aisles carry both
// higher base hazard and higher temperatures) are absorbed by their own
// splits instead of biasing the temperature threshold downward.
// Month absorbs the seasonal failure ramp, which otherwise masquerades
// as a temperature effect (hot months are also high-failure months for
// non-environmental reasons).
var MFFeatures = []string{"dc", "region", "temp", "rh", "age_months", "sku", "workload", "power_kw", "month"}

// Thresholds holds the environmental split points the MF tree found.
type Thresholds struct {
	// TempF is the temperature split (°F); NaN if the tree found none.
	TempF float64
	// RH is the humidity split (%) conditional on hot operation; NaN if
	// none was found.
	RH float64
}

// GroupRates is one DC's failure rates across the Fig 18 regimes, each
// a Summary of rack-day disk failure counts.
type GroupRates struct {
	DC     string
	Cool   stats.Summary // temp <= threshold
	Hot    stats.Summary // temp >= threshold
	HotDry stats.Summary // temp >= threshold AND rh <= RH threshold
	All    stats.Summary
}

// Result is the full Q3 MF analysis.
type Result struct {
	// Tree is the full MF model over every factor (for inspection and
	// importance ranking).
	Tree *cart.Tree
	// EnvTree is the second-stage tree over the residual failure rate,
	// from which the set-point thresholds are read.
	EnvTree    *cart.Tree
	Thresholds Thresholds
	Groups     []GroupRates // one per DC
	// DroppedFeatures lists candidate factors the frame did not carry
	// (dirty external tables): the analysis degraded to the rest.
	DroppedFeatures []string
	// RowsUsed and RowsDropped account for rows excluded for a
	// non-finite target — the effective-coverage view of the fit.
	RowsUsed    int
	RowsDropped int
}

// BaselineFeatures are the non-environmental factors whose influence is
// normalized out before reading the environmental thresholds — the
// paper's "normalizing other factors such as age, SKU, workload, power
// rating".
var BaselineFeatures = []string{"dc", "region", "sku", "workload", "power_kw", "age_months", "month"}

// Analyze runs the MF environmental analysis over a rack-day frame.
//
// Two-stage procedure: (1) fit a baseline tree of the disk failure rate
// on every non-environmental factor and take residuals; (2) fit a small
// tree of the residuals on the environmental variables and read its
// split points. Stage 1 removes the spatial/hardware/seasonal variance
// that would otherwise let a noisy interior split masquerade as the
// environmental threshold.
//
// Analyze is AnalyzeContext with context.Background(); use that
// variant for cancellable analysis.
func Analyze(f *frame.Frame, cfg cart.Config) (*Result, error) {
	return AnalyzeContext(context.Background(), f, cfg)
}

// AnalyzeContext is Analyze under a context: the stage-1 fits, the
// hot-regime humidity scan, and the per-DC regime summaries all fan
// across cfg.Workers goroutines (0 means GOMAXPROCS, 1 forces the
// serial path), with results identical for every worker count.
func AnalyzeContext(ctx context.Context, f *frame.Frame, cfg cart.Config) (*Result, error) {
	if cfg.MaxDepth == 0 {
		// Deep, permissive growth: the environmental effects live
		// several splits below the dominant hardware/spatial factors,
		// so rpart-default stopping would never reach them. The
		// caller's engine settings (workers, split policy, bins) stand.
		cfg.MaxDepth, cfg.MinSplit, cfg.MinLeaf, cfg.CP = 8, 2000, 700, 0.00005
	}
	cfg.Task = cart.Regression

	// Graceful degradation for dirty external tables: the hard core is
	// the target plus the environmental axes; any other absent factor
	// is dropped from the candidate lists rather than failing the run.
	for _, name := range []string{"disk_failures", "dc", "temp", "rh"} {
		if _, err := f.Col(name); err != nil {
			return nil, fmt.Errorf("envan: frame unusable: %w", err)
		}
	}
	mfFeats, droppedMF := availableFeatures(f, MFFeatures)
	baseFeats, droppedBase := availableFeatures(f, BaselineFeatures)
	if len(baseFeats) == 0 {
		return nil, errors.New("envan: no baseline features available")
	}

	// Rows without a finite target cannot inform any fit; exclude them
	// up front and report the loss as reduced coverage.
	target, err := f.Col("disk_failures")
	if err != nil {
		return nil, err
	}
	allRows := f.NumRows()
	for _, v := range target.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			f = f.Filter(func(r int) bool {
				v := target.Data[r]
				return !math.IsNaN(v) && !math.IsInf(v, 0)
			})
			break
		}
	}
	if f.NumRows() == 0 {
		return nil, errors.New("envan: no rows with a finite target")
	}

	// The inspection tree and the stage-1 baseline are independent fits
	// over the same frame: run them concurrently through index-ordered
	// slots. The MF fit is task 0, so its error keeps priority,
	// matching the old serial order.
	fitFeats := [2][]string{mfFeats, baseFeats}
	fitLabel := [2]string{"tree", "baseline tree"}
	fits, err := parallel.Map(ctx, cfg.Workers, 2, func(i int) (*cart.Tree, error) {
		t, err := cart.FitContext(ctx, f, "disk_failures", fitFeats[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("envan: fitting %s: %w", fitLabel[i], err)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	tree, baseline := fits[0], fits[1]
	pred, err := baseline.PredictFrameContext(ctx, f, cfg.Workers)
	if err != nil {
		return nil, err
	}
	diskCol0, err := f.Col("disk_failures")
	if err != nil {
		return nil, err
	}
	resid := make([]float64, f.NumRows())
	for i := range resid {
		resid[i] = winsorize(diskCol0.Data[i] - pred[i])
	}
	// Stage 2: a compact environment tree over the residuals. A fresh
	// frame shares the env columns' storage with f.
	envFrame := frame.New(f.NumRows())
	for _, name := range []string{"dc", "temp", "rh"} {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		// Attach as-is, sharing cell storage whatever the physical
		// layout; the env frame is read-only.
		if err := envFrame.AddColumn(*c); err != nil {
			return nil, err
		}
	}
	if err := envFrame.AddContinuous("resid", resid); err != nil {
		return nil, err
	}
	// No CP gate: the residual variance is dominated by burst noise, so
	// any relative-improvement threshold would reject the real (small in
	// SSE terms, large in rate terms) environmental step. Depth and leaf
	// size keep the tree tame instead.
	envTree, err := cart.FitContext(ctx, envFrame, "resid", []string{"dc", "temp", "rh"},
		cart.Config{Task: cart.Regression, MaxDepth: 3, MinSplit: 3000, MinLeaf: 1200, CP: -1,
			Workers: cfg.Workers, Split: cfg.Split, Bins: cfg.Bins})
	if err != nil {
		return nil, fmt.Errorf("envan: fitting env tree: %w", err)
	}

	th := Thresholds{TempF: math.NaN(), RH: math.NaN()}
	if t, ok := bestThreshold(envTree, "temp", ""); ok {
		th.TempF = t
	}
	if !math.IsNaN(th.TempF) {
		// The paper reads RH as a sub-branch criterion *while operating
		// above the temperature threshold*. The dedicated sub-fit also
		// enforces the physical plausibility constraints (dry side
		// worse, and a minority excursion regime) that a raw interior
		// tree split does not.
		if r, ok := hotRegimeRHSplit(ctx, envFrame, th.TempF, cfg.Workers); ok {
			th.RH = r
		}
	}

	res := &Result{
		Tree: tree, EnvTree: envTree, Thresholds: th,
		DroppedFeatures: mergeUnique(droppedMF, droppedBase),
		RowsUsed:        f.NumRows(),
		RowsDropped:     allRows - f.NumRows(),
	}

	dcCol, err := f.Col("dc")
	if err != nil {
		return nil, err
	}
	tempCol, err := f.Col("temp")
	if err != nil {
		return nil, err
	}
	rhCol, err := f.Col("rh")
	if err != nil {
		return nil, err
	}
	diskCol, err := f.Col("disk_failures")
	if err != nil {
		return nil, err
	}
	tThr := th.TempF
	if math.IsNaN(tThr) {
		tThr = 78 // fall back to the paper's published threshold
	}
	rThr := th.RH
	if math.IsNaN(rThr) {
		rThr = 25
	}
	// Each DC's regime summary scans the frame independently; fan them
	// out and collect in level order.
	res.Groups, err = parallel.Map(ctx, cfg.Workers, len(dcCol.Levels), func(dcIdx int) (GroupRates, error) {
		var cool, hot, hotDry, all []float64
		for r := 0; r < f.NumRows(); r++ {
			if dcCol.Code(r) != dcIdx {
				continue
			}
			v := diskCol.Data[r]
			all = append(all, v)
			temp := tempCol.Data[r]
			if math.IsNaN(temp) || math.IsInf(temp, 0) {
				continue // unreadable sensor: no regime attribution
			}
			if temp <= tThr {
				cool = append(cool, v)
			} else {
				hot = append(hot, v)
				if rh := rhCol.Data[r]; rh <= rThr {
					// NaN rh fails the comparison and stays out of the
					// dry regime, which is the conservative reading.
					hotDry = append(hotDry, v)
				}
			}
		}
		g := GroupRates{DC: dcCol.Levels[dcIdx]}
		g.Cool = summarizeOrZero(cool)
		g.Hot = summarizeOrZero(hot)
		g.HotDry = summarizeOrZero(hotDry)
		g.All = summarizeOrZero(all)
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	if len(res.Groups) == 0 {
		return nil, errors.New("envan: no DC groups in frame")
	}
	return res, nil
}

// winsorize caps a residual's magnitude. Correlated bursts leave
// residuals of many failures on single rack-days; untreated, their
// squared error dwarfs the fractional environmental steps the residual
// tree is looking for, letting splits chase burst noise instead.
func winsorize(r float64) float64 {
	const cap = 1.0
	if r > cap {
		return cap
	}
	if r < -cap {
		return -cap
	}
	return r
}

// hotRegimeRHSplit searches for the humidity sub-branch criterion within
// the hot regime: the CART gain criterion (between-group SSE reduction)
// evaluated over admissible splits only — the dry side must be the
// harmful minority, since the paper's finding is an excursion boundary,
// not a median split. Returns (threshold, true) when an admissible split
// with positive gain exists.
//
// The boundary scan precomputes the dry-side prefix sums in sorted order
// (so every candidate reads exactly the float the serial accumulator
// would have held) and then fans contiguous chunks of candidates across
// the pool; the chunk bests are reduced in order with a strict
// greater-than, reproducing the serial first-maximum tie-break.
func hotRegimeRHSplit(ctx context.Context, envFrame *frame.Frame, tempThr float64, workers int) (float64, bool) {
	tempCol, err := envFrame.Col("temp")
	if err != nil {
		return 0, false
	}
	rhAll, err := envFrame.Col("rh")
	if err != nil {
		return 0, false
	}
	// Finite-rh rows only: a NaN humidity cell cannot place a row on
	// either side of a candidate threshold.
	hot := envFrame.Filter(func(r int) bool {
		return tempCol.Data[r] > tempThr && isFiniteVal(rhAll.Data[r])
	})
	if hot.NumRows() < 200 {
		return 0, false
	}
	rhCol, err := hot.Col("rh")
	if err != nil {
		return 0, false
	}
	residCol, err := hot.Col("resid")
	if err != nil {
		return 0, false
	}
	rh, resid := rhCol.Data, residCol.Data
	n := len(rh)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case rh[a] < rh[b]:
			return -1
		case rh[a] > rh[b]:
			return 1
		}
		return 0
	})
	// Prefix sums over the sorted order: prefix[k+1] is exactly the
	// running drySum the serial scan held at candidate k, so candidates
	// evaluate to identical floats regardless of which chunk runs them.
	prefix := make([]float64, n+1)
	for k := 0; k < n; k++ {
		prefix[k+1] = prefix[k] + resid[idx[k]]
	}
	// Summed in frame order, not sorted order: the serial code did, and
	// float addition is order-sensitive at the ulp level.
	total := 0.0
	for _, v := range resid {
		total += v
	}
	minLeaf := n / 20
	if minLeaf < 100 {
		minLeaf = 100
	}
	type chunkBest struct {
		gain, thr float64
		found     bool
	}
	chunks := parallel.Chunks(n-1, parallel.Workers(workers))
	bests, err := parallel.Map(ctx, workers, len(chunks), func(ci int) (chunkBest, error) {
		var best chunkBest
		for k := chunks[ci][0]; k < chunks[ci][1]; k++ {
			if rh[idx[k]] == rh[idx[k+1]] {
				continue
			}
			nd := k + 1
			nh := n - nd
			// Admissibility: enough support on both sides, dry side a
			// minority of hot operation.
			if nd < minLeaf || nh < minLeaf || 2*nd >= n {
				continue
			}
			drySum := prefix[k+1]
			meanDry := drySum / float64(nd)
			meanHumid := (total - drySum) / float64(nh)
			if meanDry <= meanHumid {
				continue // humid side worse: not the paper's dry effect
			}
			d := meanDry - meanHumid
			gain := float64(nd) * float64(nh) / float64(n) * d * d
			if gain > best.gain {
				best = chunkBest{gain: gain, thr: (rh[idx[k]] + rh[idx[k+1]]) / 2, found: true}
			}
		}
		return best, nil
	})
	if err != nil {
		return 0, false
	}
	var best chunkBest
	for _, b := range bests {
		if b.found && b.gain > best.gain {
			best = b
		}
	}
	return best.thr, best.found
}

func isFiniteVal(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// availableFeatures splits a candidate factor list into the columns the
// frame actually carries and those it does not. Degraded external
// tables (dropped columns) shrink the feature set instead of failing
// the analysis.
func availableFeatures(f *frame.Frame, candidates []string) (have, dropped []string) {
	for _, name := range candidates {
		if _, err := f.Col(name); err != nil {
			dropped = append(dropped, name)
		} else {
			have = append(have, name)
		}
	}
	return have, dropped
}

// mergeUnique unions string lists preserving first-seen order.
func mergeUnique(lists ...[]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range lists {
		for _, s := range l {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func summarizeOrZero(xs []float64) stats.Summary {
	s, err := stats.Summarize(xs)
	if err != nil {
		return stats.Summary{}
	}
	return s
}

// bestThreshold walks the tree and returns the threshold of the
// highest-gain split on the named continuous feature. When condFeature
// is non-empty, only splits inside right (greater-than) subtrees of a
// condFeature split are eligible — used for the RH threshold, which the
// paper finds conditional on hot operation (a temp split).
func bestThreshold(t *cart.Tree, feature, condFeature string) (float64, bool) {
	idx := func(name string) int {
		for i, f := range t.Features {
			if f.Name == name {
				return i
			}
		}
		return -1
	}
	fi := idx(feature)
	if fi < 0 {
		return 0, false
	}
	ci := -1
	if condFeature != "" {
		ci = idx(condFeature)
		if ci < 0 {
			return 0, false
		}
	}
	bestGain := 0.0
	bestThr := 0.0
	found := false
	var walk func(n *cart.Node, inCond bool)
	walk = func(n *cart.Node, inCond bool) {
		if n.IsLeaf() {
			return
		}
		if n.Feature == fi && (ci < 0 || inCond) {
			gain := n.Impurity - n.Left.Impurity - n.Right.Impurity
			if gain > bestGain {
				bestGain, bestThr, found = gain, n.Threshold, true
			}
		}
		rightCond := inCond || n.Feature == ci
		walk(n.Left, inCond)
		walk(n.Right, rightCond)
	}
	walk(t.Root, false)
	return bestThr, found
}
