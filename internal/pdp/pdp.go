// Package pdp implements the paper's Cat.-2 machinery: quantifying the
// influence of one decision variable on a failure metric while
// "normalizing the effect of all observed parameters other than the
// parameter of interest" (Section V-C).
//
// The estimator is direct standardization: stratify the data by the
// observed combinations of the other factors, compute the per-stratum
// mean of the metric for each level of the variable of interest, and
// average strata with fixed (level-independent) weights. This needs no
// model and is the classical epidemiological adjustment; it is what
// Fig 15's "MF approach" amounts to. PairedContrast is its two-level
// form for Q2's SKU comparison.
package pdp

import (
	"errors"
	"fmt"
	"math"

	"rainshine/internal/frame"
	"rainshine/internal/stats"
)

// LevelEffect summarizes the adjusted metric for one level of the
// variable of interest.
type LevelEffect struct {
	Level string
	// Mean is the standardized (confounder-adjusted) mean metric.
	Mean float64
	// StdDev is the spread of the per-stratum level means: the error-bar
	// analogue of Fig 15.
	StdDev float64
	// Peak is the standardized high quantile (95th) of the metric,
	// the paper's mu_max spare-capacity proxy.
	Peak float64
	// Strata counts how many covariate strata contained this level.
	Strata int
	// N is the number of underlying observations.
	N int
}

// Standardize computes direct-standardized effects of the categorical
// variable `of` on `metric`, adjusting for the categorical covariates.
// Continuous covariates must be pre-binned into categorical columns
// (see frame helpers); this mirrors the paper's
// "Metric ~ X1, N(X2), ..., N(Xn)" notation.
//
// Only strata containing at least two distinct levels of `of` inform the
// contrast; weighting across strata is by total stratum size, which is
// shared by all levels — so the confounders' composition no longer
// differs between levels.
func Standardize(f *frame.Frame, metric, of string, covariates []string) ([]LevelEffect, error) {
	oc, mc, covs, err := contrastColumns(f, metric, of, covariates)
	if err != nil {
		return nil, err
	}
	// Cells are (stratum, slot of `of`): the levels, then one slot for
	// rows whose `of` names no level. Those rows add to their stratum's
	// weight and count as one more level present in it.
	nLevels := len(oc.Levels)
	slots := nLevels + 1
	idx, err := newStratumIndex(covs, slots)
	if err != nil {
		return nil, err
	}
	// Counting sort: cell c's metric values are vals[off[c]:off[c+1]],
	// in row order, so every mean and quantile below sees its values in
	// the order the rows hold them.
	rows := f.NumRows()
	cell := make([]int32, rows)
	off := make([]int, idx.n*slots+1)
	for r := 0; r < rows; r++ {
		l, ok := oc.LevelIndex(r)
		if !ok {
			l = nLevels
		}
		c := idx.at(r)*slots + l
		cell[r] = int32(c)
		off[c+1]++
	}
	for c := 1; c < len(off); c++ {
		off[c] += off[c-1]
	}
	vals := make([]float64, rows)
	next := append([]int(nil), off[:len(off)-1]...)
	for r, c := range cell {
		vals[next[c]] = mc.Data[r]
		next[c]++
	}

	// Accumulate stratum-weighted means and per-stratum level means,
	// visiting strata in index order: the weighted sums below are float
	// accumulations, so their order is part of every standardized
	// effect's low bits.
	wSum := make([]float64, nLevels)
	wTot := make([]float64, nLevels)
	perStratumMeans := make([][]float64, nLevels)
	perStratumPeaks := make([][]float64, nLevels)
	nobs := make([]int, nLevels)
	strataCount := make([]int, nLevels)
	for s := 0; s < idx.n; s++ {
		cells := off[s*slots : (s+1)*slots+1]
		present := 0
		for l := 0; l < slots; l++ {
			if cells[l+1] > cells[l] {
				present++
			}
		}
		if present < 2 {
			// Stratum observes only one level: it cannot inform a
			// within-stratum contrast, so it is dropped (the paper's
			// tree path likewise conditions on contexts where the
			// decision variable actually varies).
			continue
		}
		w := float64(cells[slots] - cells[0])
		for lvl := 0; lvl < nLevels; lvl++ {
			vs := vals[cells[lvl]:cells[lvl+1]]
			if len(vs) == 0 {
				continue
			}
			m := stats.Mean(vs)
			wSum[lvl] += w * m
			wTot[lvl] += w
			perStratumMeans[lvl] = append(perStratumMeans[lvl], m)
			pk, err := stats.Quantile(vs, 0.95)
			if err != nil {
				return nil, err
			}
			perStratumPeaks[lvl] = append(perStratumPeaks[lvl], pk)
			nobs[lvl] += len(vs)
			strataCount[lvl]++
		}
	}
	out := make([]LevelEffect, 0, nLevels)
	for lvl := 0; lvl < nLevels; lvl++ {
		if wTot[lvl] == 0 {
			continue
		}
		peak := 0.0
		if len(perStratumPeaks[lvl]) > 0 {
			// Standardized peak: weighted mean of per-stratum peaks.
			peak = stats.Mean(perStratumPeaks[lvl])
		}
		out = append(out, LevelEffect{
			Level:  oc.Levels[lvl],
			Mean:   wSum[lvl] / wTot[lvl],
			StdDev: stats.StdDev(perStratumMeans[lvl]),
			Peak:   peak,
			Strata: strataCount[lvl],
			N:      nobs[lvl],
		})
	}
	if len(out) == 0 {
		return nil, errors.New("pdp: no stratum contains two levels of the variable of interest; cannot adjust")
	}
	return out, nil
}

// PairedContrast returns the per-stratum mean differences of metric
// between two levels of the categorical variable `of`, over strata
// defined by the joint covariate levels. Only strata observing both
// levels contribute one difference each — the paired sample on which a
// significance test quantifies "the influence of this parameter after
// normalization" (Section V-C).
func PairedContrast(f *frame.Frame, metric, of, levelA, levelB string, covariates []string) ([]float64, error) {
	oc, mc, covs, err := contrastColumns(f, metric, of, covariates)
	if err != nil {
		return nil, err
	}
	idxA, idxB := -1, -1
	for i, lvl := range oc.Levels {
		switch lvl {
		case levelA:
			idxA = i
		case levelB:
			idxB = i
		}
	}
	if idxA < 0 || idxB < 0 {
		return nil, fmt.Errorf("pdp: levels %q/%q not found in %q", levelA, levelB, of)
	}
	idx, err := newStratumIndex(covs, 2)
	if err != nil {
		return nil, err
	}
	// Per stratum s: sum[2s], n[2s] for level A; sum[2s+1], n[2s+1] for B.
	sum := make([]float64, 2*idx.n)
	n := make([]int, 2*idx.n)
	add := func(r, side int) {
		c := 2*idx.at(r) + side
		sum[c] += mc.Data[r]
		n[c]++
	}
	for r, lvl := range oc.LevelRows() {
		switch lvl {
		case idxA:
			add(r, 0)
		case idxB:
			add(r, 1)
		}
	}
	// Emit the per-stratum differences in index order: the paired tests
	// downstream sum them, so their order is part of the result.
	var diffs []float64
	for c := 0; c < len(n); c += 2 {
		if n[c] == 0 || n[c+1] == 0 {
			continue
		}
		diffs = append(diffs, sum[c]/float64(n[c])-sum[c+1]/float64(n[c+1]))
	}
	if len(diffs) == 0 {
		return nil, errors.New("pdp: no stratum observes both levels")
	}
	return diffs, nil
}

// contrastColumns resolves and checks the columns a stratified estimator
// reads: the categorical variable of interest, the float64 metric, and
// at least one categorical covariate.
func contrastColumns(f *frame.Frame, metric, of string, covariates []string) (oc, mc *frame.Column, covs []*frame.Column, err error) {
	if oc, err = f.Col(of); err != nil {
		return nil, nil, nil, err
	}
	if oc.Kind == frame.Continuous {
		return nil, nil, nil, fmt.Errorf("pdp: variable of interest %q must be categorical", of)
	}
	if mc, err = f.Col(metric); err != nil {
		return nil, nil, nil, err
	}
	if mc.Data == nil {
		return nil, nil, nil, fmt.Errorf("pdp: metric %q must hold float64 values", metric)
	}
	if len(covariates) == 0 {
		return nil, nil, nil, errors.New("pdp: need at least one covariate to stratify over")
	}
	covs = make([]*frame.Column, len(covariates))
	for i, name := range covariates {
		c, err := f.Col(name)
		if err != nil {
			return nil, nil, nil, err
		}
		if c.Kind == frame.Continuous {
			return nil, nil, nil, fmt.Errorf("pdp: covariate %q is continuous; bin it first", name)
		}
		covs[i] = c
	}
	return oc, mc, covs, nil
}

// maxCells bounds the dense table an estimator keeps: strata times the
// level slots it tracks per stratum. The MF standardization needs 504
// strata × 8 slots.
const maxCells = 1 << 20

// stratumIndex numbers the strata the covariates span, densely and in
// mixed radix (DESIGN §6). Each covariate is one digit: its level index,
// with every code that names no level (the typed missing sentinel, any
// other out-of-range code, a NaN cell) in one extra slot. The first
// covariate is the most significant digit, so index order is the
// lexicographic order of the level tuples, and the estimators' float
// sums run in that fixed order.
type stratumIndex struct {
	digits []stratumDigit
	n      int // number of strata: the product of the radices
}

type stratumDigit struct {
	col    *frame.Column
	levels int // the extra slot's value
	stride int
}

// newStratumIndex builds the index over categorical covariates, refusing
// one whose strata times the caller's level slots exceed maxCells.
func newStratumIndex(covs []*frame.Column, slots int) (stratumIndex, error) {
	idx := stratumIndex{digits: make([]stratumDigit, len(covs)), n: 1}
	cells := slots
	for i := len(covs) - 1; i >= 0; i-- {
		c := covs[i]
		radix := len(c.Levels) + 1
		if cells > maxCells/radix {
			return stratumIndex{}, fmt.Errorf("pdp: covariates span more than %d cells of strata by levels; coarsen them", maxCells)
		}
		cells *= radix
		idx.digits[i] = stratumDigit{col: c, levels: len(c.Levels), stride: idx.n}
		idx.n *= radix
	}
	return idx, nil
}

// at returns row r's stratum.
func (s *stratumIndex) at(r int) int {
	k := 0
	for i := range s.digits {
		d := &s.digits[i]
		v, ok := d.col.LevelIndex(r)
		if !ok {
			v = d.levels
		}
		k += v * d.stride
	}
	return k
}

// BinContinuous adds a categorical companion column binning a continuous
// column at the given edges, labelled "lo-hi". The new column is named
// name+"_bin". Returns the new column's name.
func BinContinuous(f *frame.Frame, name string, edges []float64) (string, error) {
	c, err := f.Col(name)
	if err != nil {
		return "", err
	}
	if c.Kind != frame.Continuous {
		return "", fmt.Errorf("pdp: column %q is not continuous", name)
	}
	if len(edges) < 2 {
		return "", errors.New("pdp: need at least two edges")
	}
	labels := make([]string, len(edges)-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("%g-%g", edges[i], edges[i+1])
	}
	binName := name + "_bin"
	// In-place attachment is this helper's documented contract; callers
	// that hold a shared frame ShallowClone before calling (see skucmp).
	if len(labels) <= frame.MaxTypedLevels {
		codes := make([]uint8, f.NumRows())
		for r, v := range c.Data {
			codes[r] = uint8(binIndex(edges, v))
		}
		//lint:allow frameclone BinContinuous is the documented in-place binning mutator
		err = f.AddNominalCodes(binName, codes, labels)
	} else {
		codes := make([]int, f.NumRows())
		for r, v := range c.Data {
			codes[r] = binIndex(edges, v)
		}
		//lint:allow frameclone BinContinuous is the documented in-place binning mutator
		err = f.AddNominalInts(binName, codes, labels)
	}
	if err != nil {
		return "", err
	}
	return binName, nil
}

func binIndex(edges []float64, x float64) int {
	n := len(edges) - 1
	if math.IsNaN(x) || x < edges[0] {
		return 0
	}
	for i := 1; i < n; i++ {
		if x < edges[i] {
			return i - 1
		}
	}
	if x < edges[n] {
		return n - 1
	}
	return n - 1
}
