// Package predict implements the paper's stated future-work extension:
// predicting datacenter failures for pro-active maintenance (Section
// VII), using the same multi-factor machinery.
//
// The task is rack-day failure prediction: given a rack's static factors
// and the day's environment, will the rack generate at least one
// hardware failure? Section V notes that CART alone is insufficient for
// prediction because failed rack-days are a small minority, and points
// to class-balancing pre-processing [6, 25]; this package implements the
// time-ordered train/test split, majority-class downsampling, and the
// standard evaluation metrics (precision/recall/F1, ROC AUC) around a
// classification CART.
package predict

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// DefaultFeatures are the predictors available before the day's failures
// are observed.
var DefaultFeatures = []string{
	"dc", "region", "sku", "workload", "power_kw", "age_months",
	"temp", "rh", "dow", "month",
}

// Config controls training and evaluation.
type Config struct {
	// TrainFraction is the time-ordered share of days used for
	// training. Zero means 0.7.
	TrainFraction float64
	// Features lists the predictor columns. Nil means DefaultFeatures.
	Features []string
	// Balance downsamples the majority (no-failure) class in the
	// training split to at most BalanceRatio times the minority class.
	// Zero BalanceRatio means 3.
	Balance      bool
	BalanceRatio float64
	// Threshold converts P(failure) into a binary alarm. Zero means 0.5.
	Threshold float64
	// Tree overrides the CART configuration.
	Tree cart.Config
	// Seed drives the downsampling stream. Zero means rng.DefaultSeed.
	Seed uint64
	// Workers bounds the fit and scoring fan-out (cart.Config.Workers
	// semantics: 0 means GOMAXPROCS, 1 forces serial). Results are
	// identical for every worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.7
	}
	if c.Features == nil {
		c.Features = DefaultFeatures
	}
	if c.BalanceRatio == 0 {
		c.BalanceRatio = 3
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Seed == 0 {
		c.Seed = rng.DefaultSeed
	}
	if c.Tree.MaxDepth == 0 {
		c.Tree = cart.Config{MaxDepth: 7, MinSplit: 400, MinLeaf: 150, CP: 0.0005}
	}
	return c
}

// Metrics are the binary-classification quality measures on the held-out
// time range.
type Metrics struct {
	TP, FP, TN, FN int
	Precision      float64
	Recall         float64
	F1             float64
	Accuracy       float64
	// AUC is the ROC area under curve of the probability scores.
	AUC float64
	// PositiveRate is the base rate of failure rack-days in the test
	// split (the trivial always-negative classifier's miss rate).
	PositiveRate float64
}

// Result is a trained and evaluated model.
type Result struct {
	Tree *cart.Tree
	// Importance ranks the predictors.
	Importance map[string]float64
	Metrics    Metrics
	TrainRows  int
	TestRows   int
}

// Train fits and evaluates a failure predictor on a rack-day frame (from
// metrics.RackDayFrame). The frame must contain "day" and "failures"
// columns plus the configured features. Train is TrainContext with
// context.Background(); use that variant for cancellable training.
func Train(f *frame.Frame, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), f, cfg)
}

// TrainContext is Train under a context, fanning the fit and the test
// scoring across cfg.Workers goroutines.
func TrainContext(ctx context.Context, f *frame.Frame, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.TrainFraction <= 0 || cfg.TrainFraction >= 1 {
		return nil, fmt.Errorf("predict: train fraction %v outside (0,1)", cfg.TrainFraction)
	}
	dayCol, err := f.Col("day")
	if err != nil {
		return nil, err
	}
	failCol, err := f.Col("failures")
	if err != nil {
		return nil, err
	}
	maxDay := 0.0
	for _, d := range dayCol.Data {
		if d > maxDay {
			maxDay = d
		}
	}
	cut := cfg.TrainFraction * (maxDay + 1)

	// Attach the binary label.
	labels := make([]int, f.NumRows())
	for r := range labels {
		if failCol.Data[r] > 0 {
			labels[r] = 1
		}
	}
	work := f
	if _, err := work.Col("fail_label"); err != nil {
		// Clone instead of mutating: f is typically the study's shared
		// rack-day frame, read concurrently by other analyses.
		work = f.ShallowClone()
		if err := work.AddNominalInts("fail_label", labels, []string{"ok", "fail"}); err != nil {
			return nil, err
		}
	}

	var trainRows, testRows []int
	for r := 0; r < f.NumRows(); r++ {
		if dayCol.Data[r] < cut {
			trainRows = append(trainRows, r)
		} else {
			testRows = append(testRows, r)
		}
	}
	if len(trainRows) == 0 || len(testRows) == 0 {
		return nil, errors.New("predict: empty train or test split")
	}

	if cfg.Balance {
		trainRows = downsample(trainRows, labels, cfg.BalanceRatio, rng.New(cfg.Seed).Split("predict/balance"))
	}
	train := work.Subset(trainRows)
	test := work.Subset(testRows)

	treeCfg := cfg.Tree
	treeCfg.Task = cart.Classification
	if treeCfg.Workers == 0 {
		treeCfg.Workers = cfg.Workers
	}
	tree, err := cart.FitContext(ctx, train, "fail_label", cfg.Features, treeCfg)
	if err != nil {
		return nil, fmt.Errorf("predict: fitting: %w", err)
	}

	scores, err := tree.ProbaFrameContext(ctx, test, 1, treeCfg.Workers)
	if err != nil {
		return nil, err
	}
	testLabels := make([]int, test.NumRows())
	lc, err := test.Col("fail_label")
	if err != nil {
		return nil, err
	}
	for r := range testLabels {
		testLabels[r] = lc.Code(r)
	}
	m, err := Evaluate(scores, testLabels, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	return &Result{
		Tree:       tree,
		Importance: tree.Importance(),
		Metrics:    m,
		TrainRows:  train.NumRows(),
		TestRows:   test.NumRows(),
	}, nil
}

// downsample keeps every positive row and at most ratio-times as many
// negatives, selected uniformly. rows must be ascending (TrainContext
// builds them so); the kept rows come back in that order, so Subset
// keeps time order.
func downsample(rows []int, labels []int, ratio float64, src *rng.Source) []int {
	var neg []int // positions in rows of the negatives
	for i, r := range rows {
		if labels[r] != 1 {
			neg = append(neg, i)
		}
	}
	npos := len(rows) - len(neg)
	keep := int(float64(npos) * ratio)
	if keep >= len(neg) || npos == 0 {
		return rows
	}
	src.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	kept := make([]bool, len(rows))
	for _, i := range neg[:keep] {
		kept[i] = true
	}
	out := make([]int, 0, npos+keep)
	for i, r := range rows {
		if labels[r] == 1 || kept[i] {
			out = append(out, r)
		}
	}
	return out
}

// Evaluate computes classification metrics for probability scores
// against binary labels at the given alarm threshold.
func Evaluate(scores []float64, labels []int, threshold float64) (Metrics, error) {
	if len(scores) != len(labels) {
		return Metrics{}, errors.New("predict: scores/labels length mismatch")
	}
	if len(scores) == 0 {
		return Metrics{}, errors.New("predict: empty evaluation set")
	}
	var m Metrics
	positives := 0
	for i, s := range scores {
		alarm := s >= threshold
		fail := labels[i] == 1
		switch {
		case alarm && fail:
			m.TP++
		case alarm && !fail:
			m.FP++
		case !alarm && fail:
			m.FN++
		default:
			m.TN++
		}
		if fail {
			positives++
		}
	}
	n := float64(len(scores))
	m.PositiveRate = float64(positives) / n
	m.Accuracy = float64(m.TP+m.TN) / n
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	m.AUC = auc(scores, labels)
	return m, nil
}

// auc computes the ROC area under curve via the rank-sum (Mann-Whitney)
// formulation, with mid-rank handling for tied scores.
func auc(scores []float64, labels []int) float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Mid-ranks.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var rankSum float64
	nPos, nNeg := 0, 0
	for i, l := range labels {
		if l == 1 {
			rankSum += ranks[i]
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}
