// Package skucmp answers Q2: are some SKUs (vendor configurations) more
// reliable than others, and what does that mean for procurement?
//
// The SF view (Fig 14) simply groups rack-day failure rates by SKU: it
// conflates the SKU's intrinsic reliability with where the racks sit,
// what they run, and how hard they are driven. The MF view (Fig 15)
// standardizes those factors away, shrinking both the estimated gap and
// its variance. The TCO scenarios then show how the two views can reach
// opposite procurement verdicts when the better SKU carries a price
// premium.
package skucmp

import (
	"errors"
	"fmt"

	"rainshine/internal/frame"
	"rainshine/internal/pdp"
	"rainshine/internal/stats"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

// Stats summarizes one SKU's failure behaviour.
type Stats struct {
	SKU string
	// Avg is the mean rack-day failure rate (the paper's λ, driving
	// maintenance OpEx).
	Avg float64
	// Peak is the extreme-percentile (99.9th) rack-day failure rate —
	// the paper's μmax proxy, driving spare CapEx. An extreme quantile
	// is needed because most rack-days see zero failures; the peak is
	// set by rare correlated bursts.
	Peak float64
	// StdDev is the spread of the estimate (the error bars of
	// Figs 14-15).
	StdDev float64
	// N is the number of rack-day observations.
	N int
}

// AnalyzeSF computes the single-factor view: per-SKU failure statistics
// with no adjustment. f must be a rack-day frame with "sku" and
// "failures" columns.
func AnalyzeSF(f *frame.Frame, skus []topology.SKU) ([]Stats, error) {
	var keep func(string) bool
	if len(skus) > 0 {
		want := make(map[string]bool, len(skus))
		for _, s := range skus {
			want[s.String()] = true
		}
		keep = func(lvl string) bool { return want[lvl] }
	}
	levels, groups, err := f.GroupValues("sku", "failures", keep)
	if err != nil {
		return nil, err
	}
	var out []Stats
	for li, lvl := range levels {
		g := groups[li]
		if len(g) == 0 {
			continue
		}
		peak, err := stats.Quantile(g, 0.999)
		if err != nil {
			return nil, err
		}
		out = append(out, Stats{
			SKU:    lvl,
			Avg:    stats.Mean(g),
			Peak:   peak,
			StdDev: stats.StdDev(g),
			N:      len(g),
		})
	}
	if len(out) == 0 {
		return nil, errors.New("skucmp: no observations for requested SKUs")
	}
	return out, nil
}

// MFCovariates are the factors the MF analysis normalizes, following the
// paper's λ ~ SKU, N(DC), N(RatedPower), N(Workload), N(CommissionYear).
// power_kw is continuous in the rack-day frame and is binned on the fly.
var MFCovariates = []string{"dc", "workload", "commission_year"}

// AnalyzeMF computes the multi-factor view: per-SKU effects standardized
// over DC, workload, commission year, and binned power rating.
//
// The frame is first restricted to the SKUs being compared, so that a
// stratum only contributes when it actually observes more than one of
// them — the contrast is then a true within-context comparison. Without
// this, SKUs deployed in disjoint contexts (the whole point of the
// confounding) would each be averaged over different strata and nothing
// would be adjusted.
func AnalyzeMF(f *frame.Frame, skus []topology.SKU) ([]Stats, error) {
	if len(skus) > 0 {
		skuCol, err := f.Col("sku")
		if err != nil {
			return nil, err
		}
		keep := make(map[int]bool, len(skus))
		for _, s := range skus {
			keep[int(s)] = true
		}
		f = f.Filter(func(row int) bool { return keep[skuCol.Code(row)] })
	}
	covs := append([]string(nil), MFCovariates...)
	if _, err := f.Col("power_kw_bin"); err != nil {
		// Clone before binning: with no SKU filter f is the caller's
		// (possibly shared) frame, and concurrent readers must not see
		// the derived column appear.
		f = f.ShallowClone()
		if _, err := pdp.BinContinuous(f, "power_kw", []float64{0, 10, 20}); err != nil {
			return nil, fmt.Errorf("skucmp: binning power: %w", err)
		}
	}
	covs = append(covs, "power_kw_bin")
	effects, err := pdp.Standardize(f, "failures", "sku", covs)
	if err != nil {
		return nil, fmt.Errorf("skucmp: standardizing: %w", err)
	}
	want := make(map[string]bool, len(skus))
	for _, s := range skus {
		want[s.String()] = true
	}
	var out []Stats
	for _, e := range effects {
		if len(want) > 0 && !want[e.Level] {
			continue
		}
		out = append(out, Stats{
			SKU:    e.Level,
			Avg:    e.Mean,
			Peak:   e.Peak,
			StdDev: e.StdDev,
			N:      e.N,
		})
	}
	if len(out) == 0 {
		return nil, errors.New("skucmp: no adjusted effects for requested SKUs")
	}
	return out, nil
}

// Significance quantifies confidence in the adjusted SKU contrast, the
// paper's "checking if after normalization, the influence of this
// parameter is significant".
type Significance struct {
	// Strata is the number of covariate strata observing both SKUs.
	Strata int
	// MeanDiff is the mean within-stratum rate difference (A - B).
	MeanDiff float64
	// PairedT and Wilcoxon are two-sided p-values from the paired tests
	// over strata (parametric and rank-based).
	PairedT  float64
	Wilcoxon float64
}

// MFSignificance tests whether SKU a's adjusted failure rate differs
// from SKU b's across the covariate strata. The frame must carry the MF
// covariates (power is binned on demand, as in AnalyzeMF).
func MFSignificance(f *frame.Frame, a, b topology.SKU) (*Significance, error) {
	if _, err := f.Col("power_kw_bin"); err != nil {
		f = f.ShallowClone() // never mutate the caller's shared frame
		if _, err := pdp.BinContinuous(f, "power_kw", []float64{0, 10, 20}); err != nil {
			return nil, fmt.Errorf("skucmp: binning power: %w", err)
		}
	}
	covs := append(append([]string(nil), MFCovariates...), "power_kw_bin")
	diffs, err := pdp.PairedContrast(f, "failures", "sku", a.String(), b.String(), covs)
	if err != nil {
		return nil, fmt.Errorf("skucmp: contrasting %v vs %v: %w", a, b, err)
	}
	out := &Significance{Strata: len(diffs), MeanDiff: stats.Mean(diffs)}
	zeros := make([]float64, len(diffs))
	if t, err := stats.PairedT(diffs, zeros); err == nil {
		out.PairedT = t.P
	} else {
		out.PairedT = 1
	}
	if w, err := stats.WilcoxonSignedRank(diffs, zeros); err == nil {
		out.Wilcoxon = w.P
	} else {
		out.Wilcoxon = 1
	}
	return out, nil
}

// Verdict is the outcome of a procurement TCO comparison of two SKUs.
type Verdict struct {
	PriceRatio float64 `json:"price_ratio"`
	// SavingsSF / SavingsMF are the relative TCO savings of buying the
	// "reliable" SKU, as estimated from the SF and MF failure views.
	SavingsSF float64 `json:"savings_sf"`
	SavingsMF float64 `json:"savings_mf"`
}

// CompareTCO evaluates procuring candidate (e.g. S4) instead of baseline
// (e.g. S2) at the given price ratios, once with SF statistics and once
// with MF statistics. serversPerRack converts rack-day rates to
// per-server-year rates for the maintenance term; horizon is in years.
func CompareTCO(sfBase, sfCand, mfBase, mfCand Stats, serversPerRack int, priceRatios []float64, m tco.CostModel, horizonYears float64) ([]Verdict, error) {
	if serversPerRack <= 0 {
		return nil, errors.New("skucmp: non-positive servers per rack")
	}
	if len(priceRatios) == 0 {
		return nil, errors.New("skucmp: no price ratios")
	}
	toScenario := func(base, cand Stats, ratio float64) tco.ProcurementScenario {
		perServerYear := func(s Stats) float64 {
			return s.Avg * 365 / float64(serversPerRack)
		}
		spareFrac := func(s Stats) float64 {
			// Peak rack-day failures, held as spares per rack.
			f := s.Peak / float64(serversPerRack)
			if f > 1 {
				f = 1
			}
			return f
		}
		return tco.ProcurementScenario{
			Model:              m,
			HorizonYears:       horizonYears,
			PriceA:             ratio,
			PriceB:             1,
			SpareFracA:         spareFrac(cand),
			SpareFracB:         spareFrac(base),
			FailPerServerYearA: perServerYear(cand),
			FailPerServerYearB: perServerYear(base),
		}
	}
	out := make([]Verdict, 0, len(priceRatios))
	for _, ratio := range priceRatios {
		sf, err := toScenario(sfBase, sfCand, ratio).Savings()
		if err != nil {
			return nil, err
		}
		mf, err := toScenario(mfBase, mfCand, ratio).Savings()
		if err != nil {
			return nil, err
		}
		out = append(out, Verdict{PriceRatio: ratio, SavingsSF: sf, SavingsMF: mf})
	}
	return out, nil
}
