package figures

import (
	"context"
	"fmt"
	"math"
	"sort"

	"rainshine/internal/cart"
	"rainshine/internal/envan"
	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/provision"
	"rainshine/internal/skucmp"
	"rainshine/internal/stats"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

// BarPoint is one bar of a grouped-rate figure: the mean rack-day
// failure rate of a group with its spread, plus the paper-style
// normalization (relative to the figure's maximum mean).
type BarPoint struct {
	Label      string
	Mean       float64
	StdDev     float64
	Normalized float64
	N          int
}

// CDFSeries is one curve of a CDF figure.
type CDFSeries struct {
	Name string
	X    []float64
	P    []float64
}

// normalizeBars fills the Normalized field relative to the max mean.
func normalizeBars(bars []BarPoint) []BarPoint {
	maxV := 0.0
	for _, b := range bars {
		if b.Mean > maxV {
			maxV = b.Mean
		}
	}
	for i := range bars {
		if maxV > 0 {
			bars[i].Normalized = bars[i].Mean / maxV
		}
	}
	return bars
}

// groupBars summarizes `value` per level of categorical column `key`.
func groupBars(f *frame.Frame, key, value string, keep func(label string) bool) ([]BarPoint, error) {
	levels, groups, err := f.GroupValues(key, value)
	if err != nil {
		return nil, err
	}
	var bars []BarPoint
	for li, lvl := range levels {
		if keep != nil && !keep(lvl) {
			continue
		}
		if len(groups[li]) == 0 {
			continue
		}
		s, err := stats.Summarize(groups[li])
		if err != nil {
			return nil, err
		}
		bars = append(bars, BarPoint{Label: lvl, Mean: s.Mean, StdDev: s.StdDev, N: s.N})
	}
	return normalizeBars(bars), nil
}

// binnedBars summarizes `value` over bins of continuous column `key`.
func binnedBars(f *frame.Frame, key, value string, edges []float64, labels []string) ([]BarPoint, error) {
	kc, err := f.Col(key)
	if err != nil {
		return nil, err
	}
	vc, err := f.Col(value)
	if err != nil {
		return nil, err
	}
	sums, err := stats.GroupedSummary(kc.Data, vc.Data, edges)
	if err != nil {
		return nil, err
	}
	bars := make([]BarPoint, len(sums))
	for i, s := range sums {
		bars[i] = BarPoint{Label: labels[i], Mean: s.Mean, StdDev: s.StdDev, N: s.N}
	}
	return normalizeBars(bars), nil
}

// Fig1 reproduces the illustrative Fig 1: the pooled CDF of per-rack
// spare requirements for a workload versus the CDFs of the two most
// extreme MF clusters, showing why pooled 95th-percentile provisioning
// overshoots.
func (d *Data) Fig1() ([]CDFSeries, error) { return cached(d, "fig1", d.fig1) }

func (d *Data) fig1() ([]CDFSeries, error) {
	sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, topology.W1, metrics.Daily, nil)
	if err != nil {
		return nil, err
	}
	toSeries := func(name string, fractions []float64) (CDFSeries, error) {
		e, err := stats.NewECDF(fractions)
		if err != nil {
			return CDFSeries{}, err
		}
		xs, ps := e.Points()
		for i := range xs {
			xs[i] *= 100 // percent failed servers
		}
		return CDFSeries{Name: name, X: xs, P: ps}, nil
	}
	pooled, err := toSeries("entire workload", sl.PooledFractions)
	if err != nil {
		return nil, err
	}
	out := []CDFSeries{pooled}
	// Pick the lowest- and highest-mean clusters.
	type cm struct {
		idx  int
		mean float64
	}
	var cms []cm
	for i, fs := range sl.ClusterFractions {
		if len(fs) > 0 {
			cms = append(cms, cm{i, stats.Mean(fs)})
		}
	}
	sort.Slice(cms, func(a, b int) bool { return cms[a].mean < cms[b].mean })
	if len(cms) >= 2 {
		lo, err := toSeries("low-mu group", sl.ClusterFractions[cms[0].idx])
		if err != nil {
			return nil, err
		}
		hi, err := toSeries("high-mu group", sl.ClusterFractions[cms[len(cms)-1].idx])
		if err != nil {
			return nil, err
		}
		out = append(out, lo, hi)
	}
	return out, nil
}

// Fig2 reproduces Fig 2: mean failure rate per DC region.
func (d *Data) Fig2() ([]BarPoint, error) { return cached(d, "fig2", d.fig2) }

func (d *Data) fig2() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	return groupBars(f, "region", "failures", nil)
}

// SeriesBars is a labelled bar group (one per year for Figs 3-4).
type SeriesBars struct {
	Series string
	Bars   []BarPoint
}

// byTimeAndYear groups the failure rate by an ordinal time column,
// separately for observation years 0 and 1 (2012 and 2013).
func (d *Data) byTimeAndYear(timeCol string) ([]SeriesBars, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	tc, err := f.Col(timeCol)
	if err != nil {
		return nil, err
	}
	yc, err := f.Col("year")
	if err != nil {
		return nil, err
	}
	vc, err := f.Col("failures")
	if err != nil {
		return nil, err
	}
	var out []SeriesBars
	for year := 0; year < 2; year++ {
		sums := make([]float64, len(tc.Levels))
		counts := make([]int, len(tc.Levels))
		sq := make([]float64, len(tc.Levels))
		for r := 0; r < f.NumRows(); r++ {
			if yc.Code(r) != year {
				continue
			}
			li := tc.Code(r)
			sums[li] += vc.Data[r]
			sq[li] += vc.Data[r] * vc.Data[r]
			counts[li]++
		}
		bars := make([]BarPoint, 0, len(tc.Levels))
		for li, lvl := range tc.Levels {
			if counts[li] == 0 {
				continue
			}
			n := float64(counts[li])
			mean := sums[li] / n
			varr := sq[li]/n - mean*mean
			if varr < 0 {
				varr = 0
			}
			bars = append(bars, BarPoint{Label: lvl, Mean: mean, StdDev: math.Sqrt(varr), N: counts[li]})
		}
		out = append(out, SeriesBars{Series: fmt.Sprintf("%d", 2012+year), Bars: normalizeBars(bars)})
	}
	return out, nil
}

// Fig3 reproduces Fig 3: failure rate by day of week, per year.
func (d *Data) Fig3() ([]SeriesBars, error) { return cached(d, "fig3", d.fig3) }

func (d *Data) fig3() ([]SeriesBars, error) { return d.byTimeAndYear("dow") }

// Fig4 reproduces Fig 4: failure rate by month of year, per year.
func (d *Data) Fig4() ([]SeriesBars, error) { return cached(d, "fig4", d.fig4) }

func (d *Data) fig4() ([]SeriesBars, error) { return d.byTimeAndYear("month") }

// RHEdges are Fig 5's humidity bins: <20, 20-30, ..., >70.
var RHEdges = []float64{0, 20, 30, 40, 50, 60, 70, 101}

// RHLabels label Fig 5's bins.
var RHLabels = []string{"<20", "20-30", "30-40", "40-50", "50-60", "60-70", ">70"}

// Fig5 reproduces Fig 5: failure rate vs relative humidity.
func (d *Data) Fig5() ([]BarPoint, error) { return cached(d, "fig5", d.fig5) }

func (d *Data) fig5() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	return binnedBars(f, "rh", "failures", RHEdges, RHLabels)
}

// Fig6 reproduces Fig 6: failure rate per workload.
func (d *Data) Fig6() ([]BarPoint, error) { return cached(d, "fig6", d.fig6) }

func (d *Data) fig6() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	return groupBars(f, "workload", "failures", nil)
}

// Fig7 reproduces Fig 7: failure rate per SKU (the four SKUs the paper
// presents).
func (d *Data) Fig7() ([]BarPoint, error) { return cached(d, "fig7", d.fig7) }

func (d *Data) fig7() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{"S1": true, "S2": true, "S3": true, "S4": true}
	return groupBars(f, "sku", "failures", func(l string) bool { return keep[l] })
}

// Fig8 reproduces Fig 8: failure rate per rack power rating.
func (d *Data) Fig8() ([]BarPoint, error) { return cached(d, "fig8", d.fig8) }

func (d *Data) fig8() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	var bars []BarPoint
	pc, err := f.Col("power_kw")
	if err != nil {
		return nil, err
	}
	vc, err := f.Col("failures")
	if err != nil {
		return nil, err
	}
	groups := map[float64][]float64{}
	for r := 0; r < f.NumRows(); r++ {
		groups[pc.Data[r]] = append(groups[pc.Data[r]], vc.Data[r])
	}
	var ratings []float64
	for p := range groups {
		ratings = append(ratings, p)
	}
	sort.Float64s(ratings)
	for _, p := range ratings {
		s, err := stats.Summarize(groups[p])
		if err != nil {
			return nil, err
		}
		bars = append(bars, BarPoint{Label: fmt.Sprintf("%g", p), Mean: s.Mean, StdDev: s.StdDev, N: s.N})
	}
	return normalizeBars(bars), nil
}

// AgeEdges are Fig 9's equipment-age bins (months).
var AgeEdges = []float64{0, 5, 10, 15, 20, 25, 30, 35, 40, 100}

// AgeLabels label Fig 9's bins.
var AgeLabels = []string{"0-5", "5-10", "10-15", "15-20", "20-25", "25-30", "30-35", "35-40", ">40"}

// Fig9 reproduces Fig 9: failure rate vs equipment age.
func (d *Data) Fig9() ([]BarPoint, error) { return cached(d, "fig9", d.fig9) }

func (d *Data) fig9() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	return binnedBars(f, "age_months", "failures", AgeEdges, AgeLabels)
}

// OverprovCell is one bar of Figs 10 and 12: an approach's
// over-provisioned capacity percentage at one SLA for one workload.
type OverprovCell struct {
	Workload string
	SLA      float64
	Approach string
	Pct      float64
}

// overprovFigure runs Q1-A for both study workloads at a granularity.
func (d *Data) overprovFigure(g metrics.Granularity) ([]OverprovCell, error) {
	var out []OverprovCell
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, wl, g, nil)
		if err != nil {
			return nil, err
		}
		for i, sla := range sl.SLAs {
			for _, a := range []provision.Approach{provision.LB, provision.MF, provision.SF} {
				out = append(out, OverprovCell{
					Workload: wl.String(),
					SLA:      sla,
					Approach: a.String(),
					Pct:      100 * sl.Overprov[a][i],
				})
			}
		}
	}
	return out, nil
}

// Fig10 reproduces Fig 10: over-provisioning by LB/MF/SF at daily
// granularity.
func (d *Data) Fig10() ([]OverprovCell, error) { return cached(d, "fig10", d.fig10) }

func (d *Data) fig10() ([]OverprovCell, error) { return d.overprovFigure(metrics.Daily) }

// Fig12 reproduces Fig 12: the same at hourly granularity.
func (d *Data) Fig12() ([]OverprovCell, error) { return cached(d, "fig12", d.fig12) }

func (d *Data) fig12() ([]OverprovCell, error) { return d.overprovFigure(metrics.Hourly) }

// ClusterCDFs is one workload's Fig 11 panel.
type ClusterCDFs struct {
	Workload string
	Series   []CDFSeries // SF pooled first, then one per cluster
}

// Fig11 reproduces Fig 11: per-cluster over-provision CDFs for W1 and W6.
func (d *Data) Fig11() ([]ClusterCDFs, error) { return cached(d, "fig11", d.fig11) }

func (d *Data) fig11() ([]ClusterCDFs, error) {
	var out []ClusterCDFs
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, wl, metrics.Daily, nil)
		if err != nil {
			return nil, err
		}
		panel := ClusterCDFs{Workload: wl.String()}
		add := func(name string, fractions []float64) error {
			if len(fractions) == 0 {
				return nil
			}
			e, err := stats.NewECDF(fractions)
			if err != nil {
				return err
			}
			xs, ps := e.Points()
			for i := range xs {
				xs[i] *= 100
			}
			panel.Series = append(panel.Series, CDFSeries{Name: name, X: xs, P: ps})
			return nil
		}
		if err := add("SF", sl.PooledFractions); err != nil {
			return nil, err
		}
		for ci, fs := range sl.ClusterFractions {
			if err := add(fmt.Sprintf("Cluster%d", ci+1), fs); err != nil {
				return nil, err
			}
		}
		out = append(out, panel)
	}
	return out, nil
}

// CostCell is one bar of Fig 13: spare-pool cost as % of fleet cost.
type CostCell struct {
	Workload string
	Scheme   string // "component" or "server"
	Approach string
	Pct      float64
}

// Fig13 reproduces Fig 13: component- vs server-level spare cost at
// 100% availability, daily granularity.
func (d *Data) Fig13() ([]CostCell, error) { return cached(d, "fig13", d.fig13) }

func (d *Data) fig13() ([]CostCell, error) {
	var out []CostCell
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		cl, err := provision.AnalyzeComponentLevel(d.Res, d.Mu, wl, metrics.Daily, tco.Default())
		if err != nil {
			return nil, err
		}
		for _, a := range []provision.Approach{provision.LB, provision.MF, provision.SF} {
			out = append(out,
				CostCell{Workload: wl.String(), Scheme: "component", Approach: a.String(), Pct: cl.ComponentCostPct[a]},
				CostCell{Workload: wl.String(), Scheme: "server", Approach: a.String(), Pct: cl.ServerCostPct[a]},
			)
		}
	}
	return out, nil
}

// SKUBar is one bar of Figs 14-15: a SKU's peak or average failure rate,
// normalized to the figure's maximum.
type SKUBar struct {
	SKU        string
	Metric     string // "peak" or "avg"
	Value      float64
	Normalized float64
	StdDev     float64
}

func skuBars(ss []skucmp.Stats) []SKUBar {
	var out []SKUBar
	maxPeak, maxAvg := 0.0, 0.0
	for _, s := range ss {
		if s.Peak > maxPeak {
			maxPeak = s.Peak
		}
		if s.Avg > maxAvg {
			maxAvg = s.Avg
		}
	}
	for _, s := range ss {
		peakN, avgN := 0.0, 0.0
		if maxPeak > 0 {
			peakN = s.Peak / maxPeak
		}
		if maxAvg > 0 {
			avgN = s.Avg / maxAvg
		}
		out = append(out,
			SKUBar{SKU: s.SKU, Metric: "peak", Value: s.Peak, Normalized: peakN, StdDev: s.StdDev},
			SKUBar{SKU: s.SKU, Metric: "avg", Value: s.Avg, Normalized: avgN, StdDev: s.StdDev},
		)
	}
	return out
}

// Fig14 reproduces Fig 14: the SF comparison of S1-S4.
func (d *Data) Fig14() ([]SKUBar, error) { return cached(d, "fig14", d.fig14) }

func (d *Data) fig14() ([]SKUBar, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	ss, err := skucmp.AnalyzeSF(f, []topology.SKU{topology.S1, topology.S2, topology.S3, topology.S4})
	if err != nil {
		return nil, err
	}
	return skuBars(ss), nil
}

// Fig15 reproduces Fig 15: the MF comparison of the two compute SKUs.
func (d *Data) Fig15() ([]SKUBar, error) { return cached(d, "fig15", d.fig15) }

func (d *Data) fig15() ([]SKUBar, error) {
	ss, err := d.PairMF()
	if err != nil {
		return nil, err
	}
	return skuBars(ss), nil
}

// Fig16 reproduces Fig 16: all-failure rate vs temperature bins.
func (d *Data) Fig16() ([]BarPoint, error) { return cached(d, "fig16", d.fig16) }

func (d *Data) fig16() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	sums, err := envan.BinnedRates(f, "failures")
	if err != nil {
		return nil, err
	}
	bars := make([]BarPoint, len(sums))
	for i, s := range sums {
		bars[i] = BarPoint{Label: envan.TempBinLabels[i], Mean: s.Mean, StdDev: s.StdDev, N: s.N}
	}
	return normalizeBars(bars), nil
}

// Fig17 reproduces Fig 17: hard-disk failure rate vs temperature bins.
func (d *Data) Fig17() ([]BarPoint, error) { return cached(d, "fig17", d.fig17) }

func (d *Data) fig17() ([]BarPoint, error) {
	f, err := d.RackDays()
	if err != nil {
		return nil, err
	}
	sums, err := envan.BinnedRates(f, "disk_failures")
	if err != nil {
		return nil, err
	}
	bars := make([]BarPoint, len(sums))
	for i, s := range sums {
		bars[i] = BarPoint{Label: envan.TempBinLabels[i], Mean: s.Mean, StdDev: s.StdDev, N: s.N}
	}
	return normalizeBars(bars), nil
}

// EnvGroup is one bar of Fig 18: a DC's disk failure rate in one
// environmental regime, normalized to the hot+dry subgroup mean (the
// paper's normalization).
type EnvGroup struct {
	DC         string
	Group      string
	Mean       float64
	StdDev     float64
	Normalized float64
	N          int
}

// Fig18Result carries the Fig 18 groups plus the thresholds the MF tree
// discovered.
type Fig18Result struct {
	TempThresholdF float64
	RHThreshold    float64
	Groups         []EnvGroup
	Tree           *cart.Tree
}

// Fig18 reproduces Fig 18: HDD failures vs temperature and RH regimes as
// identified by the MF approach. It is Fig18Context with
// context.Background(); use that variant to make the fit cancellable.
func (d *Data) Fig18() (*Fig18Result, error) { return d.Fig18Context(context.Background()) }

// Fig18Context is Fig18 under a context. The fit is the study's Climate
// entry, the one Q3 reads; the figure only regroups its regimes.
func (d *Data) Fig18Context(ctx context.Context) (*Fig18Result, error) {
	res, err := d.Climate(ctx)
	if err != nil {
		return nil, err
	}
	out := &Fig18Result{
		TempThresholdF: res.Thresholds.TempF,
		RHThreshold:    res.Thresholds.RH,
		Tree:           res.Tree,
	}
	// Normalization reference: DC1's hot+dry subgroup mean.
	ref := 0.0
	for _, g := range res.Groups {
		if g.DC == "DC1" && g.HotDry.N > 0 {
			ref = g.HotDry.Mean
		}
	}
	tLbl := fmt.Sprintf("%.1f", out.TempThresholdF)
	rLbl := fmt.Sprintf("%.1f", out.RHThreshold)
	for _, g := range res.Groups {
		cells := []struct {
			name string
			s    stats.Summary
		}{
			{"T<=" + tLbl + "F", g.Cool},
			{"T>" + tLbl + "F", g.Hot},
			{"T>" + tLbl + "+RH<=" + rLbl, g.HotDry},
			{"All", g.All},
		}
		for _, c := range cells {
			norm := 0.0
			if ref > 0 {
				norm = c.s.Mean / ref
			}
			out.Groups = append(out.Groups, EnvGroup{
				DC: g.DC, Group: c.name,
				Mean: c.s.Mean, StdDev: c.s.StdDev, Normalized: norm, N: c.s.N,
			})
		}
	}
	return out, nil
}
