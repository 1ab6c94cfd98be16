package main

import (
	"fmt"
	"io"

	"rainshine"
	"rainshine/internal/export"
	"rainshine/internal/failure"
	"rainshine/internal/figures"
	"rainshine/internal/ingest"
	"rainshine/internal/metrics"
	"rainshine/internal/textplot"
	"rainshine/internal/ticket"
)

// renderer formats study outputs for the terminal.
type renderer struct {
	study *rainshine.Study
	out   io.Writer
}

func (r *renderer) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r *renderer) summary() error {
	s := r.study
	r.printf("Fleet: %d racks, %d servers over %d days\n", s.NumRacks(), s.NumServers(), s.Days())
	counts := map[ticket.Category]int{}
	total := 0
	for _, tk := range s.Tickets() {
		if tk.FalsePositive {
			continue
		}
		counts[tk.Category()]++
		total++
	}
	r.printf("Tickets (true positives): %d\n", total)
	for c := ticket.Software; c < ticket.NumCategories; c++ {
		r.printf("  %-9s %6d (%.1f%%)\n", c, counts[c], 100*float64(counts[c])/float64(total))
	}
	rs := ticket.RepeatStats(s.Tickets())
	r.printf("Repeat tickets: %.1f%% of hardware RMAs re-open for the same device (worst device: %d failures)\n",
		100*rs.RepeatFraction, rs.MaxRepeat)
	r.printf("MTTR by component:\n")
	mttr := metrics.MTTR(s.Figures().Res)
	for _, c := range []failure.Component{failure.Disk, failure.DIMM, failure.ServerOther} {
		if sum, ok := mttr[c]; ok {
			r.printf("  %-7s median %.1fh, p95 %.1fh (n=%d)\n", c, sum.P50, sum.P95, sum.N)
		}
	}
	sums, err := s.EnvironmentAlarms()
	if err != nil {
		return err
	}
	r.printf("BMS environment alarms (rack-days outside the ASHRAE envelope):\n")
	for _, sum := range sums {
		totalAlarms := sum.TempHigh + sum.TempLow + sum.RHHigh + sum.RHLow
		r.printf("  %s: %d alarms over %d rack-days (hot %d, cold %d, humid %d, dry %d)\n",
			sum.DC, totalAlarms, sum.RackDays, sum.TempHigh, sum.TempLow, sum.RHHigh, sum.RHLow)
	}
	return nil
}

func (r *renderer) table(which string) error {
	d := r.study.Figures()
	switch which {
	case "1":
		rows := [][]string{}
		for _, p := range d.TableI() {
			rows = append(rows, []string{p.Facility, p.Packaging, p.Availability, p.Cooling})
		}
		r.printf("%s", textplot.Table([]string{"Facility", "Packaging", "Design Availability", "Cooling"}, rows))
	case "2":
		rows := [][]string{}
		for _, m := range d.TableII() {
			rows = append(rows, []string{
				m.Category, m.Fault,
				fmt.Sprintf("%.2f", m.DC1Pct), fmt.Sprintf("%.2f", m.PaperDC1),
				fmt.Sprintf("%.2f", m.DC2Pct), fmt.Sprintf("%.2f", m.PaperDC2),
			})
		}
		r.printf("%s", textplot.Table([]string{"Category", "Failure Type", "DC1%", "paper", "DC2%", "paper"}, rows))
	case "3":
		rows := [][]string{}
		for _, f := range d.TableIII() {
			rows = append(rows, []string{f.Category, f.Name, f.Type, f.Range})
		}
		r.printf("%s", textplot.Table([]string{"Category", "Feature", "Type", "Range"}, rows))
	case "4":
		rows, err := d.TableIV()
		if err != nil {
			return err
		}
		out := [][]string{}
		for _, c := range rows {
			out = append(out, []string{
				fmt.Sprintf("%.0f%%", 100*c.SLA), c.Granularity, c.Workload,
				fmt.Sprintf("%.2f%%", c.SavingsPct), fmt.Sprintf("%.2f%%", c.PaperPct),
			})
		}
		r.printf("%s", textplot.Table([]string{"SLA", "Granularity", "Workload", "MF-over-SF savings", "paper"}, out))
	default:
		return fmt.Errorf("unknown table %q (want 1-4)", which)
	}
	return nil
}

func barsOf(points []figures.BarPoint) []textplot.Bar {
	out := make([]textplot.Bar, len(points))
	for i, p := range points {
		out[i] = textplot.Bar{Label: p.Label, Value: p.Mean, Err: p.StdDev}
	}
	return out
}

func seriesOf(cs []figures.CDFSeries) []textplot.Series {
	out := make([]textplot.Series, len(cs))
	for i, c := range cs {
		out[i] = textplot.Series{Name: c.Name, X: c.X, P: c.P}
	}
	return out
}

func (r *renderer) figure(n int) error {
	d := r.study.Figures()
	simpleBars := func(title string, get func() ([]figures.BarPoint, error)) error {
		pts, err := get()
		if err != nil {
			return err
		}
		r.printf("%s", textplot.BarChart(title, barsOf(pts), 40))
		return nil
	}
	switch n {
	case 1:
		series, err := d.Fig1()
		if err != nil {
			return err
		}
		r.printf("%s", textplot.CDF("Fig 1: CDF of spare requirement (% failed servers), W1", seriesOf(series), 60, 12))
	case 2:
		return simpleBars("Fig 2: avg failure rate by DC region", d.Fig2)
	case 3, 4:
		var series []figures.SeriesBars
		var err error
		title := "Fig 3: avg failure rate by day of week"
		if n == 3 {
			series, err = d.Fig3()
		} else {
			series, err = d.Fig4()
			title = "Fig 4: avg failure rate by month"
		}
		if err != nil {
			return err
		}
		for _, s := range series {
			r.printf("%s", textplot.BarChart(fmt.Sprintf("%s (%s)", title, s.Series), barsOf(s.Bars), 40))
		}
	case 5:
		return simpleBars("Fig 5: avg failure rate by relative humidity (%)", d.Fig5)
	case 6:
		return simpleBars("Fig 6: avg failure rate by workload", d.Fig6)
	case 7:
		return simpleBars("Fig 7: avg failure rate by SKU", d.Fig7)
	case 8:
		return simpleBars("Fig 8: avg failure rate by rack power rating (kW)", d.Fig8)
	case 9:
		return simpleBars("Fig 9: avg failure rate by equipment age (months)", d.Fig9)
	case 10, 12:
		fig, title := d.Fig10, "Fig 10: over-provisioned capacity %, daily granularity"
		if n == 12 {
			fig, title = d.Fig12, "Fig 12: over-provisioned capacity %, hourly granularity"
		}
		cells, err := fig()
		if err != nil {
			return err
		}
		rows := [][]string{}
		for _, c := range cells {
			rows = append(rows, []string{c.Workload, fmt.Sprintf("%.0f%%", 100*c.SLA), c.Approach, fmt.Sprintf("%.1f", c.Pct)})
		}
		r.printf("%s\n%s", title, textplot.Table([]string{"Workload", "SLA", "Approach", "Overprov %"}, rows))
	case 11:
		panels, err := d.Fig11()
		if err != nil {
			return err
		}
		for _, p := range panels {
			r.printf("%s", textplot.CDF(
				fmt.Sprintf("Fig 11 (%s): over-provision %% CDFs, SF vs MF clusters", p.Workload),
				seriesOf(p.Series), 60, 12))
		}
	case 13:
		cells, err := d.Fig13()
		if err != nil {
			return err
		}
		rows := [][]string{}
		for _, c := range cells {
			rows = append(rows, []string{c.Workload, c.Scheme, c.Approach, fmt.Sprintf("%.2f", c.Pct)})
		}
		r.printf("Fig 13: spare cost %% of fleet cost, 100%% SLA daily\n%s",
			textplot.Table([]string{"Workload", "Scheme", "Approach", "Cost %"}, rows))
	case 14, 15:
		fig, title := d.Fig14, "Fig 14: SKU comparison, SF view (normalized)"
		if n == 15 {
			fig, title = d.Fig15, "Fig 15: SKU comparison, MF view (normalized)"
		}
		bars, err := fig()
		if err != nil {
			return err
		}
		tb := make([]textplot.Bar, len(bars))
		for i, b := range bars {
			tb[i] = textplot.Bar{Label: b.SKU + "/" + b.Metric, Value: b.Normalized, Err: 0}
		}
		r.printf("%s", textplot.BarChart(title, tb, 40))
	case 16:
		return simpleBars("Fig 16: all failures vs temperature (F)", d.Fig16)
	case 17:
		return simpleBars("Fig 17: hard-disk failures vs temperature (F)", d.Fig17)
	case 18:
		res, err := d.Fig18()
		if err != nil {
			return err
		}
		r.printf("Fig 18: HDD failures vs T/RH regimes (MF thresholds: T=%.1fF, RH=%.1f%%)\n",
			res.TempThresholdF, res.RHThreshold)
		rows := [][]string{}
		for _, g := range res.Groups {
			rows = append(rows, []string{g.DC, g.Group, fmt.Sprintf("%.2f", g.Normalized), fmt.Sprintf("%d", g.N)})
		}
		r.printf("%s", textplot.Table([]string{"DC", "Regime", "Normalized rate", "N"}, rows))
	default:
		return fmt.Errorf("unknown figure %d (want 1-18)", n)
	}
	return nil
}

func (r *renderer) q1(wl rainshine.Workload, hourly bool) error {
	rep, err := r.study.SpareProvisioning(wl, hourly)
	if err != nil {
		return err
	}
	r.printf("Q1: spare provisioning for %s (%s granularity)\n", rep.Workload, rep.Granularity)
	rows := [][]string{}
	for i, sla := range rep.SLAs {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", 100*sla),
			fmt.Sprintf("%.1f", rep.OverprovPct["LB"][i]),
			fmt.Sprintf("%.1f", rep.OverprovPct["MF"][i]),
			fmt.Sprintf("%.1f", rep.OverprovPct["SF"][i]),
			fmt.Sprintf("%.2f%%", rep.TCOSavingsPct[i]),
		})
	}
	r.printf("%s", textplot.Table([]string{"SLA", "LB %", "MF %", "SF %", "TCO savings MF/SF"}, rows))
	r.printf("Factor ranking: %v\n", rep.FactorRanking)
	r.printf("MF clusters (%d):\n", len(rep.Clusters))
	for i, c := range rep.Clusters {
		r.printf("  #%d: %d racks, req %.1f%%  [%s]\n", i+1, c.Racks, c.ReqPct, c.Conditions)
	}
	r.printf("\n")
	return nil
}

func (r *renderer) q2() error {
	rep, err := r.study.VendorComparison()
	if err != nil {
		return err
	}
	r.printf("Q2: vendor comparison (S2 vs S4)\n")
	r.printf("  S2:S4 average failure-rate ratio:  SF %.1fx   MF %.1fx (paper: 10x vs 4x)\n",
		rep.RatioSF, rep.RatioMF)
	r.printf("  adjusted contrast significance: p = %.2g over %d shared strata\n",
		rep.PValue, rep.Strata)
	for _, v := range rep.Verdicts {
		r.printf("  S4 at %.1fx price: SF estimates %+.1f%% TCO savings, MF %+.1f%%\n",
			v.PriceRatio, 100*v.SavingsSF, 100*v.SavingsMF)
	}
	return nil
}

func (r *renderer) q3() error {
	rep, err := r.study.ClimateGuidance()
	if err != nil {
		return err
	}
	r.printf("Q3: environmental set-point guidance\n")
	r.printf("  MF-discovered thresholds: temperature %.1f F, RH %.1f %% (paper: 78 F, 25 %%)\n",
		rep.TempThresholdF, rep.RHThreshold)
	for _, dc := range []string{"DC1", "DC2"} {
		hot, ok := rep.HotPenalty[dc]
		if !ok {
			r.printf("  %s: effectively insensitive (negligible exposure above the threshold)\n", dc)
			continue
		}
		if dry, ok := rep.DryPenalty[dc]; ok {
			r.printf("  %s: disk failure rate x%.2f above threshold; x%.2f more when also dry\n", dc, hot, dry)
		} else {
			r.printf("  %s: disk failure rate x%.2f above threshold\n", dc, hot)
		}
	}
	return nil
}

// quality renders the DataQuality report: ticket and sensor coverage
// plus per-defect-class quarantine/repair counts.
func (r *renderer) quality() error {
	q, err := r.study.Quality()
	if err != nil {
		return err
	}
	r.printf("Data quality\n")
	r.printf("  tickets: %d recorded, %d kept (%.2f%% coverage)\n",
		q.TicketsIn, q.TicketsKept, 100*q.TicketCoverage())
	r.printf("  sensors: %d rack-day samples: %d native, %d imputed, %d missing (%.2f%% usable)\n",
		q.SensorSamples, q.SensorNative, q.SensorImputed, q.SensorMissing, 100*q.SensorCoverage())
	if q.Clean() {
		r.printf("  no defects detected\n")
		return nil
	}
	r.printf("  defects by class (quarantined / repaired):\n")
	for c := ingest.Class(0); c < ingest.NumClasses; c++ {
		if q.Quarantined[c] == 0 && q.Repaired[c] == 0 {
			continue
		}
		r.printf("    %-22s %6d / %6d\n", c.String(), q.Quarantined[c], q.Repaired[c])
	}
	r.printf("  effective coverage: %.2f%%\n", 100*q.Coverage())
	return nil
}

func (r *renderer) predict() error {
	rep, err := r.study.FailurePrediction()
	if err != nil {
		return err
	}
	r.printf("Failure prediction (paper future work): will a rack fail tomorrow?\n")
	r.printf("  time-ordered split: %d train / %d test rack-days (%.1f%% positive)\n",
		rep.TrainRows, rep.TestRows, 100*rep.PositiveRate)
	r.printf("  precision %.3f  recall %.3f  F1 %.3f  accuracy %.3f  AUC %.3f\n",
		rep.Precision, rep.Recall, rep.F1, rep.Accuracy, rep.AUC)
	r.printf("  predictive factors: %v\n", rep.TopFactors)
	return nil
}

func (r *renderer) export(what string) error {
	d := r.study.Figures()
	switch what {
	case "tickets":
		return export.TicketsCSV(r.out, r.study.Tickets())
	case "events":
		return export.EventsJSONL(r.out, d.Res.Events)
	case "rackdays":
		// Via the facade so dirty-data mode exports its lossy table.
		return r.study.ExportRackDaysCSV(r.out)
	default:
		return fmt.Errorf("unknown export target %q (want tickets|events|rackdays)", what)
	}
}

func (r *renderer) ablate() error {
	d := r.study.Figures()
	feat, err := d.AblationFeatures()
	if err != nil {
		return err
	}
	caps, err := d.AblationClusterBudget()
	if err != nil {
		return err
	}
	autocp, err := d.AblationAutoCP()
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, a := range append(append(feat, caps...), autocp...) {
		rows = append(rows, []string{
			a.Workload, a.Config, fmt.Sprintf("%d", a.Clusters),
			fmt.Sprintf("%.1f", a.OverprovPct), fmt.Sprintf("%.0f%%", a.GapClosedPct),
		})
	}
	r.printf("MF ablations (100%% SLA, daily): how much of the SF-to-oracle gap each choice closes\n%s",
		textplot.Table([]string{"Workload", "Config", "Clusters", "Overprov %", "Gap closed"}, rows))

	sweep, err := d.GranularitySweep()
	if err != nil {
		return err
	}
	srows := [][]string{}
	for _, s := range sweep {
		srows = append(srows, []string{
			s.Workload, s.Granularity,
			fmt.Sprintf("%.1f", s.LBPct), fmt.Sprintf("%.1f", s.MFPct), fmt.Sprintf("%.1f", s.SFPct),
		})
	}
	r.printf("\nSpare-pool granularity sweep (100%% SLA): finer windows recycle spares sooner\n%s",
		textplot.Table([]string{"Workload", "Granularity", "LB %", "MF %", "SF %"}, srows))
	return nil
}

func (r *renderer) pooling(hourly bool) error {
	reqs, err := r.study.PoolingAnalysis(hourly)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range reqs {
		rows = append(rows, []string{
			p.Scope.String(), fmt.Sprintf("%d", p.Pools),
			fmt.Sprintf("%d", p.Spares), fmt.Sprintf("%.1f", p.Pct),
		})
	}
	r.printf("Spare pooling (100%% availability): sharing multiplexes failures onto fewer spares,\n")
	r.printf("but the paper notes off-rack fail-over pays network penalties — pick your point.\n%s",
		textplot.Table([]string{"Pool scope", "Pools", "Total spares", "% of fleet"}, rows))
	return nil
}

func (r *renderer) opex() error {
	recs, err := r.study.RepairPolicy()
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, rec := range recs {
		if rec.Replace.Events == 0 {
			continue
		}
		rows = append(rows, []string{
			rec.Component.String(), rec.Better.String(),
			fmt.Sprintf("%.0f%%", rec.SavingsPct),
			fmt.Sprintf("%.0f", rec.Replace.TotalCost),
			fmt.Sprintf("%.0f", rec.Service.TotalCost),
		})
	}
	r.printf("Repair policy (replace vs service), costs in TCO units over the window\n%s",
		textplot.Table([]string{"Component", "Cheaper policy", "Saves", "Replace cost", "Service cost"}, rows))
	return nil
}

func (r *renderer) tree() error {
	rep, err := r.study.ClimateGuidance()
	if err != nil {
		return err
	}
	r.printf("%s", rep.Tree.String())
	r.printf("Importance: %v\n", rep.Tree.RankedFeatures())
	return nil
}

func (r *renderer) all(hourly bool) error {
	if err := r.summary(); err != nil {
		return err
	}
	for _, tbl := range []string{"1", "2", "3", "4"} {
		r.printf("\n== Table %s ==\n", tbl)
		if err := r.table(tbl); err != nil {
			return err
		}
	}
	for n := 1; n <= 18; n++ {
		r.printf("\n== Figure %d ==\n", n)
		if err := r.figure(n); err != nil {
			return err
		}
	}
	r.printf("\n== Decision analyses ==\n")
	for _, wl := range []rainshine.Workload{rainshine.W1, rainshine.W6} {
		if err := r.q1(wl, hourly); err != nil {
			return err
		}
	}
	if err := r.q2(); err != nil {
		return err
	}
	return r.q3()
}
