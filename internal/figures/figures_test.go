package figures

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

var cachedData *Data

// testData simulates a mid-size fleet once for all figure tests.
func testData(t *testing.T) *Data {
	t.Helper()
	if cachedData != nil {
		return cachedData
	}
	d, err := NewDataContext(context.Background(), simulate.Config{
		Seed:     rngSeedForTests,
		Days:     540,
		Topology: topology.Config{RacksPerDC: [2]int{160, 140}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedData = d
	return d
}

const rngSeedForTests = 42

func barMap(bars []BarPoint) map[string]BarPoint {
	m := map[string]BarPoint{}
	for _, b := range bars {
		m[b.Label] = b
	}
	return m
}

func TestTableI(t *testing.T) {
	d := testData(t)
	rows := d.TableI()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Cooling != "Adiabatic" || rows[1].Cooling != "Chilled water" {
		t.Errorf("cooling = %+v", rows)
	}
	if rows[0].Availability != "3 nines" || rows[1].Availability != "5 nines" {
		t.Errorf("availability = %+v", rows)
	}
}

func TestTableII(t *testing.T) {
	d := testData(t)
	rows := d.TableII()
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 fault types", len(rows))
	}
	var dc1Total float64
	for _, r := range rows {
		dc1Total += r.DC1Pct
		// Generated mix within 8 points of the paper for each type.
		if math.Abs(r.DC1Pct-r.PaperDC1) > 8 {
			t.Errorf("%s DC1 = %.1f%%, paper %.1f%%", r.Fault, r.DC1Pct, r.PaperDC1)
		}
		if math.Abs(r.DC2Pct-r.PaperDC2) > 8 {
			t.Errorf("%s DC2 = %.1f%%, paper %.1f%%", r.Fault, r.DC2Pct, r.PaperDC2)
		}
	}
	if math.Abs(dc1Total-100) > 0.5 {
		t.Errorf("DC1 percentages sum to %v", dc1Total)
	}
}

func TestTableIII(t *testing.T) {
	d := testData(t)
	rows := d.TableIII()
	if len(rows) < 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Type != "C" && r.Type != "N" && r.Type != "O" {
			t.Errorf("row %q type %q", r.Name, r.Type)
		}
	}
}

func TestTableIV(t *testing.T) {
	d := testData(t)
	rows, err := d.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.SavingsPct < -1 || r.SavingsPct > 60 {
			t.Errorf("%s/%s SLA %v: savings %.1f%% implausible", r.Granularity, r.Workload, r.SLA, r.SavingsPct)
		}
	}
	// Headline: savings at 100% SLA are the largest per series and
	// material (paper: 14.6-36.4%).
	bySeries := map[string][]TCOSaving{}
	for _, r := range rows {
		k := r.Granularity + "-" + r.Workload
		bySeries[k] = append(bySeries[k], r)
	}
	for k, series := range bySeries {
		last := series[len(series)-1]
		if last.SLA != 1.0 {
			t.Fatalf("%s: series not SLA-ordered", k)
		}
		if last.SavingsPct < 3 {
			t.Errorf("%s: savings at 100%% SLA only %.1f%%", k, last.SavingsPct)
		}
	}
}

func TestFig1(t *testing.T) {
	d := testData(t)
	series, err := d.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 3 {
		t.Fatalf("series = %d, want pooled + 2 groups", len(series))
	}
	for _, s := range series {
		for i := 1; i < len(s.P); i++ {
			if s.P[i] < s.P[i-1] || s.X[i] < s.X[i-1] {
				t.Fatalf("series %s not monotone", s.Name)
			}
		}
	}
}

func TestFig2RegionStructure(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 7 {
		t.Fatalf("regions = %d, want 7", len(bars))
	}
	m := barMap(bars)
	// DC1 regions on average above DC2 regions; DC1-1 the hottest.
	dc1avg := (m["DC1-1"].Mean + m["DC1-2"].Mean + m["DC1-3"].Mean + m["DC1-4"].Mean) / 4
	dc2avg := (m["DC2-1"].Mean + m["DC2-2"].Mean + m["DC2-3"].Mean) / 3
	if dc1avg <= dc2avg {
		t.Errorf("DC1 avg %v should exceed DC2 avg %v", dc1avg, dc2avg)
	}
	if m["DC1-1"].Normalized != 1 {
		t.Errorf("DC1-1 should be the max region, got %+v", bars)
	}
}

func TestFig3WeekdayEffect(t *testing.T) {
	d := testData(t)
	series, err := d.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("years = %d", len(series))
	}
	for _, s := range series {
		m := barMap(s.Bars)
		weekday := (m["Tue"].Mean + m["Wed"].Mean) / 2
		weekend := (m["Sun"].Mean + m["Sat"].Mean) / 2
		if weekday <= weekend {
			t.Errorf("year %s: weekday %v not above weekend %v", s.Series, weekday, weekend)
		}
	}
}

func TestFig4SeasonalEffect(t *testing.T) {
	d := testData(t)
	series, err := d.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	m := barMap(series[0].Bars) // 2012 covers all 12 months
	if len(series[0].Bars) != 12 {
		t.Fatalf("months = %d", len(series[0].Bars))
	}
	h1 := (m["Jan"].Mean + m["Feb"].Mean + m["Mar"].Mean) / 3
	h2 := (m["Aug"].Mean + m["Sep"].Mean + m["Oct"].Mean) / 3
	if h2 <= h1 {
		t.Errorf("second half (%v) should exceed first half (%v)", h2, h1)
	}
}

func TestFig5LowHumidityElevated(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	m := barMap(bars)
	dry := m["<20"]
	mid := m["40-50"]
	if dry.N < 100 || mid.N < 100 {
		t.Skip("humidity bins underpopulated in reduced fleet")
	}
	if dry.Mean <= mid.Mean {
		t.Errorf("dry bin (%v) should exceed mid bin (%v)", dry.Mean, mid.Mean)
	}
}

func TestFig6WorkloadOrdering(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	m := barMap(bars)
	if m["W2"].Normalized != 1 {
		t.Errorf("W2 should be the max workload: %+v", bars)
	}
	if m["W3"].Mean >= m["W2"].Mean/2 {
		t.Errorf("W3 (HPC, %v) should be far below W2 (%v)", m["W3"].Mean, m["W2"].Mean)
	}
	// Storage-data below compute.
	if (m["W5"].Mean+m["W6"].Mean)/2 >= (m["W1"].Mean+m["W2"].Mean)/2 {
		t.Error("storage workloads should fail less than compute")
	}
}

func TestFig7SKUs(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 4 {
		t.Fatalf("bars = %d", len(bars))
	}
	m := barMap(bars)
	if m["S2"].Mean <= m["S4"].Mean {
		t.Error("S2 should show the highest rate in the SF view")
	}
}

func TestFig8PowerEffect(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) < 5 {
		t.Fatalf("power levels = %d", len(bars))
	}
	m := barMap(bars)
	if m["13"].Mean <= m["6"].Mean {
		t.Errorf("high-power racks (%v) should fail more than low-power (%v)", m["13"].Mean, m["6"].Mean)
	}
}

func TestFig9InfantMortality(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	m := barMap(bars)
	if m["0-5"].Mean <= m["20-25"].Mean {
		t.Errorf("new equipment (%v) should fail more than mid-life (%v)", m["0-5"].Mean, m["20-25"].Mean)
	}
}

func TestFig10MFBetweenLBAndSF(t *testing.T) {
	d := testData(t)
	cells, err := d.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*3*3 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(wl string, sla float64, a string) float64 {
		for _, c := range cells {
			if c.Workload == wl && c.SLA == sla && c.Approach == a {
				return c.Pct
			}
		}
		t.Fatalf("missing cell %s/%v/%s", wl, sla, a)
		return 0
	}
	for _, wl := range []string{"W1", "W6"} {
		lb, mf, sf := get(wl, 1.0, "LB"), get(wl, 1.0, "MF"), get(wl, 1.0, "SF")
		if !(lb <= mf && mf <= sf) {
			t.Errorf("%s: LB %.1f MF %.1f SF %.1f not sandwiched", wl, lb, mf, sf)
		}
		// Headline: MF less than roughly half of SF at 100% SLA.
		if sf > 0 && mf > 0.7*sf {
			t.Errorf("%s: MF %.1f%% not clearly below SF %.1f%%", wl, mf, sf)
		}
	}
}

func TestFig11ClusterSpread(t *testing.T) {
	d := testData(t)
	panels, err := d.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		if len(p.Series) < 3 {
			t.Errorf("%s: only %d series (need SF + >=2 clusters)", p.Workload, len(p.Series))
		}
	}
}

func TestFig12HourlyMFBelowDaily(t *testing.T) {
	d := testData(t)
	daily, err := d.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	hourly, err := d.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	get := func(cells []OverprovCell, wl string, a string) float64 {
		for _, c := range cells {
			if c.Workload == wl && c.SLA == 1.0 && c.Approach == a {
				return c.Pct
			}
		}
		return -1
	}
	for _, wl := range []string{"W1", "W6"} {
		dm, hm := get(daily, wl, "MF"), get(hourly, wl, "MF")
		if hm > dm+1e-9 {
			t.Errorf("%s: hourly MF %.1f%% above daily %.1f%%", wl, hm, dm)
		}
	}
}

func TestFig13ComponentBeatsServerUnderMF(t *testing.T) {
	d := testData(t)
	cells, err := d.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	get := func(wl, scheme, a string) float64 {
		for _, c := range cells {
			if c.Workload == wl && c.Scheme == scheme && c.Approach == a {
				return c.Pct
			}
		}
		t.Fatalf("missing %s/%s/%s", wl, scheme, a)
		return 0
	}
	for _, wl := range []string{"W1", "W6"} {
		if comp, srv := get(wl, "component", "MF"), get(wl, "server", "MF"); comp >= srv {
			t.Errorf("%s: MF component cost %.2f%% should beat server %.2f%%", wl, comp, srv)
		}
	}
}

func TestFig14SFView(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 8 {
		t.Fatalf("bars = %d (4 SKUs x 2 metrics)", len(bars))
	}
	get := func(sku, metric string) SKUBar {
		for _, b := range bars {
			if b.SKU == sku && b.Metric == metric {
				return b
			}
		}
		t.Fatalf("missing %s/%s", sku, metric)
		return SKUBar{}
	}
	// Paper: S2 has by far the highest average rate.
	if get("S2", "avg").Normalized != 1 {
		t.Error("S2 should have the top SF average rate")
	}
	ratio := get("S2", "avg").Value / get("S4", "avg").Value
	if ratio < 5 {
		t.Errorf("SF S2/S4 avg ratio = %.1f, want confound-inflated (>5, paper 10)", ratio)
	}
}

func TestFig15MFView(t *testing.T) {
	d := testData(t)
	sf, err := d.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := d.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	avg := func(bars []SKUBar, sku string) float64 {
		for _, b := range bars {
			if b.SKU == sku && b.Metric == "avg" {
				return b.Value
			}
		}
		t.Fatalf("missing %s", sku)
		return 0
	}
	sfRatio := avg(sf, "S2") / avg(sf, "S4")
	mfRatio := avg(mf, "S2") / avg(mf, "S4")
	if mfRatio >= sfRatio*0.8 {
		t.Errorf("MF ratio %.1f not clearly below SF ratio %.1f", mfRatio, sfRatio)
	}
	if mfRatio < 1.5 {
		t.Errorf("MF ratio %.1f lost the true effect (want >1.5)", mfRatio)
	}
}

func TestFig16FlatMeansHighVariance(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 5 {
		t.Fatalf("bins = %d", len(bars))
	}
	// The paper's point: within-bin variation dwarfs between-bin means.
	for _, b := range bars {
		if b.N > 500 && b.StdDev < b.Mean {
			t.Errorf("bin %s: sd %v below mean %v; expected high within-bin variance", b.Label, b.StdDev, b.Mean)
		}
	}
}

func TestFig17DiskTrend(t *testing.T) {
	d := testData(t)
	bars, err := d.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	// Hottest populated bin above coolest populated bin.
	var first, last BarPoint
	for _, b := range bars {
		if b.N > 200 {
			if first.N == 0 {
				first = b
			}
			last = b
		}
	}
	if last.Mean <= first.Mean {
		t.Errorf("disk rate should rise with temperature: %v -> %v", first.Mean, last.Mean)
	}
}

func TestFig18Thresholds(t *testing.T) {
	d := testData(t)
	res, err := d.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.TempThresholdF) || res.TempThresholdF < 72 || res.TempThresholdF > 84 {
		t.Errorf("temp threshold = %v, want near 78", res.TempThresholdF)
	}
	get := func(dc, group string) EnvGroup {
		for _, g := range res.Groups {
			if g.DC == dc && g.Group == group {
				return g
			}
		}
		t.Fatalf("missing group %s/%s", dc, group)
		return EnvGroup{}
	}
	tLbl := "T>" + trimFloat(res.TempThresholdF) + "F"
	cool := get("DC1", "T<="+trimFloat(res.TempThresholdF)+"F")
	hot := get("DC1", tLbl)
	if hot.N < 100 || cool.N < 100 {
		t.Fatal("DC1 groups underpopulated")
	}
	ratio := hot.Mean / cool.Mean
	if ratio < 1.2 {
		t.Errorf("DC1 hot/cool = %.2f, want >= 1.2 (paper ~1.5)", ratio)
	}
}

func trimFloat(v float64) string { return fmt.Sprintf("%.1f", v) }
