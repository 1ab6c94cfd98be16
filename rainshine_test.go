package rainshine

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"rainshine/internal/cart"
)

var cachedStudy *Study

// testStudy builds one reduced-fleet study shared by the facade tests.
func testStudy(t *testing.T) *Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	s, err := NewStudy(WithSeed(42), WithDays(540), WithRacks(160, 140))
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = s
	return s
}

func TestNewStudyBasics(t *testing.T) {
	s := testStudy(t)
	if s.NumRacks() != 300 {
		t.Errorf("racks = %d", s.NumRacks())
	}
	if s.NumServers() < 5000 {
		t.Errorf("servers = %d", s.NumServers())
	}
	if s.Days() != 540 {
		t.Errorf("days = %d", s.Days())
	}
	if len(s.Tickets()) == 0 {
		t.Error("no tickets")
	}
	if s.Figures() == nil {
		t.Error("Figures() nil")
	}
}

func TestWithoutSoftwareTickets(t *testing.T) {
	s, err := NewStudy(WithSeed(1), WithDays(60), WithRacks(20, 20), WithoutSoftwareTickets())
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range s.Tickets() {
		if !tk.FalsePositive && tk.Category().String() != "Hardware" {
			t.Fatal("software ticket produced despite option")
		}
	}
}

func TestSpareProvisioningReport(t *testing.T) {
	s := testStudy(t)
	rep, err := s.SpareProvisioning(W6, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "W6" || rep.Granularity != "daily" {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.SLAs) != 3 || len(rep.TCOSavingsPct) != 3 {
		t.Fatalf("SLAs/savings = %d/%d", len(rep.SLAs), len(rep.TCOSavingsPct))
	}
	for _, a := range []string{"LB", "MF", "SF"} {
		if len(rep.OverprovPct[a]) != 3 {
			t.Fatalf("missing approach %s", a)
		}
	}
	last := len(rep.SLAs) - 1
	if rep.OverprovPct["MF"][last] > rep.OverprovPct["SF"][last] {
		t.Error("MF should not exceed SF")
	}
	if len(rep.Clusters) < 2 {
		t.Errorf("clusters = %d", len(rep.Clusters))
	}
	for _, c := range rep.Clusters {
		if c.Racks == 0 || c.Conditions == "" {
			t.Errorf("bad cluster: %+v", c)
		}
	}
	if len(rep.FactorRanking) == 0 {
		t.Error("no factor ranking")
	}
	// Hourly variant also runs.
	if _, err := s.SpareProvisioning(W1, true); err != nil {
		t.Fatal(err)
	}
}

func TestVendorComparisonReport(t *testing.T) {
	s := testStudy(t)
	rep, err := s.VendorComparison() // default 1.0, 1.5
	if err != nil {
		t.Fatal(err)
	}
	if rep.RatioSF <= rep.RatioMF {
		t.Errorf("SF ratio %v should exceed MF ratio %v", rep.RatioSF, rep.RatioMF)
	}
	if rep.RatioMF < 1 {
		t.Errorf("MF ratio %v lost the ordering", rep.RatioMF)
	}
	if len(rep.Verdicts) != 2 {
		t.Fatalf("verdicts = %d", len(rep.Verdicts))
	}
	// At price parity both say buy S4; SF must always be the more
	// optimistic estimate.
	if rep.Verdicts[0].SavingsSF <= 0 || rep.Verdicts[0].SavingsMF <= 0 {
		t.Errorf("parity verdicts = %+v", rep.Verdicts[0])
	}
	for _, v := range rep.Verdicts {
		if v.SavingsSF < v.SavingsMF {
			t.Errorf("SF less optimistic than MF at ratio %v", v.PriceRatio)
		}
	}
}

func TestClimateGuidanceReport(t *testing.T) {
	s := testStudy(t)
	rep, err := s.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.TempThresholdF) {
		t.Fatal("no temperature threshold")
	}
	if rep.TempThresholdF < 70 || rep.TempThresholdF > 85 {
		t.Errorf("temp threshold = %v", rep.TempThresholdF)
	}
	if rep.HotPenalty["DC1"] < 1.2 {
		t.Errorf("DC1 hot penalty = %v, want >= 1.2", rep.HotPenalty["DC1"])
	}
	if rep.Tree == nil {
		t.Error("tree missing")
	}
}

func TestSplitPolicyOptions(t *testing.T) {
	s, err := NewStudy(WithSeed(7), WithDays(30), WithRacks(10, 10), WithBins(64), WithExactSplits())
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Figures().TreeConfig()
	if cfg.Bins != 64 {
		t.Errorf("TreeConfig Bins = %d, want 64", cfg.Bins)
	}
	if cfg.Split != cart.SplitExact {
		t.Errorf("TreeConfig Split = %v, want SplitExact", cfg.Split)
	}
	// Defaults: auto split selection, package-default bin cap.
	d, err := NewStudy(WithSeed(7), WithDays(30), WithRacks(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if dc := d.Figures().TreeConfig(); dc.Split != cart.SplitAuto || dc.Bins != 0 {
		t.Errorf("default TreeConfig = %+v", dc)
	}
	// The small-study Q3 path is below the auto-binning threshold, so
	// the forced-exact study must agree with the default byte for byte.
	re, err := s.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 18 fits under the same study config as Q3.
	fig18, err := s.Figures().Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if fig18.Tree.String() != re.Tree.String() {
		t.Errorf("Fig 18 and Q3 trees differ:\n%s\n%s", fig18.Tree, re.Tree)
	}
	sd, err := NewStudy(WithSeed(7), WithDays(30), WithRacks(10, 10), WithBins(64))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := sd.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if re.Tree.String() != rd.Tree.String() {
		t.Errorf("exact vs auto small-study trees differ:\n%s\n%s", re.Tree, rd.Tree)
	}
}

func TestStudyDeterminism(t *testing.T) {
	a, err := NewStudy(WithSeed(9), WithDays(60), WithRacks(15, 15))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(WithSeed(9), WithDays(60), WithRacks(15, 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tickets()) != len(b.Tickets()) {
		t.Fatalf("ticket counts differ: %d vs %d", len(a.Tickets()), len(b.Tickets()))
	}
}

func TestFailurePredictionReport(t *testing.T) {
	s := testStudy(t)
	rep, err := s.FailurePrediction()
	if err != nil {
		t.Fatal(err)
	}
	if rep.AUC < 0.55 {
		t.Errorf("AUC = %v, want clearly above chance", rep.AUC)
	}
	if rep.TrainRows == 0 || rep.TestRows == 0 {
		t.Error("empty split")
	}
	if len(rep.TopFactors) == 0 {
		t.Error("no factor ranking")
	}
	if rep.PositiveRate <= 0 || rep.PositiveRate >= 0.5 {
		t.Errorf("positive rate = %v", rep.PositiveRate)
	}
}

func TestPoolingAnalysisReport(t *testing.T) {
	s := testStudy(t)
	reqs, err := s.PoolingAnalysis(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("scopes = %d", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Spares > reqs[i-1].Spares {
			t.Errorf("pooling not monotone: %+v", reqs)
		}
	}
	if _, err := s.PoolingAnalysis(true); err != nil {
		t.Fatal(err)
	}
}

func TestRepairPolicyReport(t *testing.T) {
	s := testStudy(t)
	recs, err := s.RepairPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recommendations = %d", len(recs))
	}
	seenDiskReplace := false
	for _, r := range recs {
		if r.Component.String() == "disk" && r.Better.String() == "replace" {
			seenDiskReplace = true
		}
	}
	if !seenDiskReplace {
		t.Error("cheap disks should be replaced, not serviced")
	}
}

func TestEnvironmentAlarmsReport(t *testing.T) {
	s := testStudy(t)
	sums, err := s.EnvironmentAlarms()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	dc1 := sums[0].TempHigh + sums[0].TempLow + sums[0].RHHigh + sums[0].RHLow
	dc2 := sums[1].TempHigh + sums[1].TempLow + sums[1].RHHigh + sums[1].RHLow
	if dc1 <= dc2 {
		t.Errorf("DC1 alarms (%d) should exceed DC2's (%d)", dc1, dc2)
	}
}

func TestExportAndExternalAnalysis(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := s.ExportRackDaysCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Fatalf("export too small: %d bytes", buf.Len())
	}
	rep, err := AnalyzeClimateCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.TempThresholdF) {
		t.Fatal("external analysis found no temperature threshold")
	}
	if rep.TempThresholdF < 70 || rep.TempThresholdF > 85 {
		t.Errorf("external threshold = %v", rep.TempThresholdF)
	}
	var tickets bytes.Buffer
	if err := s.ExportTicketsCSV(&tickets); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tickets.String(), "id,date") {
		t.Error("ticket CSV header missing")
	}
}

func TestAnalyzeClimateCSVErrors(t *testing.T) {
	if _, err := AnalyzeClimateCSV(strings.NewReader("not,a,rackday\n1,2,3\n")); err == nil {
		t.Error("CSV without the analysis columns should error")
	}
	if _, err := AnalyzeClimateCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV should error")
	}
}

func TestNewStudyRejectsOversizedStudy(t *testing.T) {
	_, err := NewStudy(WithRacks(1_000_000, 1_000_000))
	var se *StudySizeError
	if !errors.As(err, &se) || se.Racks != [2]int{1_000_000, 1_000_000} || se.Days != 930 {
		t.Fatalf("NewStudy(WithRacks(1e6, 1e6)) err = %v, want *StudySizeError", err)
	}
	// The budget is the paper-scale fleet over the longest window the
	// daemon accepts; the default window fits any fleet up to 2,443 racks.
	if err := CheckStudySize(WithDays(3660)); err != nil {
		t.Errorf("paper fleet over 3660 days rejected: %v", err)
	}
	if err := CheckStudySize(WithDays(3661)); err == nil {
		t.Error("paper fleet over 3661 days accepted")
	}
	if err := CheckStudySize(WithRacks(1<<62, 1<<62)); err == nil {
		t.Error("overflowing rack counts accepted")
	}
}

func TestNewStudyRejectsBadBins(t *testing.T) {
	// The check runs before any simulation, so even paper-scale options
	// fail instantly.
	_, err := NewStudy(WithBins(1))
	var bre *cart.BinsRangeError
	if !errors.As(err, &bre) || bre.Bins != 1 {
		t.Fatalf("NewStudy(WithBins(1)) err = %v, want *cart.BinsRangeError", err)
	}
}
