package rainshine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"rainshine/internal/ingest"
)

var (
	cachedClean *Study
	cachedDirty *Study
)

// dirtyPair builds one reduced-scale study twice: once clean, once with
// every fault class at default rates, from the same seed.
func dirtyPair(t *testing.T) (clean, dirty *Study) {
	t.Helper()
	if cachedClean == nil {
		s, err := NewStudy(WithSeed(42), WithDays(365), WithRacks(120, 100))
		if err != nil {
			t.Fatal(err)
		}
		cachedClean = s
	}
	if cachedDirty == nil {
		s, err := NewStudy(WithSeed(42), WithDays(365), WithRacks(120, 100),
			WithFaults(DefaultFaults()))
		if err != nil {
			t.Fatal(err)
		}
		cachedDirty = s
	}
	return cachedClean, cachedDirty
}

func TestFaultsDisabledBitIdentical(t *testing.T) {
	clean, _ := dirtyPair(t)
	zero, err := NewStudy(WithSeed(42), WithDays(365), WithRacks(120, 100),
		WithFaults(FaultConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.Tickets(), clean.Tickets()) {
		t.Fatal("zero-valued FaultConfig changed the ticket stream")
	}
	a, err := clean.data.Res.Climate.At(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := zero.data.Res.Climate.At(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("zero-valued FaultConfig changed climate telemetry: %+v vs %+v", a, b)
	}
}

func TestDirtyStudyQualityReport(t *testing.T) {
	clean, dirty := dirtyPair(t)

	q, err := dirty.Quality()
	if err != nil {
		t.Fatal(err)
	}
	// Every injected fault class must be itemized in the report:
	// duplicates and out-of-window skew under quarantine, in-window skew
	// as repaired repeat inversions, dropouts and stuck runs as
	// reconstructed sensor readings.
	for _, c := range []ingest.Class{ingest.DuplicateTicket, ingest.TicketOutOfRange, ingest.SensorGap, ingest.SensorStuck} {
		if q.Quarantined[c] == 0 {
			t.Errorf("no %s defects itemized at default rates", c)
		}
	}
	if q.SensorImputed == 0 {
		t.Error("no sensor readings imputed")
	}
	if c := q.Coverage(); c <= 0.9 || c >= 1 {
		t.Errorf("dirty coverage = %v, want in (0.9, 1)", c)
	}

	cq, err := clean.Quality()
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Clean() {
		t.Errorf("clean study reports defects: %d", cq.Defects())
	}
	if cq.Coverage() != 1 {
		t.Errorf("clean coverage = %v", cq.Coverage())
	}
}

// TestDirtyExportAnalyzesGracefully feeds the lossy dirty-mode export
// (dropped power_kw column, NaN/Inf cells) back through the external
// analysis path: it must degrade — reporting the missing factor and the
// reduced cell coverage — rather than fail, and still find the
// temperature knee.
func TestDirtyExportAnalyzesGracefully(t *testing.T) {
	clean, dirty := dirtyPair(t)
	var buf bytes.Buffer
	if err := dirty.ExportRackDaysCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "power_kw") {
		t.Fatal("dirty export still carries the dropped column")
	}
	if !strings.Contains(buf.String(), "NaN") {
		t.Fatal("dirty export carries no NaN cells")
	}
	rep, err := AnalyzeClimateCSV(&buf)
	if err != nil {
		t.Fatalf("external analysis failed on dirty export: %v", err)
	}
	found := false
	for _, m := range rep.MissingFeatures {
		if m == "power_kw" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing features = %v, want power_kw listed", rep.MissingFeatures)
	}
	if rep.DataCoverage >= 1 || rep.DataCoverage <= 0.9 {
		t.Errorf("dirty export coverage = %v, want in (0.9, 1)", rep.DataCoverage)
	}
	if math.IsNaN(rep.TempThresholdF) {
		t.Error("no temperature threshold from the dirty export")
	}
	// The clean export stays byte-stable: full columns, no NaN cells.
	var cleanBuf bytes.Buffer
	if err := clean.ExportRackDaysCSV(&cleanBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(cleanBuf.String(), "\n", 2)[0], "power_kw") {
		t.Error("clean export lost a column")
	}
	if strings.Contains(cleanBuf.String(), "NaN") {
		t.Error("clean export carries NaN cells")
	}
}

// TestDirtyExportGolden pins the external-analysis path that writes
// missing cells byte for byte: ReadFrameCSV parses the dirty rack-day
// CSV's NaN cells, SanitizeFrame marks them missing, and the
// environment fit routes them. It compares digests of the CSV, of the
// JSON report AnalyzeClimateCSV derives from it, and of the fitted
// tree; TestDirtyExportAnalyzesGracefully checks the same path only
// with tolerances. The digests move only with a deliberate change to
// the study, the export or the fit.
func TestDirtyExportGolden(t *testing.T) {
	_, dirty := dirtyPair(t)
	var buf bytes.Buffer
	if err := dirty.ExportRackDaysCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvSum := digest(buf.Bytes()) // AnalyzeClimateCSV drains buf
	rep, err := AnalyzeClimateCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"rack-day CSV", csvSum, "41b088e164f37095ebb0c2c79cd0e4e2e4b323cd2b3a49176e4dadd522c5e4a8"},
		{"report JSON", digest(js), "a82b5c3f01d6f0186ea212ba3661b26866c83fa2373c3ea3dd09b8a7124f6739"},
		{"tree", digest([]byte(rep.Tree.String())), "2d07207f3d619e7b5e627d5f16c60e752b8cda6d6948009a0623be31ec9c9ab6"},
	} {
		if c.got != c.want {
			t.Errorf("dirty-export %s digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenDirtyAnalyses is the headline robustness check: a study
// corrupted at the default rates, after quarantine and repair, must
// reproduce the Q1-Q3 decisions of the clean run. Failure events and
// static covariates are recorded out of band of the faulted streams, so
// Q1 and Q2 must match exactly; Q3 reads the repaired (imputed) climate
// and is held to the documented tolerances instead.
func TestGoldenDirtyAnalyses(t *testing.T) {
	clean, dirty := dirtyPair(t)

	// Q1: spare provisioning.
	q1c, err := clean.SpareProvisioning(W6, false)
	if err != nil {
		t.Fatal(err)
	}
	q1d, err := dirty.SpareProvisioning(W6, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"LB", "MF", "SF"} {
		for i := range q1c.OverprovPct[a] {
			c, d := q1c.OverprovPct[a][i], q1d.OverprovPct[a][i]
			if math.Abs(c-d) > 1.0 {
				t.Errorf("Q1 %s overprov at SLA %v: clean %.2f%% vs dirty %.2f%%", a, q1c.SLAs[i], c, d)
			}
		}
	}
	if q1d.DataCoverage >= 1 || q1d.DataCoverage <= 0.9 {
		t.Errorf("Q1 dirty coverage = %v", q1d.DataCoverage)
	}
	if q1c.DataCoverage != 1 {
		t.Errorf("Q1 clean coverage = %v", q1c.DataCoverage)
	}

	// Q2: vendor comparison. Ratios within 10% relative, same verdicts.
	q2c, err := clean.VendorComparison()
	if err != nil {
		t.Fatal(err)
	}
	q2d, err := dirty.VendorComparison()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(q2d.RatioMF-q2c.RatioMF) / q2c.RatioMF; rel > 0.10 {
		t.Errorf("Q2 MF ratio drifted %.1f%%: clean %.3f vs dirty %.3f", 100*rel, q2c.RatioMF, q2d.RatioMF)
	}
	if rel := math.Abs(q2d.RatioSF-q2c.RatioSF) / q2c.RatioSF; rel > 0.10 {
		t.Errorf("Q2 SF ratio drifted %.1f%%: clean %.3f vs dirty %.3f", 100*rel, q2c.RatioSF, q2d.RatioSF)
	}
	for i := range q2c.Verdicts {
		if (q2c.Verdicts[i].SavingsMF > 0) != (q2d.Verdicts[i].SavingsMF > 0) {
			t.Errorf("Q2 verdict flipped at price ratio %v", q2c.Verdicts[i].PriceRatio)
		}
	}

	// Q3: climate guidance off the repaired sensors. Thresholds within
	// 3 F / 8 points RH; the DC1 hot penalty must survive.
	q3c, err := clean.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	q3d, err := dirty.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(q3d.TempThresholdF) {
		t.Fatal("Q3 lost the temperature threshold under faults")
	}
	if math.Abs(q3d.TempThresholdF-q3c.TempThresholdF) > 3 {
		t.Errorf("Q3 temp threshold: clean %.1f vs dirty %.1f", q3c.TempThresholdF, q3d.TempThresholdF)
	}
	if !math.IsNaN(q3c.RHThreshold) && !math.IsNaN(q3d.RHThreshold) {
		if math.Abs(q3d.RHThreshold-q3c.RHThreshold) > 8 {
			t.Errorf("Q3 RH threshold: clean %.1f vs dirty %.1f", q3c.RHThreshold, q3d.RHThreshold)
		}
	}
	if q3d.HotPenalty["DC1"] < 1.2 {
		t.Errorf("Q3 DC1 hot penalty = %v under faults, want >= 1.2", q3d.HotPenalty["DC1"])
	}
}
