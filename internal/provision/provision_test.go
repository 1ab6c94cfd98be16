package provision

import (
	"testing"

	"rainshine/internal/failure"
	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

var cachedResult *simulate.Result

// testResult simulates a reduced fleet once and reuses it across tests.
func testResult(t *testing.T) *simulate.Result {
	t.Helper()
	if cachedResult != nil {
		return cachedResult
	}
	res, err := simulate.Run(simulate.Config{
		Seed:            3,
		Days:            365,
		Topology:        topology.Config{RacksPerDC: [2]int{120, 100}},
		SkipNonHardware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedResult = res
	return res
}

// muOf supplies res's μ distributions computed directly, as a one-shot
// study does.
func muOf(res *simulate.Result) MuFunc {
	return func(comps []failure.Component, g metrics.Granularity) ([]metrics.WindowDist, error) {
		return metrics.MuDistributions(res, comps, g)
	}
}

func TestApproachString(t *testing.T) {
	if LB.String() != "LB" || MF.String() != "MF" || SF.String() != "SF" {
		t.Error("Approach.String broken")
	}
	if Approach(9).String() != "Approach(9)" {
		t.Error("unknown approach string")
	}
}

func TestRackNeedSpares(t *testing.T) {
	n := rackNeed{units: 40, muMax: 6}
	tests := []struct {
		sla  float64
		want int
	}{
		{1.00, 6}, // no allowance
		{0.95, 4}, // allowance floor(0.05*40)=2
		{0.90, 2}, // allowance 4
		{0.80, 0}, // allowance 8 covers everything
	}
	for _, tt := range tests {
		if got := n.spares(tt.sla); got != tt.want {
			t.Errorf("spares(%v) = %d, want %d", tt.sla, got, tt.want)
		}
	}
	// Clamp to units.
	big := rackNeed{units: 10, muMax: 50}
	if big.spares(1.0) != 10 {
		t.Errorf("spares should clamp to units, got %d", big.spares(1.0))
	}
	if (rackNeed{units: 0}).fraction(1.0) != 0 {
		t.Error("zero units fraction should be 0")
	}
}

func TestAnalyzeServerLevelSandwich(t *testing.T) {
	res := testResult(t)
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		for _, g := range []metrics.Granularity{metrics.Daily, metrics.Hourly} {
			sl, err := AnalyzeServerLevel(res, muOf(res), wl, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, sla := range sl.SLAs {
				lb := sl.Overprov[LB][i]
				mf := sl.Overprov[MF][i]
				sf := sl.Overprov[SF][i]
				// The structural invariant: LB <= MF <= SF.
				if lb > mf+1e-9 || mf > sf+1e-9 {
					t.Errorf("%v/%v SLA %v: LB=%.3f MF=%.3f SF=%.3f violates LB<=MF<=SF",
						wl, g, sla, lb, mf, sf)
				}
				if sf < 0 || sf > 1 {
					t.Errorf("SF fraction %v out of [0,1]", sf)
				}
			}
			// Requirements grow with SLA.
			for _, a := range []Approach{LB, MF, SF} {
				ov := sl.Overprov[a]
				for i := 1; i < len(ov); i++ {
					if ov[i] < ov[i-1]-1e-9 {
						t.Errorf("%v/%v %v: overprov not monotone in SLA: %v", wl, g, a, ov)
					}
				}
			}
		}
	}
}

func TestMFBeatsSFAt100(t *testing.T) {
	res := testResult(t)
	sl, err := AnalyzeServerLevel(res, muOf(res), topology.W1, metrics.Daily, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := len(sl.SLAs) - 1 // 100% SLA
	mf, sf := sl.Overprov[MF][i], sl.Overprov[SF][i]
	if sf == 0 {
		t.Skip("no failures for workload in reduced test fleet")
	}
	if mf >= sf {
		t.Errorf("MF (%.3f) should improve on SF (%.3f) at 100%% SLA", mf, sf)
	}
}

func TestClusteringPresent(t *testing.T) {
	res := testResult(t)
	sl, err := AnalyzeServerLevel(res, muOf(res), topology.W6, metrics.Daily, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Clustering == nil {
		t.Fatal("no clustering produced")
	}
	if n := sl.Clustering.NumClusters(); n < 2 || n > maxClusters {
		t.Errorf("clusters = %d, want 2..%d", n, maxClusters)
	}
	// Cluster fractions partition the pooled fractions.
	total := 0
	for _, fs := range sl.ClusterFractions {
		total += len(fs)
	}
	if total != len(sl.PooledFractions) {
		t.Errorf("cluster members %d != racks %d", total, len(sl.PooledFractions))
	}
}

func TestHourlyNotWorseThanDaily(t *testing.T) {
	res := testResult(t)
	daily, err := AnalyzeServerLevel(res, muOf(res), topology.W1, metrics.Daily, []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	hourly, err := AnalyzeServerLevel(res, muOf(res), topology.W1, metrics.Hourly, []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Temporal multiplexing: the oracle requirement can only shrink at
	// finer granularity.
	if hourly.Overprov[LB][0] > daily.Overprov[LB][0]+1e-9 {
		t.Errorf("hourly LB %.3f > daily LB %.3f", hourly.Overprov[LB][0], daily.Overprov[LB][0])
	}
}

func TestAnalyzeServerLevelErrors(t *testing.T) {
	res := testResult(t)
	if _, err := AnalyzeServerLevel(res, muOf(res), topology.W1, metrics.Daily, []float64{1.5}); err == nil {
		t.Error("SLA > 1 should error")
	}
	if _, err := AnalyzeServerLevel(res, muOf(res), topology.W1, metrics.Daily, []float64{0}); err == nil {
		t.Error("SLA 0 should error")
	}
}

func TestTCOSavings(t *testing.T) {
	res := testResult(t)
	sl, err := AnalyzeServerLevel(res, muOf(res), topology.W6, metrics.Daily, nil)
	if err != nil {
		t.Fatal(err)
	}
	savings, err := sl.TCOSavings(tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(savings) != len(sl.SLAs) {
		t.Fatalf("savings len = %d", len(savings))
	}
	for i, s := range savings {
		if s < -1e-9 || s > 1 {
			t.Errorf("savings[%d] = %v out of [0,1]", i, s)
		}
	}
	bad := tco.CostModel{}
	if _, err := sl.TCOSavings(bad); err == nil {
		t.Error("invalid cost model should error")
	}
}

func TestAnalyzeComponentLevel(t *testing.T) {
	res := testResult(t)
	cl, err := AnalyzeComponentLevel(res, muOf(res), topology.W1, metrics.Daily, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Approach{LB, MF, SF} {
		if cl.ComponentCostPct[a] < 0 || cl.ServerCostPct[a] < 0 {
			t.Errorf("%v negative cost", a)
		}
		// LB cost <= SF cost in both schemes.
		if cl.ComponentCostPct[LB] > cl.ComponentCostPct[SF]+1e-9 {
			t.Errorf("component LB %.2f > SF %.2f", cl.ComponentCostPct[LB], cl.ComponentCostPct[SF])
		}
		if cl.ServerCostPct[LB] > cl.ServerCostPct[SF]+1e-9 {
			t.Errorf("server LB %.2f > SF %.2f", cl.ServerCostPct[LB], cl.ServerCostPct[SF])
		}
	}
	// The paper's headline: with MF, component-level pools are cheaper
	// than server-level pools (disk/DIMM spares cost 2%/10% of a server).
	if cl.ComponentCostPct[MF] >= cl.ServerCostPct[MF] {
		t.Errorf("MF component cost %.2f%% should beat server cost %.2f%%",
			cl.ComponentCostPct[MF], cl.ServerCostPct[MF])
	}
}

func TestAnalyzeComponentLevelErrors(t *testing.T) {
	res := testResult(t)
	if _, err := AnalyzeComponentLevel(res, muOf(res), topology.W1, metrics.Daily, tco.CostModel{}); err == nil {
		t.Error("invalid cost model should error")
	}
}
