package provision

// Cross-seed robustness: the qualitative Q1 claims must hold for any
// seed, not just the canonical one — otherwise EXPERIMENTS.md would be
// reporting an artifact.

import (
	"testing"

	"rainshine/internal/metrics"
	"rainshine/internal/simulate"
	"rainshine/internal/topology"
)

func TestQ1InvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{2, 101, 9999} {
		res, err := simulate.Run(simulate.Config{
			Seed:            seed,
			Days:            300,
			Topology:        topology.Config{RacksPerDC: [2]int{90, 80}},
			SkipNonHardware: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []topology.Workload{topology.W1, topology.W6} {
			daily, err := AnalyzeServerLevel(res, muOf(res), wl, metrics.Daily, []float64{1.0})
			if err != nil {
				t.Fatal(err)
			}
			hourly, err := AnalyzeServerLevel(res, muOf(res), wl, metrics.Hourly, []float64{1.0})
			if err != nil {
				t.Fatal(err)
			}
			lb, mf, sf := daily.Overprov[LB][0], daily.Overprov[MF][0], daily.Overprov[SF][0]
			if !(lb <= mf+1e-9 && mf <= sf+1e-9) {
				t.Errorf("seed %d %v: sandwich violated LB=%.3f MF=%.3f SF=%.3f", seed, wl, lb, mf, sf)
			}
			if sf > 0 && mf >= sf {
				t.Errorf("seed %d %v: MF no better than SF", seed, wl)
			}
			// Temporal multiplexing at the oracle level.
			if hourly.Overprov[LB][0] > daily.Overprov[LB][0]+1e-9 {
				t.Errorf("seed %d %v: hourly LB above daily", seed, wl)
			}
		}
	}
}
