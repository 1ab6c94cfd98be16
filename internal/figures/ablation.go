package figures

import (
	"fmt"

	"rainshine/internal/metrics"
	"rainshine/internal/provision"
	"rainshine/internal/topology"
)

// AblationRow is one configuration of the MF-clustering ablation: how
// much over-provisioning (100% SLA, daily) the MF approach needs for a
// workload when a design choice is varied.
type AblationRow struct {
	Workload    string
	Config      string
	Clusters    int
	OverprovPct float64
	// GapClosedPct reports how much of the SF→LB gap this configuration
	// closes (100 = reaches the oracle, 0 = no better than SF).
	GapClosedPct float64
}

// featureSets are the feature-subset ablations: DESIGN.md calls out that
// the MF approach needs *jointly* considered factors; these subsets
// quantify the claim (and mirror the paper's SF-vs-MF argument at
// intermediate points).
var featureSets = []struct {
	name     string
	features []string
}{
	{"spatial-only", []string{"dc", "region"}},
	{"hardware-only", []string{"sku", "power_kw", "age_months"}},
	{"no-spatial", []string{"sku", "power_kw", "age_months"}},
	{"all-factors", nil}, // provision defaults
}

// clusterCaps are the cluster-budget ablations.
var clusterCaps = []int{2, 4, 6, 10}

// AblationFeatures sweeps the clustering feature subsets for both study
// workloads at 100% SLA, daily granularity.
func (d *Data) AblationFeatures() ([]AblationRow, error) {
	var out []AblationRow
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		lb, sf, err := d.lbSF(wl)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, fs := range featureSets {
			key := fmt.Sprintf("%v", fs.features)
			if seen[key] {
				continue // no-spatial duplicates hardware-only today
			}
			seen[key] = true
			sl, err := provision.AnalyzeServerLevelWith(d.Res, d.Mu, wl, metrics.Daily,
				[]float64{1.0}, provision.Options{Features: fs.features})
			if err != nil {
				return nil, err
			}
			mf := sl.Overprov[provision.MF][0]
			out = append(out, AblationRow{
				Workload:     wl.String(),
				Config:       "features=" + fs.name,
				Clusters:     sl.Clustering.NumClusters(),
				OverprovPct:  100 * mf,
				GapClosedPct: gapClosed(lb, mf, sf),
			})
		}
	}
	return out, nil
}

// AblationAutoCP compares the fixed-cp clustering against the
// cross-validated one (rpart's recommended cp selection).
func (d *Data) AblationAutoCP() ([]AblationRow, error) {
	var out []AblationRow
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		lb, sf, err := d.lbSF(wl)
		if err != nil {
			return nil, err
		}
		for _, auto := range []bool{false, true} {
			sl, err := provision.AnalyzeServerLevelWith(d.Res, d.Mu, wl, metrics.Daily,
				[]float64{1.0}, provision.Options{AutoCP: auto})
			if err != nil {
				return nil, err
			}
			name := "cp=fixed"
			if auto {
				name = "cp=cross-validated"
			}
			mf := sl.Overprov[provision.MF][0]
			out = append(out, AblationRow{
				Workload:     wl.String(),
				Config:       name,
				Clusters:     sl.Clustering.NumClusters(),
				OverprovPct:  100 * mf,
				GapClosedPct: gapClosed(lb, mf, sf),
			})
		}
	}
	return out, nil
}

// AblationClusterBudget sweeps the maximum cluster count.
func (d *Data) AblationClusterBudget() ([]AblationRow, error) {
	var out []AblationRow
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		lb, sf, err := d.lbSF(wl)
		if err != nil {
			return nil, err
		}
		for _, cap := range clusterCaps {
			sl, err := provision.AnalyzeServerLevelWith(d.Res, d.Mu, wl, metrics.Daily,
				[]float64{1.0}, provision.Options{MaxClusters: cap})
			if err != nil {
				return nil, err
			}
			mf := sl.Overprov[provision.MF][0]
			out = append(out, AblationRow{
				Workload:     wl.String(),
				Config:       fmt.Sprintf("max-clusters=%d", cap),
				Clusters:     sl.Clustering.NumClusters(),
				OverprovPct:  100 * mf,
				GapClosedPct: gapClosed(lb, mf, sf),
			})
		}
	}
	return out, nil
}

// lbSF returns the oracle and single-factor over-provision fractions at
// 100% SLA daily, the endpoints against which ablations are scored.
func (d *Data) lbSF(wl topology.Workload) (lb, sf float64, err error) {
	sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, wl, metrics.Daily, []float64{1.0})
	if err != nil {
		return 0, 0, err
	}
	return sl.Overprov[provision.LB][0], sl.Overprov[provision.SF][0], nil
}

func gapClosed(lb, mf, sf float64) float64 {
	if sf <= lb {
		return 100
	}
	v := 100 * (sf - mf) / (sf - lb)
	if v < 0 {
		return 0
	}
	return v
}

// GranularityRow is one cell of the provisioning-granularity sweep: the
// spare requirement at 100% SLA when spares can be recycled only per
// window of the given size. Finer windows multiplex more (Fig 10 vs
// Fig 12 extended across the paper's full granularity range).
type GranularityRow struct {
	Workload    string
	Granularity string
	LBPct       float64
	MFPct       float64
	SFPct       float64
}

// GranularitySweep evaluates Q1-A at every supported window size.
func (d *Data) GranularitySweep() ([]GranularityRow, error) {
	var out []GranularityRow
	for _, wl := range []topology.Workload{topology.W1, topology.W6} {
		for _, g := range []metrics.Granularity{metrics.Hourly, metrics.Daily, metrics.Weekly, metrics.Monthly} {
			sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, wl, g, []float64{1.0})
			if err != nil {
				return nil, err
			}
			out = append(out, GranularityRow{
				Workload:    wl.String(),
				Granularity: g.String(),
				LBPct:       100 * sl.Overprov[provision.LB][0],
				MFPct:       100 * sl.Overprov[provision.MF][0],
				SFPct:       100 * sl.Overprov[provision.SF][0],
			})
		}
	}
	return out, nil
}
