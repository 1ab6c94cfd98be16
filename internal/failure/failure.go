// Package failure defines the hazard model that generates hardware
// failures: per-component base rates composed with multiplicative
// factor effects (spatial, temporal, workload, hardware, environmental)
// and a rack-level correlated shock process.
//
// The factor structure implements Section 5 of DESIGN.md: every effect
// the paper reports in Figs 2-9 and 14-18 is planted here, so the MF
// analysis pipeline has ground truth to recover. All functions are pure;
// the simulation engine in internal/simulate draws the actual events.
package failure

import (
	"fmt"
	"math"

	"rainshine/internal/calendar"
	"rainshine/internal/climate"
	"rainshine/internal/topology"
)

// Component identifies what failed. The paper provisions spares for
// whole servers (Q1-A) or for disks and DIMMs separately (Q1-B);
// ServerOther covers every hardware fault that takes the server down and
// is not a disk or DIMM (board, PSU, NIC, CPU).
type Component int

// Component kinds.
const (
	Disk Component = iota
	DIMM
	ServerOther
	NumComponents
)

// String names the component.
func (c Component) String() string {
	switch c {
	case Disk:
		return "disk"
	case DIMM:
		return "memory"
	case ServerOther:
		return "server"
	default:
		return "unknown"
	}
}

// Params holds every knob of the hazard model. DefaultParams returns the
// calibration documented in DESIGN.md; tests may shrink rates.
type Params struct {
	// Base per-device-day hazards.
	DiskBase   float64
	DIMMBase   float64
	ServerBase float64

	// DCRegion[dc][region] is the spatial multiplier (Fig 2).
	DCRegion [][]float64

	// Weekday and Weekend multipliers (Fig 3).
	Weekday float64
	Weekend float64

	// Month[m] is the month-of-year multiplier (Fig 4).
	Month [12]float64

	// Workload[w] is the per-workload multiplier (Fig 6).
	Workload [topology.NumWorkloads]float64

	// SKU[s] is the *intrinsic* per-SKU multiplier (Figs 14-15). The
	// S2:S4 ratio here is the "true" ~4x effect the MF analysis should
	// isolate from the ~10x the SF view reports.
	SKU [topology.NumSKUs]float64

	// PowerSlope adds (kW-PowerKnee)*PowerSlope above the knee (Fig 8).
	PowerKnee  float64
	PowerSlope float64

	// Bathtub (Fig 9): 1 + InfantScale*exp(-age/InfantTau) +
	// WearoutSlope*max(0, age-WearoutOnset) with age in months.
	InfantScale  float64
	InfantTauMo  float64
	WearoutSlope float64
	WearoutOnset float64

	// Disk environmental effects (Figs 16-18): a smooth trend plus the
	// threshold interactions the MF tree should discover.
	TempTrendPerF float64 // per °F above TrendBaseF, disks only
	TrendBaseF    float64
	HotThresholdF float64 // step: x HotFactor above this
	HotFactor     float64
	DryThreshold  float64 // step: x DryFactor below this RH, only when hot
	DryFactor     float64

	// Shock process: rack-days on which correlated batch failures occur.
	ShockBase float64 // baseline per-rack-day shock probability
}

// DefaultParams returns the calibrated hazard model.
func DefaultParams() Params {
	return Params{
		DiskBase:   0.030 / 365, // ~3% AFR per disk
		DIMMBase:   0.007 / 365,
		ServerBase: 0.020 / 365,
		DCRegion: [][]float64{
			{2.2, 1.45, 1.25, 1.4}, // DC1 regions (Fig 2: DC1 higher)
			{1.0, 0.85, 1.1},       // DC2 regions
		},
		Weekday: 1.25,
		Weekend: 0.95,
		Month: [12]float64{
			0.85, 0.85, 0.90, 0.90, 0.95, 1.00,
			1.10, 1.20, 1.25, 1.25, 1.20, 1.15,
		},
		Workload: [topology.NumWorkloads]float64{
			1.10, // W1 compute
			2.20, // W2 compute-heavy: highest (Fig 6)
			0.50, // W3 HPC: lowest
			1.10, // W4 storage-compute
			0.80, // W5 storage-data
			0.75, // W6 storage-data
			1.15, // W7 storage-compute
		},
		SKU: [topology.NumSKUs]float64{
			1.10, // S1
			1.60, // S2 (intrinsically 4x S4)
			1.30, // S3
			0.40, // S4
			1.00, // S5
			0.95, // S6
			0.70, // S7
		},
		PowerKnee:  9,
		PowerSlope: 0.08,

		InfantScale:  2.0,
		InfantTauMo:  6,
		WearoutSlope: 0.01,
		WearoutOnset: 48,

		TempTrendPerF: 0.010,
		TrendBaseF:    65,
		HotThresholdF: 78,
		HotFactor:     1.5,
		DryThreshold:  25,
		DryFactor:     1.25,

		ShockBase: 0.0025,
	}
}

// DemandModel supplies per-class utilization so the temporal hazard can
// follow actual load instead of a fixed weekday constant.
// *workload.Model satisfies it.
type DemandModel interface {
	Utilization(wl topology.Workload, day int) (float64, error)
}

// Model evaluates hazards for a fleet.
type Model struct {
	P     Params
	Fleet *topology.Fleet
	// Demand, when set, replaces the static Weekday/Weekend multipliers
	// with a load-stress multiplier derived from the class's actual
	// utilization (the mechanism the paper posits for Fig 3).
	Demand DemandModel
}

// New returns a hazard model over fleet with the given params and the
// static weekday/weekend temporal multipliers.
func New(fleet *topology.Fleet, p Params) *Model {
	return &Model{P: p, Fleet: fleet}
}

// NewWithDemand returns a hazard model whose temporal stress follows the
// demand model.
func NewWithDemand(fleet *topology.Fleet, p Params, demand DemandModel) *Model {
	return &Model{P: p, Fleet: fleet, Demand: demand}
}

// CommonMultiplier composes the factor effects shared by all components
// for one rack on one day: spatial, temporal, workload, SKU, power, age.
// It depends only on (rack, day), so a caller evaluates it once per
// rack-day and hands the value to DeviceHazard or RackHazard for each
// component.
func (m *Model) CommonMultiplier(rack *topology.Rack, day int) float64 {
	p := &m.P
	mult := p.DCRegion[rack.DC][rack.Region]
	if u, err := m.demandUtilization(rack.Workload, day); err == nil {
		mult *= stressMultiplier(u)
	} else if calendar.IsWeekend(day) {
		mult *= p.Weekend
	} else {
		mult *= p.Weekday
	}
	mult *= p.Month[calendar.Month(day)]
	mult *= p.Workload[rack.Workload]
	mult *= p.SKU[rack.SKU]
	if rack.PowerKW > p.PowerKnee {
		mult *= 1 + (rack.PowerKW-p.PowerKnee)*p.PowerSlope
	}
	mult *= m.Bathtub(rack.AgeMonths(day))
	return mult
}

// errNoDemand signals that no demand model is attached.
var errNoDemand = fmt.Errorf("failure: no demand model")

// demandUtilization fetches utilization from the demand model if present.
func (m *Model) demandUtilization(wl topology.Workload, day int) (float64, error) {
	if m.Demand == nil {
		return 0, errNoDemand
	}
	return m.Demand.Utilization(wl, day)
}

// stressMultiplier converts utilization into a hazard multiplier:
// linear in load around a neutral point of 0.5, so a fully utilized
// server is 1.5 times as failure-prone as a half-idle one. The paper's
// Fig 3 weekday elevation emerges from this mechanism.
func stressMultiplier(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return 1 + 1.0*(u-0.5)
}

// Bathtub returns the age multiplier for an equipment age in months.
func (m *Model) Bathtub(ageMonths float64) float64 {
	p := &m.P
	if ageMonths < 0 {
		// Not yet commissioned: no hazard at all.
		return 0
	}
	b := 1 + p.InfantScale*math.Exp(-ageMonths/p.InfantTauMo)
	if ageMonths > p.WearoutOnset {
		b += p.WearoutSlope * (ageMonths - p.WearoutOnset)
	}
	return b
}

// EnvMultiplier returns the environmental multiplier for a component
// under the given conditions. Only disks respond to temperature and
// humidity (Figs 16-18); memory has a token temperature sensitivity.
func (m *Model) EnvMultiplier(c Component, cond climate.Conditions) float64 {
	p := &m.P
	switch c {
	case Disk:
		mult := 1.0
		if cond.TempF > p.TrendBaseF {
			mult *= 1 + p.TempTrendPerF*(cond.TempF-p.TrendBaseF)
		}
		if cond.TempF > p.HotThresholdF {
			mult *= p.HotFactor
			if cond.RH < p.DryThreshold {
				mult *= p.DryFactor
			}
		}
		return mult
	case DIMM:
		if cond.TempF > p.HotThresholdF {
			return 1.1
		}
		return 1.0
	default:
		return 1.0
	}
}

// DeviceHazard returns the per-device-day failure probability intensity
// for component c on a rack-day whose CommonMultiplier is common and
// whose conditions are cond: base × common × environment.
func (m *Model) DeviceHazard(c Component, common float64, cond climate.Conditions) float64 {
	base := 0.0
	switch c {
	case Disk:
		base = m.P.DiskBase
	case DIMM:
		base = m.P.DIMMBase
	case ServerOther:
		base = m.P.ServerBase
	}
	return base * common * m.EnvMultiplier(c, cond)
}

// RackHazard returns the expected failure count for component c across
// the whole rack on a rack-day whose CommonMultiplier is common
// (per-device hazard times device count).
func (m *Model) RackHazard(c Component, rack *topology.Rack, common float64, cond climate.Conditions) float64 {
	n := 0
	switch c {
	case Disk:
		n = rack.Disks()
	case DIMM:
		n = rack.DIMMs()
	case ServerOther:
		n = rack.Servers
	}
	return float64(n) * m.DeviceHazard(c, common, cond)
}

// ShockProbability returns the per-day probability that the rack suffers
// a correlated batch-failure event. The feature dependence is what makes
// rack groups separable for Q1's MF clustering:
//
//   - storage-class racks: driven by age (bathtub ends), power rating,
//     and SKU — matching the paper's finding that age/power/SKU dominate
//     the storage-workload clusters;
//   - compute-class racks: driven by DC and region — matching the
//     paper's finding that spatial features dominate compute clusters.
func (m *Model) ShockProbability(rack *topology.Rack, day int) float64 {
	if day < rack.CommissionDay {
		return 0
	}
	g := 1.0
	// Batch failures are load-triggered too (firmware storms and PSU
	// trips cluster at peak demand), so the weekday effect (Fig 3)
	// survives even where shocks dominate the event counts.
	if u, err := m.demandUtilization(rack.Workload, day); err == nil {
		g *= stressMultiplier(u)
	}
	spec := m.Fleet.SKUs[rack.SKU]
	if spec.Class == "storage" {
		age := rack.AgeMonths(day)
		if age < 6 || age > 48 {
			g *= 3.5
		}
		if rack.PowerKW >= 12 {
			g *= 2.0
		}
		if rack.SKU == topology.S3 {
			g *= 1.8
		}
	} else {
		switch {
		case rack.DC == 0 && rack.Region == 0:
			g *= 4.0
		case rack.DC == 0:
			g *= 2.0
		default:
			g *= 1.0
		}
	}
	return m.P.ShockBase * g
}

// ShockSeverity returns the expected fraction of the rack's servers
// taken down by a shock, before random scatter. Storage racks suffer
// larger batches (bad lots, firmware storms over many spindles), which
// produces the wider 2-85% over-provisioning spread of Fig 11b.
func (m *Model) ShockSeverity(rack *topology.Rack) float64 {
	spec := m.Fleet.SKUs[rack.SKU]
	if spec.Class == "storage" {
		sev := 0.22
		if rack.PowerKW >= 12 {
			sev += 0.18
		}
		if rack.SKU == topology.S3 {
			sev += 0.10
		}
		return sev
	}
	sev := 0.06
	if rack.DC == 0 && rack.Region == 0 {
		sev += 0.10
	} else if rack.DC == 0 {
		sev += 0.04
	}
	return sev
}
