// Package workload models per-class demand: how hard each workload
// drives its servers over time. The paper attributes the weekday
// failure elevation (Fig 3) to "variations in workload demand over the
// week"; this package makes that mechanism explicit — interactive
// classes follow business-hour/weekday cycles, batch and HPC classes run
// flat or anti-cyclic — and the hazard model converts utilization into a
// stress multiplier.
package workload

import (
	"fmt"
	"math"

	"rainshine/internal/calendar"
	"rainshine/internal/rng"
	"rainshine/internal/topology"
)

// Profile describes one workload class's demand pattern.
type Profile struct {
	Class topology.Workload
	// Base is the average utilization (0-1).
	Base float64
	// WeekdayBoost is added on weekdays (interactive classes spike with
	// users; batch backfills weekends).
	WeekdayBoost float64
	// SeasonalAmp scales a year-end business ramp (retail-style load).
	SeasonalAmp float64
	// Noise is the day-to-day jitter (standard deviation).
	Noise float64
}

// DefaultProfiles returns the per-class demand profiles. The compute
// classes are interactive (strong weekday cycles); storage-data serves
// steady replication traffic; HPC runs near-flat at high utilization.
func DefaultProfiles() map[topology.Workload]Profile {
	return map[topology.Workload]Profile{
		topology.W1: {Class: topology.W1, Base: 0.55, WeekdayBoost: 0.20, SeasonalAmp: 0.10, Noise: 0.05},
		topology.W2: {Class: topology.W2, Base: 0.65, WeekdayBoost: 0.22, SeasonalAmp: 0.12, Noise: 0.06},
		topology.W3: {Class: topology.W3, Base: 0.80, WeekdayBoost: 0.00, SeasonalAmp: 0.00, Noise: 0.03},
		topology.W4: {Class: topology.W4, Base: 0.50, WeekdayBoost: 0.12, SeasonalAmp: 0.08, Noise: 0.05},
		topology.W5: {Class: topology.W5, Base: 0.45, WeekdayBoost: 0.06, SeasonalAmp: 0.05, Noise: 0.04},
		topology.W6: {Class: topology.W6, Base: 0.45, WeekdayBoost: 0.06, SeasonalAmp: 0.05, Noise: 0.04},
		topology.W7: {Class: topology.W7, Base: 0.52, WeekdayBoost: 0.12, SeasonalAmp: 0.08, Noise: 0.05},
	}
}

// Model precomputes per-class daily utilization series.
type Model struct {
	days int
	util [topology.NumWorkloads][]float64 // indexed by class
}

// New builds utilization series for every workload class over the
// observation window. Deterministic given the source.
func New(src *rng.Source, days int) (*Model, error) {
	if days <= 0 {
		return nil, fmt.Errorf("workload: non-positive days %d", days)
	}
	m := &Model{days: days}
	for wl, p := range DefaultProfiles() {
		wsrc := src.SplitIndex("workload/class", int(wl))
		series := make([]float64, days)
		for d := 0; d < days; d++ {
			u := p.Base
			if !calendar.IsWeekend(d) {
				u += p.WeekdayBoost
			}
			// Year-end business ramp peaking in November.
			doy := float64(calendar.DayOfYear(d))
			u += p.SeasonalAmp * 0.5 * (1 + math.Cos(2*math.Pi*(doy-320)/365.25))
			u += wsrc.NormFloat64() * p.Noise
			series[d] = clamp01(u)
		}
		m.util[wl] = series
	}
	return m, nil
}

// Utilization returns the class's utilization on the day.
func (m *Model) Utilization(wl topology.Workload, day int) (float64, error) {
	if wl < 0 || wl >= topology.NumWorkloads {
		return 0, fmt.Errorf("workload: unknown class %v", wl)
	}
	if day < 0 || day >= m.days {
		return 0, fmt.Errorf("workload: day %d out of range [0,%d)", day, m.days)
	}
	return m.util[wl][day], nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
