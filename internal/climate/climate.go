// Package climate models the environmental telemetry the paper's BMS
// (building management system) collected: per-rack daily inlet
// temperature (°F) and relative humidity (%).
//
// Two cooling plants are modelled (Table I):
//
//   - Adiabatic (DC1): evaporative cooling in a warm, dry site. Very
//     energy-efficient, but inlet conditions track the outdoor weather —
//     hot-season excursions above 78 °F and dry-season RH collapses below
//     25 % both occur, giving the MF analysis of Q3 something to find.
//   - Chilled water / HVAC (DC2): a refrigerant loop holds inlet
//     conditions nearly flat year-round, so DC2's failures show almost no
//     environmental sensitivity (Fig 18, right half).
//
// Within a DC, regions carry static offsets (hot aisles, blanked rows),
// which is the spatial variation Fig 2 aggregates over.
package climate

import (
	"context"
	"fmt"
	"math"

	"rainshine/internal/calendar"
	"rainshine/internal/parallel"
	"rainshine/internal/rng"
	"rainshine/internal/topology"
)

// Bounds of observed conditions (Table III).
const (
	MinTempF = 56.0
	MaxTempF = 90.0
	MinRH    = 5.0
	MaxRH    = 87.0
)

// Conditions is the environment at one rack on one day.
type Conditions struct {
	TempF float64 // inlet air temperature, °F
	RH    float64 // relative humidity, %
}

// Model precomputes per-rack-per-day conditions for a fleet.
type Model struct {
	days  int
	racks int
	temp  []float32
	rh    []float32
}

// New builds the climate series for every rack over days observation
// days. Deterministic given the source. It is NewContext with
// context.Background() and one worker; use that variant to fill the
// racks in parallel under a cancellable context.
func New(src *rng.Source, fleet *topology.Fleet, days int) (*Model, error) {
	return NewContext(context.Background(), src, fleet, days, 1)
}

// NewContext is New with the rack series filled in parallel over
// workers (parallel.Workers semantics) under ctx. Each rack draws from
// its own stream and writes its own rows, so the model is identical for
// any worker count. A canceled fill returns ctx's error and no model.
func NewContext(ctx context.Context, src *rng.Source, fleet *topology.Fleet, days, workers int) (*Model, error) {
	if days <= 0 {
		return nil, fmt.Errorf("climate: non-positive days %d", days)
	}
	m := &Model{
		days:  days,
		racks: len(fleet.Racks),
		temp:  make([]float32, len(fleet.Racks)*days),
		rh:    make([]float32, len(fleet.Racks)*days),
	}
	// Site weather per DC per day.
	outT := make([][]float64, len(fleet.DCs))
	outRH := make([][]float64, len(fleet.DCs))
	for dcIdx := range fleet.DCs {
		wsrc := src.SplitIndex("climate/site", dcIdx)
		outT[dcIdx] = make([]float64, days)
		outRH[dcIdx] = make([]float64, days)
		for d := 0; d < days; d++ {
			t, rh := siteWeather(dcIdx, d, wsrc)
			outT[dcIdx][d] = t
			outRH[dcIdx][d] = rh
		}
	}
	err := parallel.ForEach(ctx, workers, len(fleet.Racks), func(ri int) error {
		rack := &fleet.Racks[ri]
		rsrc := src.SplitIndex("climate/rack", ri)
		tOff, rhOff := rackOffsets(rack, fleet.DCs[rack.DC])
		for d := 0; d < days; d++ {
			var c Conditions
			switch fleet.DCs[rack.DC].Cooling {
			case topology.Adiabatic:
				c = adiabatic(outT[rack.DC][d], outRH[rack.DC][d])
			case topology.ChilledWater:
				c = chilledWater()
			}
			c.TempF += tOff + rsrc.NormFloat64()*0.8
			c.RH += rhOff + rsrc.NormFloat64()*2.0
			c.TempF = clamp(c.TempF, MinTempF, MaxTempF)
			c.RH = clamp(c.RH, MinRH, MaxRH)
			m.temp[ri*days+d] = float32(c.TempF)
			m.rh[ri*days+d] = float32(c.RH)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Empty builds a model with every rack-day reading missing (NaN). It is
// the receiving vessel for streamed telemetry: a reconstruction fills
// readings in via SetAt as records arrive, and any cell never written
// reads as a sensor dropout to the ingest audit.
func Empty(racks, days int) (*Model, error) {
	if racks <= 0 {
		return nil, fmt.Errorf("climate: non-positive rack count %d", racks)
	}
	if days <= 0 {
		return nil, fmt.Errorf("climate: non-positive days %d", days)
	}
	m := &Model{
		days:  days,
		racks: racks,
		temp:  make([]float32, racks*days),
		rh:    make([]float32, racks*days),
	}
	nan := float32(math.NaN())
	for i := range m.temp {
		m.temp[i] = nan
		m.rh[i] = nan
	}
	return m, nil
}

// At returns the conditions for a rack on a day.
func (m *Model) At(rackID, day int) (Conditions, error) {
	if rackID < 0 || rackID >= m.racks {
		return Conditions{}, fmt.Errorf("climate: rack %d out of range [0,%d)", rackID, m.racks)
	}
	if day < 0 || day >= m.days {
		return Conditions{}, fmt.Errorf("climate: day %d out of range [0,%d)", day, m.days)
	}
	i := rackID*m.days + day
	return Conditions{TempF: float64(m.temp[i]), RH: float64(m.rh[i])}, nil
}

// Days returns the series length.
func (m *Model) Days() int { return m.days }

// Racks returns the number of rack series in the model.
func (m *Model) Racks() int { return m.racks }

// SetAt overwrites the recorded conditions for a rack-day. This is the
// telemetry-corruption hook: fault injection writes NaN (sensor dropout)
// or stale values (stuck sensors) after the simulation has consumed the
// true conditions, and ingest repair writes imputed values back. Values
// are recorded as-is, without range clamping.
func (m *Model) SetAt(rackID, day int, c Conditions) error {
	if rackID < 0 || rackID >= m.racks {
		return fmt.Errorf("climate: rack %d out of range [0,%d)", rackID, m.racks)
	}
	if day < 0 || day >= m.days {
		return fmt.Errorf("climate: day %d out of range [0,%d)", day, m.days)
	}
	i := rackID*m.days + day
	m.temp[i] = float32(c.TempF)
	m.rh[i] = float32(c.RH)
	return nil
}

// siteWeather returns outdoor (temperature °F, RH %) for a DC site on a
// day. DC1 sits in a warm, dry continental site (adiabatic-friendly);
// DC2 in a mild temperate one.
func siteWeather(dcIdx, day int, src *rng.Source) (float64, float64) {
	doy := float64(calendar.DayOfYear(day))
	// Seasonal phase peaking around mid-July (day ~196).
	season := math.Cos(2 * math.Pi * (doy - 196) / 365.25)
	var t, rh float64
	if dcIdx == 0 {
		// Hot summers (~95 °F), cool winters (~40 °F); dry overall with
		// very dry winters.
		t = 67 + 28*season + src.NormFloat64()*5
		rh = 35 - 18*season + src.NormFloat64()*8
	} else {
		t = 55 + 18*season + src.NormFloat64()*4
		rh = 60 - 10*season + src.NormFloat64()*6
	}
	return t, clamp(rh, 2, 100)
}

// adiabatic converts outdoor conditions into inlet conditions under
// evaporative cooling: cooling effectiveness rises with dryness, but in
// hot spells the inlet still creeps above the 78 °F set point, and in
// cold dry spells the recirculated air is very dry.
func adiabatic(outT, outRH float64) Conditions {
	// Evaporative cooling approaches the wet-bulb temperature. A crude
	// wet-bulb estimate: dry-bulb minus a depression that grows as RH
	// falls.
	depression := (100 - outRH) * 0.22
	wetBulb := outT - depression
	// Supply air targets 70 °F but cannot go below wet bulb + margin,
	// nor does the plant heat when it is cold outside: cold outdoor air
	// is mixed up toward the target.
	inlet := 70.0
	if wetBulb+4 > inlet {
		inlet = wetBulb + 4
	}
	if outT < 58 {
		inlet = 62 + (outT-58)*0.25
	}
	// Evaporation humidifies the supply air in proportion to the
	// depression actually used; dry winter air stays dry.
	rh := outRH + 12
	if outT < 65 {
		rh = outRH * 0.75 // recirculation + heating dries the air
	}
	return Conditions{TempF: inlet, RH: rh}
}

// chilledWater returns the tightly controlled HVAC set point.
func chilledWater() Conditions {
	return Conditions{TempF: 67, RH: 46}
}

// rackOffsets returns static spatial offsets for a rack. DC1's region 0
// is the hot set of rows (where the S2 racks were placed); higher-power
// racks also run slightly warmer inlets.
func rackOffsets(rack *topology.Rack, dc topology.DCSpec) (tempOff, rhOff float64) {
	switch {
	case rack.DC == 0 && rack.Region == 0:
		tempOff = 4.5
		rhOff = -4
	case rack.DC == 0 && rack.Region == 1:
		tempOff = 1.5
	case rack.DC == 1 && rack.Region == 2:
		tempOff = 1.0
	}
	if rack.PowerKW >= 12 {
		tempOff += 1.2
	}
	// Row parity approximates alternating cold/hot aisle adjacency.
	if rack.Row%2 == 1 {
		tempOff += 0.5
	}
	_ = dc
	return tempOff, rhOff
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
