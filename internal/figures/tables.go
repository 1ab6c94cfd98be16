package figures

import (
	"fmt"

	"rainshine/internal/climate"
	"rainshine/internal/metrics"
	"rainshine/internal/provision"
	"rainshine/internal/tco"
	"rainshine/internal/ticket"
	"rainshine/internal/topology"
)

// DCProperty is one row of Table I.
type DCProperty struct {
	Facility     string
	Packaging    string
	Availability string
	Cooling      string
}

// TableI reproduces Table I: the two DCs' design properties.
func (d *Data) TableI() []DCProperty {
	v, _ := cached(d, "tableI", func() ([]DCProperty, error) { return d.tableI(), nil })
	return v
}

func (d *Data) tableI() []DCProperty {
	out := make([]DCProperty, 0, len(d.Res.Fleet.DCs))
	for _, dc := range d.Res.Fleet.DCs {
		out = append(out, DCProperty{
			Facility:     dc.Name,
			Packaging:    dc.Packaging,
			Availability: fmt.Sprintf("%d nines", dc.AvailabilityNines),
			Cooling:      dc.Cooling.String(),
		})
	}
	return out
}

// TicketMix is one row of Table II: the share of a fault type in each
// DC's ticket stream, generated vs the paper's published value.
type TicketMix struct {
	Category string
	Fault    string
	DC1Pct   float64
	DC2Pct   float64
	PaperDC1 float64
	PaperDC2 float64
}

// TableII reproduces Table II: classification of failure tickets.
func (d *Data) TableII() []TicketMix {
	v, _ := cached(d, "tableII", func() ([]TicketMix, error) { return d.tableII(), nil })
	return v
}

func (d *Data) tableII() []TicketMix {
	gen := [2]map[ticket.Fault]float64{
		ticket.Mix(d.Res.Tickets, 0),
		ticket.Mix(d.Res.Tickets, 1),
	}
	paper := [2]map[ticket.Fault]float64{ticket.PaperMix(0), ticket.PaperMix(1)}
	var out []TicketMix
	for f := ticket.Timeout; f < ticket.NumFaults; f++ {
		out = append(out, TicketMix{
			Category: ticket.CategoryOf(f).String(),
			Fault:    f.String(),
			DC1Pct:   gen[0][f],
			DC2Pct:   gen[1][f],
			PaperDC1: paper[0][f],
			PaperDC2: paper[1][f],
		})
	}
	return out
}

// Feature is one row of Table III: a candidate factor with its type and
// observed range.
type Feature struct {
	Category string
	Name     string
	Type     string
	Range    string
}

// TableIII reproduces Table III: the candidate feature list.
func (d *Data) TableIII() []Feature {
	v, _ := cached(d, "tableIII", func() ([]Feature, error) { return d.tableIII(), nil })
	return v
}

func (d *Data) tableIII() []Feature {
	dc1 := d.Res.Fleet.DCs[0]
	dc2 := d.Res.Fleet.DCs[1]
	return []Feature{
		{"Hardware", "SKU", "N", "S1&3: storage, S2&4: compute, S5&6: mix, S7: HPC"},
		{"Hardware", "Age", "C", "0-5 years"},
		{"Hardware", "Rated Power", "C", "4-15 kW per rack"},
		{"Workload", "Type", "N", "W1&2: compute, W3: HPC, W4&7: storage-compute, W5&6: storage-data"},
		{"Env.", "Temperature", "C", fmt.Sprintf("%.0f-%.0f F", climate.MinTempF, climate.MaxTempF)},
		{"Env.", "RH", "C", fmt.Sprintf("%.0f-%.0f %%", climate.MinRH, climate.MaxRH)},
		{"Space", "Datacenter", "N", "DC1, DC2"},
		{"Space", "Row", "N", fmt.Sprintf("DC1: 1-%d, DC2: 1-%d", dc1.Rows, dc2.Rows)},
		{"Space", "Rack", "N", fmt.Sprintf("DC1: R1-%d, DC2: R1-%d", dc1.Racks, dc2.Racks)},
		{"Time", "Day", "O", "Sun-Sat"},
		{"Time", "Week", "O", "1-52"},
		{"Time", "Month", "O", "Jan-Dec"},
		{"Time", "Year", "O", "0-2"},
		{"Failure", "Fault Type", "N", "F1: Harddisk, F2: Memory, F3: Others-HW, F4: Software"},
	}
}

// TCOSaving is one cell of Table IV: the relative TCO savings of MF over
// SF for one (SLA, granularity, workload).
type TCOSaving struct {
	SLA         float64
	Granularity string
	Workload    string
	SavingsPct  float64
	// PaperPct is the published value for the matching cell.
	PaperPct float64
}

// paperTableIV holds the published Table IV (percent savings).
var paperTableIV = map[string]map[float64]float64{
	"daily-W1":  {0.90: 0.52, 0.95: 2.60, 1.00: 14.60},
	"daily-W6":  {0.90: 3.77, 0.95: 11.23, 1.00: 35.66},
	"hourly-W1": {0.90: 5.00, 0.95: 7.23, 1.00: 22.23},
	"hourly-W6": {0.90: 2.70, 0.95: 8.60, 1.00: 36.37},
}

// TableIV reproduces Table IV: relative TCO savings of MF over SF across
// SLAs, granularities, and the two study workloads.
func (d *Data) TableIV() ([]TCOSaving, error) {
	return cached(d, "tableIV", d.tableIV)
}

func (d *Data) tableIV() ([]TCOSaving, error) {
	model := tco.Default()
	var out []TCOSaving
	for _, g := range []metrics.Granularity{metrics.Daily, metrics.Hourly} {
		for _, wl := range []topology.Workload{topology.W1, topology.W6} {
			sl, err := provision.AnalyzeServerLevel(d.Res, d.Mu, wl, g, nil)
			if err != nil {
				return nil, err
			}
			savings, err := sl.TCOSavings(model)
			if err != nil {
				return nil, err
			}
			key := g.String() + "-" + wl.String()
			for i, sla := range sl.SLAs {
				out = append(out, TCOSaving{
					SLA:         sla,
					Granularity: g.String(),
					Workload:    wl.String(),
					SavingsPct:  100 * savings[i],
					PaperPct:    paperTableIV[key][sla],
				})
			}
		}
	}
	return out, nil
}
