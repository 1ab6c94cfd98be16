// Package metrics computes the paper's two failure metrics from
// simulated telemetry (Section V):
//
//   - λ, the failure generation rate, materialized as a rack-day frame
//     with every candidate factor of Table III attached — the input to
//     the single-factor figures (Figs 2-9, 16, 17) and to CART;
//   - μ, the number of devices unavailable within a time window,
//     tracked per rack at daily or hourly granularity — the input to
//     spare provisioning (Q1). Provisioning a window-granularity spare
//     pool must cover every device down at any point in the window, so
//     μ(window) counts down-intervals intersecting the window; finer
//     windows allow temporal multiplexing (Fig 10 vs Fig 12).
package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rainshine/internal/calendar"
	"rainshine/internal/failure"
	"rainshine/internal/frame"
	"rainshine/internal/parallel"
	"rainshine/internal/simulate"
	"rainshine/internal/stats"
	"rainshine/internal/topology"
)

// Granularity selects the μ window size.
type Granularity int

// Window granularities. The paper tracks μ from minutes to months
// (Section V); hourly through monthly are representable with this
// simulator's hour-resolution repair intervals.
const (
	Daily Granularity = iota
	Hourly
	Weekly
	Monthly
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case Daily:
		return "daily"
	case Hourly:
		return "hourly"
	case Weekly:
		return "weekly"
	case Monthly:
		return "monthly"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// hours returns the window length in hours.
func (g Granularity) hours() float64 {
	switch g {
	case Daily:
		return 24
	case Hourly:
		return 1
	case Weekly:
		return 7 * 24
	case Monthly:
		return 30 * 24
	default:
		return 24
	}
}

// WindowDist is the distribution of μ over a rack's time windows,
// stored as a histogram over integer device counts.
type WindowDist struct {
	// Counts[c] is the number of windows in which exactly c devices
	// were unavailable.
	Counts []int64
	// Windows is the total number of observed windows.
	Windows int
}

// Max returns the largest observed μ.
func (d *WindowDist) Max() int {
	for c := len(d.Counts) - 1; c >= 0; c-- {
		if d.Counts[c] > 0 {
			return c
		}
	}
	return 0
}

// MuDistributions computes per-rack μ distributions counting only the
// given component classes. Windows before a rack's commission day are
// excluded.
func MuDistributions(res *simulate.Result, comps []failure.Component, g Granularity) ([]WindowDist, error) {
	if len(comps) == 0 {
		return nil, errors.New("metrics: no components selected")
	}
	include := [failure.NumComponents]bool{}
	for _, c := range comps {
		if c < 0 || c >= failure.NumComponents {
			return nil, fmt.Errorf("metrics: invalid component %d", c)
		}
		include[c] = true
	}
	nRacks := len(res.Fleet.Racks)
	winHours := g.hours()
	// A trailing partial window still needs spares, so round up rather
	// than truncate (also preserves μ-max monotonicity across
	// granularities: every fine window nests in some coarse window).
	totalWindows := int(math.Ceil(float64(res.Days) * 24 / winHours))

	// Bucket events per rack first so each rack's windows are scanned
	// once.
	perRack := make([][]simulate.Event, nRacks)
	for _, ev := range res.Events {
		if !include[ev.Component] {
			continue
		}
		perRack[ev.Rack] = append(perRack[ev.Rack], ev)
	}

	out := make([]WindowDist, nRacks)
	window := make([]int32, totalWindows)
	for ri := range out {
		for i := range window {
			window[i] = 0
		}
		maxC := int32(0)
		for _, ev := range perRack[ri] {
			start := float64(ev.Day)*24 + ev.Hour
			end := start + ev.RepairHours
			w0 := int(start / winHours)
			if w0 >= totalWindows {
				// Beyond the last complete window (coarse granularities
				// truncate a partial trailing window).
				continue
			}
			w1 := int(end / winHours)
			if w1 >= totalWindows {
				w1 = totalWindows - 1
			}
			for w := w0; w <= w1; w++ {
				window[w]++
				if window[w] > maxC {
					maxC = window[w]
				}
			}
		}
		// First observable window: commission day onward.
		firstDay := res.Fleet.Racks[ri].CommissionDay
		if firstDay < 0 {
			firstDay = 0
		}
		w0 := int(float64(firstDay) * 24 / winHours)
		if w0 > totalWindows {
			w0 = totalWindows
		}
		d := WindowDist{Counts: make([]int64, maxC+1), Windows: totalWindows - w0}
		for w := w0; w < totalWindows; w++ {
			d.Counts[window[w]]++
		}
		out[ri] = d
	}
	return out, nil
}

// GroupMuDistributions computes μ distributions over groups of racks:
// μ(window) for a group counts every selected-component device down at
// any point in the window across all the group's racks. This is the
// metric for pooled spare provisioning (Section II's "should spares be
// maintained for each class separately, or is it better to have a shared
// pool?"): a group-level pool must cover the group's joint worst window.
// groupOf maps a rack index to its group (negative = excluded).
func GroupMuDistributions(res *simulate.Result, comps []failure.Component, g Granularity, groupOf func(rack int) int, nGroups int) ([]WindowDist, error) {
	if len(comps) == 0 {
		return nil, errors.New("metrics: no components selected")
	}
	if nGroups <= 0 {
		return nil, errors.New("metrics: non-positive group count")
	}
	include := [failure.NumComponents]bool{}
	for _, c := range comps {
		if c < 0 || c >= failure.NumComponents {
			return nil, fmt.Errorf("metrics: invalid component %d", c)
		}
		include[c] = true
	}
	winHours := g.hours()
	totalWindows := int(math.Ceil(float64(res.Days) * 24 / winHours))
	windows := make([][]int32, nGroups)
	for i := range windows {
		windows[i] = make([]int32, totalWindows)
	}
	group := make([]int, len(res.Fleet.Racks))
	for ri := range group {
		gi := groupOf(ri)
		if gi >= nGroups {
			return nil, fmt.Errorf("metrics: group %d out of range [0,%d)", gi, nGroups)
		}
		group[ri] = gi
	}
	for _, ev := range res.Events {
		if !include[ev.Component] {
			continue
		}
		gi := group[ev.Rack]
		if gi < 0 {
			continue
		}
		start := float64(ev.Day)*24 + ev.Hour
		end := start + ev.RepairHours
		w0 := int(start / winHours)
		if w0 >= totalWindows {
			continue
		}
		w1 := int(end / winHours)
		if w1 >= totalWindows {
			w1 = totalWindows - 1
		}
		for w := w0; w <= w1; w++ {
			windows[gi][w]++
		}
	}
	out := make([]WindowDist, nGroups)
	for gi := range out {
		maxC := int32(0)
		for _, v := range windows[gi] {
			if v > maxC {
				maxC = v
			}
		}
		d := WindowDist{Counts: make([]int64, maxC+1), Windows: totalWindows}
		for _, v := range windows[gi] {
			d.Counts[v]++
		}
		out[gi] = d
	}
	return out, nil
}

// MTTR summarizes repair durations (hours) per component class — the
// mean-time-to-repair view operators use for staffing and the
// replace-vs-service comparison.
func MTTR(res *simulate.Result) map[failure.Component]stats.Summary {
	buckets := make(map[failure.Component][]float64, failure.NumComponents)
	for _, ev := range res.Events {
		buckets[ev.Component] = append(buckets[ev.Component], ev.RepairHours)
	}
	out := make(map[failure.Component]stats.Summary, len(buckets))
	for c, hours := range buckets {
		s, err := stats.Summarize(hours)
		if err != nil {
			continue
		}
		out[c] = s
	}
	return out
}

// RackDayFrame materializes the rack-day analysis table: one row per
// (rack, observed day) carrying every Table III factor plus the λ
// targets (total, disk, memory, server failure counts on that day).
// It is RackDayFrameContext without cancellation.
func RackDayFrame(res *simulate.Result) (*frame.Frame, error) {
	return RackDayFrameContext(context.Background(), res)
}

// dayFields are one day's calendar factors, as level codes.
type dayFields struct{ dow, week, month, year uint8 }

// RackDayFrameContext is RackDayFrame under a context. Rows are
// rack-major: each rack owns one contiguous block of rows, from its
// first observed day to the window end, and the racks fill their blocks
// in parallel over res.Cfg.Workers. No row depends on another rack's,
// so the frame is byte-identical for every worker count. The calendar
// factors are computed once per day, and the coded columns are written
// straight into their uint8 level codes, which the frame adopts without
// a range check: each level table is built to cover its codes.
func RackDayFrameContext(ctx context.Context, res *simulate.Result) (*frame.Frame, error) {
	racks := res.Fleet.Racks
	days := res.Days

	// Index events by rack-day.
	type cell struct{ disk, mem, srv int16 }
	counts := make([]cell, len(racks)*days)
	for _, ev := range res.Events {
		i := int(ev.Rack)*days + int(ev.Day)
		switch ev.Component {
		case failure.Disk:
			counts[i].disk++
		case failure.DIMM:
			counts[i].mem++
		default:
			counts[i].srv++
		}
	}

	// Rack ri's rows are [start[ri], start[ri+1]), one per observed day.
	start := make([]int, len(racks)+1)
	for ri := range racks {
		start[ri+1] = start[ri] + days - firstObservedDay(&racks[ri], days)
	}
	rows := start[len(racks)]

	// One year level per calendar year the window touches, never fewer
	// than the three of the paper's 930-day window.
	years := 3
	if days > 0 {
		years = max(years, calendar.YearIndex(days-1)+1)
	}
	if years > frame.MaxTypedLevels {
		return nil, fmt.Errorf("metrics: a %d-day window spans %d calendar years, more than a year column's %d levels",
			days, years, frame.MaxTypedLevels)
	}
	yearLevels := make([]string, years)
	for y := range yearLevels {
		yearLevels[y] = fmt.Sprintf("Y%d", y)
	}
	cal := make([]dayFields, days)
	for d := range cal {
		cal[d] = dayFields{
			dow:   uint8(calendar.Weekday(d)),
			week:  uint8(calendar.WeekOfYear(d)),
			month: uint8(calendar.Month(d)),
			year:  uint8(calendar.YearIndex(d)),
		}
	}
	dcLevels := make([]string, len(res.Fleet.DCs))
	for i, dc := range res.Fleet.DCs {
		dcLevels[i] = dc.Name
	}
	regionLevels, regionIndex := regionLevelTable(res.Fleet)

	var (
		temp     = make([]float64, rows)
		rh       = make([]float64, rows)
		age      = make([]float64, rows)
		power    = make([]float64, rows)
		dc       = make([]uint8, rows)
		region   = make([]uint8, rows)
		sku      = make([]uint8, rows)
		workload = make([]uint8, rows)
		dow      = make([]uint8, rows)
		week     = make([]uint8, rows)
		month    = make([]uint8, rows)
		year     = make([]uint8, rows)
		cyear    = make([]uint8, rows)
		dayIdx   = make([]float64, rows)
		rackID   = make([]float64, rows)
		fAll     = make([]float64, rows)
		fDisk    = make([]float64, rows)
		fMem     = make([]float64, rows)
		fSrv     = make([]float64, rows)
	)
	err := parallel.ForEach(ctx, res.Cfg.Workers, len(racks), func(ri int) error {
		rack := &racks[ri]
		from := firstObservedDay(rack, days)
		// The rack's static factors, one code each for the whole block.
		rDC, rRegion := uint8(rack.DC), uint8(regionIndex[rack.DC][rack.Region])
		rSKU, rWorkload := uint8(rack.SKU), uint8(rack.Workload)
		rCYear := uint8(commissionYearIndex(rack.CommissionDay))
		for d, r := from, start[ri]; d < days; d, r = d+1, r+1 {
			cond, err := res.Climate.At(ri, d)
			if err != nil {
				return err
			}
			c := counts[ri*days+d]
			cd := cal[d]
			temp[r] = cond.TempF
			rh[r] = cond.RH
			age[r] = rack.AgeMonths(d)
			power[r] = rack.PowerKW
			dc[r] = rDC
			region[r] = rRegion
			sku[r] = rSKU
			workload[r] = rWorkload
			dow[r] = cd.dow
			week[r] = cd.week
			month[r] = cd.month
			year[r] = cd.year
			cyear[r] = rCYear
			dayIdx[r] = float64(d)
			rackID[r] = float64(ri)
			fAll[r] = float64(c.disk + c.mem + c.srv)
			fDisk[r] = float64(c.disk)
			fMem[r] = float64(c.mem)
			fSrv[r] = float64(c.srv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	f := frame.New(rows)
	steps := []func() error{
		func() error { return f.AddContinuous("temp", temp) },
		func() error { return f.AddContinuous("rh", rh) },
		func() error { return f.AddContinuous("age_months", age) },
		func() error { return f.AddContinuous("power_kw", power) },
		func() error { return f.AddNominalCodes("dc", dc, dcLevels) },
		func() error { return f.AddNominalCodes("region", region, regionLevels) },
		func() error { return f.AddNominalCodes("sku", sku, topology.SKUNames()) },
		func() error { return f.AddNominalCodes("workload", workload, topology.WorkloadNames()) },
		func() error { return f.AddOrdinalCodes("dow", dow, calendar.WeekdayNames) },
		func() error { return f.AddOrdinalCodes("week", week, calendar.WeekNames()) },
		func() error { return f.AddOrdinalCodes("month", month, calendar.MonthNames) },
		func() error { return f.AddOrdinalCodes("year", year, yearLevels) },
		func() error { return f.AddNominalCodes("commission_year", cyear, commissionYearLevels()) },
		func() error { return f.AddContinuous("day", dayIdx) },
		func() error { return f.AddContinuous("rack_id", rackID) },
		func() error { return f.AddContinuous("failures", fAll) },
		func() error { return f.AddContinuous("disk_failures", fDisk) },
		func() error { return f.AddContinuous("mem_failures", fMem) },
		func() error { return f.AddContinuous("server_failures", fSrv) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// firstObservedDay is the first day a rack contributes a row: its
// commission day, clamped to the window [0, days].
func firstObservedDay(r *topology.Rack, days int) int {
	return min(max(r.CommissionDay, 0), days)
}

// commissionYearIndex buckets a commission day (offset from window
// start, possibly up to 5 years negative) into a year index 0..5,
// the paper's CommissionYear factor.
func commissionYearIndex(commissionDay int) int {
	idx := (commissionDay + 5*365) / 365
	if idx < 0 {
		idx = 0
	}
	if idx > 5 {
		idx = 5
	}
	return idx
}

func commissionYearLevels() []string {
	return []string{"CY0", "CY1", "CY2", "CY3", "CY4", "CY5"}
}

// regionLevelTable flattens (dc, region) into global level indices with
// "DC1-1" style labels (Fig 2's x-axis).
func regionLevelTable(fleet *topology.Fleet) (levels []string, index [][]int) {
	index = make([][]int, len(fleet.DCs))
	for dcIdx, dc := range fleet.DCs {
		index[dcIdx] = make([]int, dc.Regions)
		for r := 0; r < dc.Regions; r++ {
			index[dcIdx][r] = len(levels)
			levels = append(levels, topology.RegionName(dcIdx, r))
		}
	}
	return levels, index
}

// RackFeatureFrame builds a one-row-per-rack frame of static features,
// used by Q1's CART clustering. The target columns are supplied by the
// caller (per-rack requirement statistics).
func RackFeatureFrame(fleet *topology.Fleet, obsDays int) (*frame.Frame, error) {
	n := len(fleet.Racks)
	var (
		dc       = make([]int, n)
		region   = make([]int, n)
		sku      = make([]int, n)
		workload = make([]int, n)
		power    = make([]float64, n)
		age      = make([]float64, n)
	)
	regionLevels, regionIndex := regionLevelTable(fleet)
	for i := range fleet.Racks {
		r := &fleet.Racks[i]
		dc[i] = r.DC
		region[i] = regionIndex[r.DC][r.Region]
		sku[i] = int(r.SKU)
		workload[i] = int(r.Workload)
		power[i] = r.PowerKW
		// Age at window end summarizes the rack's age over the study and
		// stays non-negative even for racks commissioned mid-window.
		age[i] = r.AgeMonths(obsDays)
	}
	f := frame.New(n)
	steps := []func() error{
		func() error { return f.AddNominalInts("dc", dc, []string{"DC1", "DC2"}) },
		func() error { return f.AddNominalInts("region", region, regionLevels) },
		func() error { return f.AddNominalInts("sku", sku, topology.SKUNames()) },
		func() error { return f.AddNominalInts("workload", workload, topology.WorkloadNames()) },
		func() error { return f.AddContinuous("power_kw", power) },
		func() error { return f.AddContinuous("age_months", age) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return f, nil
}
