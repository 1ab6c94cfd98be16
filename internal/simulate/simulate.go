// Package simulate is the generative engine: it walks the fleet through
// the observation window, draws hardware failure events from the hazard
// model (including correlated rack-level shocks), attaches repair
// durations, and emits the full RMA ticket stream (hardware plus
// software/boot/other tickets and false positives) that the analyses
// consume.
//
// This package is the substitution for the paper's production telemetry:
// everything downstream — metrics, CART, provisioning, SKU and
// environmental analyses — works only with its outputs, never with the
// planted parameters.
package simulate

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"rainshine/internal/climate"
	"rainshine/internal/dist"
	"rainshine/internal/failure"
	"rainshine/internal/faults"
	"rainshine/internal/parallel"
	"rainshine/internal/rng"
	"rainshine/internal/ticket"
	"rainshine/internal/topology"
)

// Config parameterizes a simulation run.
type Config struct {
	// Seed roots every random stream. Zero means rng.DefaultSeed.
	Seed uint64
	// Days is the observation window length. Zero means 930 (~2.5 y).
	Days int
	// Topology overrides fleet construction (testing hook).
	Topology topology.Config
	// FalsePositiveRate is the fraction of extra no-fault-found tickets
	// injected. Negative means 0; zero means the 0.05 default.
	FalsePositiveRate float64
	// SkipNonHardware suppresses software/boot/other ticket synthesis
	// (used by analyses that only need hardware events).
	SkipNonHardware bool
	// Workers bounds the number of racks simulated concurrently.
	// Zero means GOMAXPROCS. Results are identical for any worker
	// count: each rack draws from its own labelled stream and per-rack
	// event buffers are merged in rack order.
	Workers int
	// Faults, when non-nil, corrupts the *recorded* telemetry (climate
	// series, ticket stream) after the simulation has consumed the clean
	// ground truth — the dirty-data mode. Nil leaves every stream
	// bit-identical to the clean run.
	Faults *faults.Config
	// CARTBins caps the histogram bin count the downstream tree
	// analyses use when the binned split engine engages (0 means the
	// cart package default). The simulation itself ignores it; it rides
	// here because Config is the study-wide settings vehicle, like
	// Workers.
	CARTBins int
	// CARTExact forces exact split search in the downstream tree
	// analyses regardless of data size.
	CARTExact bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = rng.DefaultSeed
	}
	if c.Days == 0 {
		c.Days = 930
	}
	if c.Topology.ObservationDays == 0 {
		c.Topology.ObservationDays = c.Days
	}
	switch {
	case c.FalsePositiveRate == 0:
		c.FalsePositiveRate = 0.05
	case c.FalsePositiveRate < 0:
		c.FalsePositiveRate = 0
	}
	return c
}

// Event is one hardware device failure.
type Event struct {
	Rack        int32
	Day         int32
	Hour        float64 // onset hour within the day [0, 24)
	Component   failure.Component
	RepairHours float64
	// Device identifies which unit of the component class failed within
	// the rack (0 .. class population-1). Repeat failures of one device
	// share this index, which is how RMA repeat counts arise.
	Device int32
	// Shock marks events belonging to a correlated batch failure.
	Shock bool
}

// refailProb is the chance a replacement unit fails again within
// refailWindowDays — replacement stock re-enters the infant-mortality
// regime, which is what fills the RMA "repeat count" field the paper
// describes in Section IV.
const (
	refailProb       = 0.08
	refailWindowDays = 30
)

// Result bundles everything a simulation produced.
type Result struct {
	Cfg     Config
	Fleet   *topology.Fleet
	Climate *climate.Model
	Hazard  *failure.Model
	Events  []Event
	Tickets []ticket.Ticket
	Days    int
}

// repairDist returns the repair-duration sampler for a component.
func repairDist(c failure.Component, shock bool) dist.LogNormal {
	if shock {
		// Batch events are triaged quickly once diagnosed (~8 h median):
		// short enough that hourly spare pools can recycle spares within
		// the day, which is where Fig 12's savings come from.
		return dist.LogNormal{Mu: 2.1, Sigma: 0.5}
	}
	switch c {
	case failure.Disk:
		return dist.LogNormal{Mu: 1.6, Sigma: 0.7} // ~5 h median
	case failure.DIMM:
		return dist.LogNormal{Mu: 1.5, Sigma: 0.6}
	default:
		return dist.LogNormal{Mu: 1.9, Sigma: 0.8} // ~7 h median
	}
}

const maxRepairHours = 14 * 24

// Run executes a full simulation. It is RunContext with
// context.Background(); use that variant to make the run cancellable.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a full simulation under ctx. Cancellation is
// checked between construction phases and before each rack's climate
// fill and event walk, so an abandoned caller stops paying for
// simulation within one rack's worth of work. A canceled run returns
// ctx's error; partial results are never returned.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	res, root, err := substrate(cfg)
	if err != nil {
		return nil, err
	}
	cfg, fleet := res.Cfg, res.Fleet
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	clim, err := climate.NewContext(ctx, root.Split("climate"), fleet, cfg.Days, cfg.Workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("simulate: building climate: %w", err)
	}
	res.Climate = clim

	// Racks are independent given their pre-split RNG streams: fan them
	// across the pool. Each rack owns its slot of perRack, and the merge
	// below walks rack order, so results are identical for any worker
	// count (the parallel layer also drains remaining racks without
	// simulating them once ctx is canceled).
	perRack := make([][]Event, len(fleet.Racks))
	forErr := parallel.ForEach(ctx, cfg.Workers, len(fleet.Racks), func(ri int) error {
		rack := &fleet.Racks[ri]
		rsrc := root.SplitIndex("events/rack", ri)
		var err error
		perRack[ri], err = simulateRack(res, rack, rsrc)
		if err != nil {
			return fmt.Errorf("simulate: rack %d: %w", ri, err)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if forErr != nil {
		return nil, forErr
	}
	// Deterministic merge in rack order, independent of scheduling.
	// rackStart[ri] is the index of rack ri's first event.
	rackStart := make([]int, len(perRack)+1)
	for ri, evs := range perRack {
		rackStart[ri+1] = rackStart[ri] + len(evs)
	}
	res.Events = make([]Event, 0, rackStart[len(perRack)])
	for _, evs := range perRack {
		res.Events = append(res.Events, evs...)
	}

	if err := synthesizeTickets(res, rackStart, root.Split("tickets")); err != nil {
		return nil, err
	}
	// Telemetry corruption runs last: hazard draws and events above saw
	// the true conditions, only the recorded streams get dirty.
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		fsrc := root.Split("faults")
		if err := faults.CorruptClimate(fsrc.Split("sensors"), res.Climate, *cfg.Faults); err != nil {
			return nil, fmt.Errorf("simulate: injecting sensor faults: %w", err)
		}
		res.Tickets = faults.CorruptTickets(fsrc.Split("tickets"), res.Tickets, res.Days, *cfg.Faults)
	}
	return res, nil
}

// simulateRack draws all hardware events for one rack into a private
// buffer (safe to run concurrently with other racks).
func simulateRack(res *Result, rack *topology.Rack, src *rng.Source) ([]Event, error) {
	hz := res.Hazard
	var events []Event
	devicesOf := func(c failure.Component) int {
		switch c {
		case failure.Disk:
			return rack.Disks()
		case failure.DIMM:
			return rack.DIMMs()
		default:
			return rack.Servers
		}
	}
	// emit records an event and, with probability refailProb, schedules
	// the replacement unit's early re-failure (a "repeat" ticket).
	emit := func(ev Event) {
		events = append(events, ev)
		if src.Float64() < refailProb {
			day := int(ev.Day) + 1 + src.IntN(refailWindowDays)
			if day < res.Days {
				events = append(events, Event{
					Rack:        ev.Rack,
					Day:         int32(day),
					Hour:        src.Float64() * 24,
					Component:   ev.Component,
					RepairHours: clampRepair(repairDist(ev.Component, false).Sample(src)),
					Device:      ev.Device,
				})
			}
		}
	}
	for day := 0; day < res.Days; day++ {
		if day < rack.CommissionDay {
			continue
		}
		cond, err := res.Climate.At(rack.ID, day)
		if err != nil {
			return nil, err
		}
		common, err := hz.CommonMultiplier(rack, day)
		if err != nil {
			return nil, err
		}
		for c := failure.Disk; c < failure.NumComponents; c++ {
			lambda := hz.RackHazard(c, rack, common, cond)
			n := dist.Poisson{Lambda: lambda}.SampleInt(src)
			for k := 0; k < n; k++ {
				emit(Event{
					Rack:        int32(rack.ID),
					Day:         int32(day),
					Hour:        src.Float64() * 24,
					Component:   c,
					RepairHours: clampRepair(repairDist(c, false).Sample(src)),
					Device:      int32(src.IntN(devicesOf(c))),
				})
			}
		}
		// Correlated shock: a batch of devices in the rack fails within
		// the same day. Storage racks suffer chassis-level batches
		// (backplane/PSU/batch defects) taking whole servers out;
		// compute racks suffer disk firmware storms — each affected
		// server loses a disk, which component-level spares (Q1-B) can
		// cover at 2% of a server's cost. Failures trickle across the
		// day, so hourly spare pools multiplex what daily pools cannot
		// (Fig 10 vs Fig 12).
		shock, err := hz.ShockProbability(rack, day)
		if err != nil {
			return nil, err
		}
		if src.Float64() < shock {
			sev := hz.ShockSeverity(rack) * (0.5 + src.Float64())
			if sev > 0.9 {
				sev = 0.9
			}
			comp := failure.Disk
			// Storage racks split between chassis batches (servers) and
			// disk storms; compute racks see disk storms only. Disk
			// storms still take the affected servers down (Q1-A) but can
			// be absorbed by cheap disk spares at component granularity
			// (Q1-B, Fig 13).
			if res.Fleet.SKUs[rack.SKU].Class == "storage" && src.Float64() < 0.5 {
				comp = failure.ServerOther
			}
			for s := 0; s < rack.Servers; s++ {
				if src.Float64() < sev {
					// Shock batches name the affected server's unit
					// directly (server s, or a disk on server s), so a
					// storm never double-counts a device.
					device := int32(s)
					if comp == failure.Disk {
						device = int32(s*rack.DisksPerServer + src.IntN(rack.DisksPerServer))
					}
					emit(Event{
						Rack:        int32(rack.ID),
						Day:         int32(day),
						Hour:        src.Float64() * 24,
						Component:   comp,
						RepairHours: clampRepair(repairDist(comp, true).Sample(src)),
						Device:      device,
						Shock:       true,
					})
				}
			}
		}
	}
	return events, nil
}

func clampRepair(h float64) float64 {
	if h < 0.5 {
		return 0.5
	}
	if h > maxRepairHours {
		return maxRepairHours
	}
	return h
}

// serverSubFaults returns the per-DC split of ServerOther events into
// power/server/network fault types, proportioned to Table II.
func serverSubFaults(dc int) []float64 {
	if dc == 0 {
		return []float64{1.59, 2.84, 2.52} // power, server, network
	}
	return []float64{3.83, 1.21, 0.65}
}

// nonHardwareRatios returns per-DC counts of software/boot/other tickets
// per hardware ticket, derived from Table II's category mix.
func nonHardwareRatios(dc int) (software, boot, others float64) {
	if dc == 0 {
		hw := 30.66
		return 48.11 / hw, 11.78 / hw, 9.41 / hw
	}
	hw := 18.77
	return 56.45 / hw, 14.00 / hw, 10.77 / hw
}

// softwareSplit returns the timeout/deployment/crash weights per DC.
func softwareSplit(dc int) []float64 {
	if dc == 0 {
		return []float64{31.27, 13.95, 2.89}
	}
	return []float64{38.84, 14.56, 3.05}
}

// bootSplit returns the PXE/reboot weights per DC.
func bootSplit(dc int) []float64 {
	if dc == 0 {
		return []float64{10.53, 1.25}
	}
	return []float64{13.81, 0.19}
}

// synthesizeTickets converts hardware events into RMA tickets and adds
// the non-hardware ticket load calibrated to Table II. The events are in
// rack order: rackStart[ri] is the index of rack ri's first event and
// rackStart[len(racks)] is len(res.Events).
//
// Every count is known before the first draw (one hardware ticket per
// event, each DC's non-hardware load from its hardware count, the false
// positives from the total), so the stream is allocated once at its
// final length and filled in place, in the order the draws are made.
func synthesizeTickets(res *Result, rackStart []int, src *rng.Source) error {
	fleet := res.Fleet

	// Per-DC rack index for placing non-hardware tickets, and each DC's
	// hardware ticket count.
	racksByDC := make([][]int, len(fleet.DCs))
	hwCount := make([]int, len(fleet.DCs))
	for i := range fleet.Racks {
		dc := fleet.Racks[i].DC
		racksByDC[dc] = append(racksByDC[dc], i)
		hwCount[dc] += rackStart[i+1] - rackStart[i]
	}

	subFault := make([]*dist.Categorical, len(fleet.DCs))
	for dc := range subFault {
		c, err := dist.NewCategorical(serverSubFaults(dc))
		if err != nil {
			return err
		}
		subFault[dc] = c
	}

	// nonHW[dc] holds the DC's software, boot and other ticket counts.
	nonHW := make([][3]int, len(fleet.DCs))
	total := len(res.Events)
	if !res.Cfg.SkipNonHardware {
		for dc := range nonHW {
			swR, bootR, otherR := nonHardwareRatios(dc)
			n := float64(hwCount[dc])
			nonHW[dc] = [3]int{int(n * swR), int(n * bootR), int(n * otherR)}
			total += nonHW[dc][0] + nonHW[dc][1] + nonHW[dc][2]
		}
	}
	fp := 0
	if res.Cfg.FalsePositiveRate > 0 {
		fp = int(float64(total) * res.Cfg.FalsePositiveRate)
	}
	tickets := make([]ticket.Ticket, total+fp)

	for i, ev := range res.Events {
		rack := &fleet.Racks[ev.Rack]
		f := ticket.HardwareFaultOf(ev.Component)
		if ev.Component == failure.ServerOther {
			switch subFault[rack.DC].Sample(src) {
			case 0:
				f = ticket.PowerFailure
			case 1:
				f = ticket.ServerFailure
			default:
				f = ticket.NetworkFailure
			}
		}
		tickets[i] = ticket.Ticket{
			ID:          i,
			Day:         int(ev.Day),
			Hour:        ev.Hour,
			DC:          rack.DC,
			Rack:        int(ev.Rack),
			Fault:       f,
			RepairHours: ev.RepairHours,
			Component:   ev.Component,
			Device:      int(ev.Device),
		}
	}
	// Assign repeat counts in time order per device (the RMA re-open
	// counter of Section IV), one rack block at a time.
	var keys []repeatKey
	for ri := range fleet.Racks {
		keys = numberRepeats(tickets[rackStart[ri]:rackStart[ri+1]], keys)
	}

	pos := len(res.Events)
	if !res.Cfg.SkipNonHardware {
		for dc := range fleet.DCs {
			sw, err := dist.NewCategorical(softwareSplit(dc))
			if err != nil {
				return err
			}
			bt, err := dist.NewCategorical(bootSplit(dc))
			if err != nil {
				return err
			}
			addNonHW := func(count int, pick func() ticket.Fault) {
				for i := 0; i < count; i++ {
					ri := racksByDC[dc][src.IntN(len(racksByDC[dc]))]
					tickets[pos] = ticket.Ticket{
						ID:    pos,
						Day:   weekdayTiltedDay(src, res.Days),
						Hour:  src.Float64() * 24,
						DC:    dc,
						Rack:  ri,
						Fault: pick(),
					}
					pos++
				}
			}
			addNonHW(nonHW[dc][0], func() ticket.Fault {
				return []ticket.Fault{ticket.Timeout, ticket.Deployment, ticket.Crash}[sw.Sample(src)]
			})
			addNonHW(nonHW[dc][1], func() ticket.Fault {
				return []ticket.Fault{ticket.PXEBoot, ticket.RebootFailure}[bt.Sample(src)]
			})
			addNonHW(nonHW[dc][2], func() ticket.Fault { return ticket.OtherFault })
		}
	}

	// False positives: phantom tickets the operators closed as
	// no-fault-found. They receive a random fault type and are marked.
	for i := 0; i < fp; i++ {
		dc := src.IntN(len(fleet.DCs))
		ri := racksByDC[dc][src.IntN(len(racksByDC[dc]))]
		tickets[pos] = ticket.Ticket{
			ID:            pos,
			Day:           src.IntN(res.Days),
			Hour:          src.Float64() * 24,
			DC:            dc,
			Rack:          ri,
			Fault:         ticket.Fault(src.IntN(int(ticket.NumFaults))),
			FalsePositive: true,
		}
		pos++
	}
	res.Tickets = tickets
	return nil
}

// repeatKey places one hardware ticket of a rack block in
// numberRepeats' order.
type repeatKey struct {
	comp   failure.Component
	device int
	day    int
	hour   float64
	pos    int
}

// numberRepeats sets Repeat, the RMA re-open counter of Section IV, on
// every hardware ticket of one rack's block: the ticket's occurrence
// number among its device's tickets in time order. One sort of the block
// on (component, device, day, hour, stream position) lays each device's
// tickets out in time order. A hardware ticket's ID is its stream
// position, so exact (day, hour) ties follow the audit's (day, hour, ID)
// rule. keys is scratch, returned for reuse by the next block.
func numberRepeats(block []ticket.Ticket, keys []repeatKey) []repeatKey {
	keys = keys[:0]
	for i := range block {
		t := &block[i]
		keys = append(keys, repeatKey{t.Component, t.Device, t.Day, t.Hour, i})
	}
	slices.SortFunc(keys, func(a, b repeatKey) int {
		switch {
		case a.comp != b.comp:
			return cmp.Compare(a.comp, b.comp)
		case a.device != b.device:
			return cmp.Compare(a.device, b.device)
		case a.day != b.day:
			return cmp.Compare(a.day, b.day)
		case a.hour != b.hour:
			return cmp.Compare(a.hour, b.hour)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	occ := 0
	for i, k := range keys {
		if i == 0 || k.comp != keys[i-1].comp || k.device != keys[i-1].device {
			occ = 0
		}
		occ++
		block[k.pos].Repeat = occ
	}
	return keys
}

// weekdayTiltedDay draws a day with the Fig 3 weekday bias via
// rejection sampling.
func weekdayTiltedDay(src *rng.Source, days int) int {
	for {
		d := src.IntN(days)
		// Weekdays accepted always; weekends at ~76% (0.95/1.25).
		if !isWeekendFast(d) || src.Float64() < 0.76 {
			return d
		}
	}
}

// isWeekendFast avoids time.Time allocation in the hot ticket loop.
// Day 0 (1 Jan 2012) was a Sunday.
func isWeekendFast(day int) bool {
	w := day % 7
	return w == 0 || w == 6
}
