// Package ingest is the validation / quarantine / repair layer between
// recorded telemetry and the analyses. The paper's central premise is
// that Q1-Q3 decisions must be drawn from messy production data — RMA
// streams with duplicates and impossible dates, BMS feeds with dropouts
// and wedged sensors, inventories with missing fields — and the related
// failure-study literature (Meza; the Cloud Uptime Archive) is explicit
// that scrubbing and coverage accounting dominate real analysis work.
//
// The pipeline has three stages per stream:
//
//	validate  — classify each record against a typed defect taxonomy
//	quarantine — records that cannot be trusted are dropped and counted
//	repair    — records that can be fixed deterministically are fixed
//	            (ticket dedup, repeat-order restoration, sensor gap
//	            imputation), and counted separately
//
// Every decision lands in a DataQuality Report, so an analysis never
// silently runs on less data than the operator thinks it has: the
// facade surfaces the report and the Q1-Q3 reports carry an effective
// coverage figure instead of failing.
package ingest

import "errors"

// Class identifies one defect class of the taxonomy. Classes are stable
// identifiers: reports key on them and tests assert on them.
type Class int

// Defect classes, grouped by stream: tickets, sensors, frames.
const (
	// DuplicateTicket is a record identical to an earlier one in every
	// field but the ID (a double-submitted RMA).
	DuplicateTicket Class = iota
	// TicketOutOfRange is a ticket whose day, rack, or DC lies outside
	// the observation window or fleet (clock skew past the window edge,
	// decommissioned assets, fat-fingered IDs).
	TicketOutOfRange
	// TicketBadHour is an onset hour outside [0, 24).
	TicketBadHour
	// TicketBadRepair is a negative or non-finite repair duration.
	TicketBadRepair
	// TicketUnknownFault is a fault code outside the taxonomy.
	TicketUnknownFault
	// RepeatInversion is a hardware ticket whose RMA re-open counter
	// disagrees with time order (a skewed timestamp inside the window).
	RepeatInversion
	// SensorGap is a rack-day with no sensor reading (BMS dropout).
	SensorGap
	// SensorStuck is a rack-day inside a stuck-at run: the sensor
	// repeating one reading verbatim for implausibly long.
	SensorStuck
	// NonFiniteCell is a NaN/Inf cell in an ingested frame.
	NonFiniteCell
	// MissingColumn is a required factor column absent from an ingested
	// frame.
	MissingColumn
	// LateArrival is a stream record that arrived after the watermark
	// closed its day: the day's books are already committed, so the
	// record is quarantined rather than silently rewriting history.
	LateArrival
	// DuplicateEvent is a stream record re-delivered with a sequence
	// number the maintainer has already committed (at-least-once
	// transports retrying a send).
	DuplicateEvent
	// NumClasses bounds the taxonomy.
	NumClasses
)

// Sentinel errors, one per defect class; classification and tests use
// errors.Is against these.
var (
	ErrDuplicateTicket    = errors.New("ingest: duplicate ticket")
	ErrTicketOutOfRange   = errors.New("ingest: ticket out of range")
	ErrTicketBadHour      = errors.New("ingest: ticket hour out of range")
	ErrTicketBadRepair    = errors.New("ingest: bad repair duration")
	ErrTicketUnknownFault = errors.New("ingest: unknown fault code")
	ErrRepeatInversion    = errors.New("ingest: repeat counter out of order")
	ErrSensorGap          = errors.New("ingest: sensor dropout")
	ErrSensorStuck        = errors.New("ingest: stuck sensor")
	ErrNonFiniteCell      = errors.New("ingest: non-finite cell")
	ErrMissingColumn      = errors.New("ingest: missing column")
	ErrLateArrival        = errors.New("ingest: late arrival past watermark")
	ErrDuplicateEvent     = errors.New("ingest: duplicate stream event")
)

var classErrs = [NumClasses]error{
	ErrDuplicateTicket, ErrTicketOutOfRange, ErrTicketBadHour,
	ErrTicketBadRepair, ErrTicketUnknownFault, ErrRepeatInversion,
	ErrSensorGap, ErrSensorStuck, ErrNonFiniteCell, ErrMissingColumn,
	ErrLateArrival, ErrDuplicateEvent,
}

var classNames = [NumClasses]string{
	"duplicate-ticket", "ticket-out-of-range", "ticket-bad-hour",
	"ticket-bad-repair", "ticket-unknown-fault", "repeat-inversion",
	"sensor-gap", "sensor-stuck", "non-finite-cell", "missing-column",
	"late-arrival", "duplicate-event",
}

// Err returns the class's sentinel error.
func (c Class) Err() error {
	if c < 0 || c >= NumClasses {
		return errors.New("ingest: unknown defect class")
	}
	return classErrs[c]
}

// String names the class as reports print it.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "unknown"
	}
	return classNames[c]
}

// Report is the DataQuality accounting of one scrub pass: what came in,
// what was quarantined per defect class, what was repaired, and how much
// sensor coverage survives. The zero value reads as a clean pass over
// zero records.
type Report struct {
	// TicketsIn and TicketsKept bracket the ticket stream: records
	// received vs records surviving quarantine and dedup.
	TicketsIn   int
	TicketsKept int
	// Quarantined counts records dropped, per defect class.
	Quarantined [NumClasses]int
	// Repaired counts records fixed in place, per defect class
	// (deduped tickets count under Quarantined, restored repeat
	// counters and imputed sensor readings under Repaired).
	Repaired [NumClasses]int
	// SensorSamples is the total rack-day sensor readings examined;
	// SensorNative of them were observed directly, SensorImputed were
	// reconstructed, SensorMissing remain unusable.
	SensorSamples int
	SensorNative  int
	SensorImputed int
	SensorMissing int
}

// TicketCoverage is the fraction of received tickets kept.
func (r *Report) TicketCoverage() float64 {
	if r.TicketsIn == 0 {
		return 1
	}
	return float64(r.TicketsKept) / float64(r.TicketsIn)
}

// SensorCoverage is the fraction of rack-day readings usable after
// repair (native plus imputed).
func (r *Report) SensorCoverage() float64 {
	if r.SensorSamples == 0 {
		return 1
	}
	return float64(r.SensorNative+r.SensorImputed) / float64(r.SensorSamples)
}

// Coverage is the effective data coverage of downstream analyses: the
// smaller of ticket and usable-sensor coverage.
func (r *Report) Coverage() float64 {
	tc, sc := r.TicketCoverage(), r.SensorCoverage()
	if tc < sc {
		return tc
	}
	return sc
}

// Defects totals quarantined and repaired records across all classes.
func (r *Report) Defects() int {
	n := 0
	for c := Class(0); c < NumClasses; c++ {
		n += r.Quarantined[c] + r.Repaired[c]
	}
	return n
}

// Clean reports whether the pass found nothing to quarantine or repair.
func (r *Report) Clean() bool { return r.Defects() == 0 }
