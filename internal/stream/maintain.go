package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"rainshine/internal/calendar"
	"rainshine/internal/cart"
	"rainshine/internal/climate"
	"rainshine/internal/failure"
	"rainshine/internal/figures"
	"rainshine/internal/frame"
	"rainshine/internal/ingest"
	"rainshine/internal/simulate"
	"rainshine/internal/ticket"
)

// Config parameterizes a stream maintainer.
type Config struct {
	// Sim is the study configuration the stream was produced under. The
	// maintainer rebuilds the deterministic substrate (fleet, hazard)
	// from its seed; the telemetry arrives over the stream.
	Sim simulate.Config
	// Lateness is the out-of-order slack in days: day d stays open for
	// admissions until a record for day >= d+1+Lateness arrives. Zero
	// means 1; negative means 0 (strictly ordered streams).
	Lateness int
}

// refitEvery is the day-close cadence of live refits: a weekly model
// refresh, plus one at the final day close.
const refitEvery = 7

func (c Config) withDefaults() Config {
	switch {
	case c.Lateness == 0:
		c.Lateness = 1
	case c.Lateness < 0:
		c.Lateness = 0
	}
	return c
}

// DayClose summarizes one closed day — the delta DataQuality view a
// dashboard renders as the watermark advances.
type DayClose struct {
	Day           int   `json:"day"`
	Climate       int   `json:"climate_readings"`
	SensorMissing int   `json:"sensor_missing"`
	Events        int   `json:"events"`
	Tickets       int   `json:"tickets"`
	Late          int64 `json:"late_total"`
}

// Stats is the maintainer's observability surface (metricz rows, the
// /v1/stream long-poll body).
type Stats struct {
	// RecordsIn counts every record offered to Apply.
	RecordsIn int64 `json:"records_in"`
	// Watermark is the number of closed days: every day < Watermark is
	// committed and immutable.
	Watermark int `json:"watermark"`
	// MaxDaySeen is the highest in-window day observed so far; -1
	// before any telemetry.
	MaxDaySeen int `json:"max_day_seen"`
	// Lag is how many observed days are still open (MaxDaySeen+1 -
	// Watermark), the stream's open window.
	Lag int `json:"lag"`
	// Late counts records quarantined for arriving past the watermark.
	Late int64 `json:"late"`
	// Duplicates counts records dropped for re-delivering a committed
	// sequence number.
	Duplicates int64 `json:"duplicates"`
	// Sealed reports whether the stream has ended.
	Sealed bool `json:"sealed"`
	// Refits counts live model refits; LastRefit names the last
	// outcome ("initial", "stats", "subtrees", "full", or "" before
	// the first).
	Refits    int64  `json:"refits"`
	LastRefit string `json:"last_refit,omitempty"`
}

type seqEvent struct {
	seq int64
	ev  simulate.Event
}

type seqTicket struct {
	seq int64
	tk  ticket.Ticket
}

// Maintainer consumes stream records and keeps a live study current:
// telemetry for open days is buffered, the watermark closes days as
// event time advances (late and duplicate records quarantine through
// the ingest taxonomy), closed days feed an incremental CART refitter,
// and Finalize reconstructs the exact batch-order telemetry so the
// final study is byte-identical to the batch pipeline over the same
// data.
//
// Not safe for concurrent use; the serving tier wraps it in a follower
// with its own lock.
type Maintainer struct {
	cfg   Config
	shell *simulate.Result
	days  int
	racks int

	evOpen [][]seqEvent  // per open day
	tkOpen [][]seqTicket // per open day
	events []seqEvent    // committed
	tkts   []seqTicket   // committed (in-window and residual alike)

	seenEv map[int64]struct{}
	seenTk map[int64]struct{}

	climSet []bool // rack*days+day: reading arrived

	maxDay int // highest in-window day seen; -1 initially
	closed int // days [0, closed) are committed
	sealed bool

	stats   Stats
	quality ingest.Report // live stream-level accounting
	lastDC  DayClose

	refitter *cart.Refitter
}

// NewMaintainer builds the study substrate for cfg.Sim and an empty
// live state at watermark zero.
func NewMaintainer(cfg Config) (*Maintainer, error) {
	cfg = cfg.withDefaults()
	shell, err := simulate.Shell(cfg.Sim)
	if err != nil {
		return nil, err
	}
	days := shell.Days
	racks := len(shell.Fleet.Racks)
	m := &Maintainer{
		cfg:     cfg,
		shell:   shell,
		days:    days,
		racks:   racks,
		evOpen:  make([][]seqEvent, days),
		tkOpen:  make([][]seqTicket, days),
		seenEv:  make(map[int64]struct{}),
		seenTk:  make(map[int64]struct{}),
		climSet: make([]bool, racks*days),
		maxDay:  -1,
	}
	m.stats.MaxDaySeen = -1
	m.refitter, err = cart.NewRefitter("disk_failures", liveFeatures(), nil,
		cart.RefitConfig{Config: cart.Config{Workers: cfg.Sim.Workers}})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// liveFeatures is the compact rack-day schema the live tree uses:
// environmental factors plus the strongest baseline factors, all
// numeric so the refitter's presorted orders cover every feature.
func liveFeatures() []cart.Feature {
	return []cart.Feature{
		{Name: "temp", Kind: frame.Continuous},
		{Name: "rh", Kind: frame.Continuous},
		{Name: "age_months", Kind: frame.Continuous},
		{Name: "power_kw", Kind: frame.Continuous},
		{Name: "dow", Kind: frame.Ordinal, Levels: calendar.WeekdayNames},
	}
}

// Stats returns a copy of the live counters.
func (m *Maintainer) Stats() Stats {
	s := m.stats
	s.Watermark = m.closed
	s.MaxDaySeen = m.maxDay
	s.Lag = m.maxDay + 1 - m.closed
	if s.Lag < 0 {
		s.Lag = 0
	}
	s.Sealed = m.sealed
	return s
}

// Quality returns the live stream-level DataQuality accounting: late
// and duplicate quarantines plus per-day sensor coverage of closed
// days. (The final study's report comes from the canonical batch scrub
// at Finalize, not from this running view.)
func (m *Maintainer) Quality() ingest.Report { return m.quality }

// LastClose returns the most recent day-close delta.
func (m *Maintainer) LastClose() DayClose { return m.lastDC }

// Watermark returns the number of closed days.
func (m *Maintainer) Watermark() int { return m.closed }

// Sealed reports whether the stream has ended.
func (m *Maintainer) Sealed() bool { return m.sealed }

// LiveTree returns the incremental model over closed days (nil before
// the first refit). The live tree is a deterministic function of the
// record sequence, but it is an approximation for mid-stream queries:
// the final study's trees come from the canonical batch path at
// Finalize.
func (m *Maintainer) LiveTree() *cart.Tree {
	return m.refitter.Tree()
}

// Apply consumes one record. Structurally impossible records (rack or
// kind outside the study's shape) return an error wrapping
// ErrBadRecord; late and duplicate records are quarantined and counted,
// not errors.
func (m *Maintainer) Apply(ctx context.Context, rec *Record) error {
	m.stats.RecordsIn++
	switch rec.Kind {
	case KindSeal:
		if err := m.closeThrough(ctx, m.days); err != nil {
			return err
		}
		m.sealed = true
		return nil
	case KindClimate:
		if rec.Rack < 0 || int(rec.Rack) >= m.racks || rec.Day < 0 || int(rec.Day) >= m.days {
			return fmt.Errorf("%w: climate rack %d day %d outside study (racks %d, days %d)",
				ErrBadRecord, rec.Rack, rec.Day, m.racks, m.days)
		}
		if m.lateOrSealed(int(rec.Day)) {
			return nil
		}
		c := climate.Conditions{TempF: rec.TempF, RH: rec.RH}
		if err := m.shell.Climate.SetAt(int(rec.Rack), int(rec.Day), c); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		m.climSet[int(rec.Rack)*m.days+int(rec.Day)] = true
		return m.advance(ctx, int(rec.Day))
	case KindEvent:
		d := int(rec.Event.Day)
		if rec.Event.Rack < 0 || int(rec.Event.Rack) >= m.racks || d < 0 || d >= m.days {
			return fmt.Errorf("%w: event rack %d day %d outside study (racks %d, days %d)",
				ErrBadRecord, rec.Event.Rack, rec.Event.Day, m.racks, m.days)
		}
		if m.duplicate(m.seenEv, rec.Seq) || m.lateOrSealed(d) {
			return nil
		}
		m.seenEv[rec.Seq] = struct{}{}
		m.evOpen[d] = append(m.evOpen[d], seqEvent{rec.Seq, rec.Event})
		return m.advance(ctx, d)
	case KindTicket:
		m.quality.TicketsIn++
		if m.duplicate(m.seenTk, rec.Seq) {
			return nil
		}
		d := rec.Ticket.Day
		if d < 0 || d >= m.days {
			// Impossible dates (clock-skewed dirty tickets) bypass the
			// watermark — no day can admit or expire them — and commit
			// directly; the batch scrub at Finalize quarantines them
			// under its own taxonomy, exactly as in the batch study.
			m.seenTk[rec.Seq] = struct{}{}
			m.tkts = append(m.tkts, seqTicket{rec.Seq, rec.Ticket})
			m.quality.TicketsKept++
			return nil
		}
		if m.lateOrSealed(d) {
			return nil
		}
		m.seenTk[rec.Seq] = struct{}{}
		m.tkOpen[d] = append(m.tkOpen[d], seqTicket{rec.Seq, rec.Ticket})
		m.quality.TicketsKept++
		return m.advance(ctx, d)
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, rec.Kind)
	}
}

// duplicate quarantines a re-delivered sequence number.
func (m *Maintainer) duplicate(seen map[int64]struct{}, seq int64) bool {
	if _, ok := seen[seq]; !ok {
		return false
	}
	m.stats.Duplicates++
	m.quality.Quarantined[ingest.DuplicateEvent]++
	return true
}

// lateOrSealed quarantines a record for an already-closed day (or any
// record after the seal).
func (m *Maintainer) lateOrSealed(day int) bool {
	if !m.sealed && day >= m.closed {
		return false
	}
	m.stats.Late++
	m.quality.Quarantined[ingest.LateArrival]++
	m.lastDC.Late = m.stats.Late
	return true
}

// advance moves event time forward and closes every day the watermark
// has passed.
func (m *Maintainer) advance(ctx context.Context, day int) error {
	if day <= m.maxDay {
		return nil
	}
	m.maxDay = day
	return m.closeThrough(ctx, day-m.cfg.Lateness)
}

// closeThrough commits every open day below limit, in order.
func (m *Maintainer) closeThrough(ctx context.Context, limit int) error {
	if limit > m.days {
		limit = m.days
	}
	for d := m.closed; d < limit; d++ {
		if err := m.commitDay(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// commitDay closes one day: its buffered telemetry becomes immutable,
// the delta quality view updates, and the day's rack-day rows feed the
// live refitter (refitting on the configured cadence).
func (m *Maintainer) commitDay(ctx context.Context, d int) error {
	dc := DayClose{Day: d, Late: m.stats.Late}
	dc.Events = len(m.evOpen[d])
	dc.Tickets = len(m.tkOpen[d])
	m.events = append(m.events, m.evOpen[d]...)
	m.tkts = append(m.tkts, m.tkOpen[d]...)
	m.evOpen[d] = nil
	m.tkOpen[d] = nil

	for ri := 0; ri < m.racks; ri++ {
		m.quality.SensorSamples++
		if m.climSet[ri*m.days+d] {
			m.quality.SensorNative++
			dc.Climate++
		} else {
			m.quality.SensorMissing++
			m.quality.Quarantined[ingest.SensorGap]++
			dc.SensorMissing++
		}
	}
	m.closed = d + 1
	m.lastDC = dc

	if err := m.appendLiveRows(d, dc.Events); err != nil {
		return err
	}
	if (m.closed%refitEvery == 0 || m.closed == m.days) && m.refitter.Rows() > 0 {
		rep, err := m.refitter.Refit(ctx)
		if err != nil {
			return err
		}
		m.stats.Refits++
		m.stats.LastRefit = rep.Outcome.String()
	}
	return nil
}

// appendLiveRows adds day d's rack-day rows (commissioned racks only)
// to the refitter's training set. nEvents is the count of events just
// committed for the day — they sit at the tail of m.events.
func (m *Maintainer) appendLiveRows(d, nEvents int) error {
	diskByRack := make(map[int32]float64, nEvents)
	for _, se := range m.events[len(m.events)-nEvents:] {
		if failure.Component(se.ev.Component) == failure.Disk {
			diskByRack[se.ev.Rack]++
		}
	}
	var rows [][]float64
	var ys []float64
	dow := float64(calendar.Weekday(d))
	for ri := 0; ri < m.racks; ri++ {
		rack := &m.shell.Fleet.Racks[ri]
		if d < rack.CommissionDay {
			continue
		}
		temp, rh := math.NaN(), math.NaN()
		if m.climSet[ri*m.days+d] {
			c, err := m.shell.Climate.At(ri, d)
			if err != nil {
				return err
			}
			temp, rh = c.TempF, c.RH
		}
		rows = append(rows, []float64{temp, rh, rack.AgeMonths(d), rack.PowerKW, dow})
		ys = append(ys, diskByRack[int32(ri)])
	}
	return m.refitter.Append(rows, ys)
}

// Finalize closes any remaining days and reconstructs the canonical
// batch study: committed events and tickets are sorted back into their
// batch slice order and handed to the exact batch analysis path, so
// the returned study is byte-identical to the batch study over the
// same data. The maintainer must not be used after Finalize.
func (m *Maintainer) Finalize(ctx context.Context) (*figures.Data, error) {
	if !m.sealed {
		if err := m.closeThrough(ctx, m.days); err != nil {
			return nil, err
		}
		m.sealed = true
	}
	sort.Slice(m.events, func(a, b int) bool { return m.events[a].seq < m.events[b].seq })
	sort.Slice(m.tkts, func(a, b int) bool { return m.tkts[a].seq < m.tkts[b].seq })
	res := m.shell
	res.Events = make([]simulate.Event, len(m.events))
	for i, se := range m.events {
		res.Events[i] = se.ev
	}
	res.Tickets = make([]ticket.Ticket, len(m.tkts))
	for i, st := range m.tkts {
		res.Tickets[i] = st.tk
	}
	if res.Cfg.Faults != nil && res.Cfg.Faults.Enabled() {
		rep, err := ingest.Scrub(res)
		if err != nil {
			return nil, err
		}
		return figures.FromWithQuality(res, rep), nil
	}
	return figures.From(res), nil
}

// Replay drives a maintainer from a log reader until the seal (or
// clean end of log), returning the maintainer ready to Finalize.
func Replay(ctx context.Context, rd *Reader, cfg Config) (*Maintainer, error) {
	m, err := NewMaintainer(cfg)
	if err != nil {
		return nil, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return m, nil
			}
			return nil, err
		}
		if err := m.Apply(ctx, &rec); err != nil {
			return nil, err
		}
		if rec.Kind == KindSeal {
			return m, nil
		}
	}
}
