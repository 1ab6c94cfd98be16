// Package export serializes the synthetic telemetry — RMA tickets,
// hardware events, and the rack-day analysis table — to CSV and JSON
// Lines, so the traces can be consumed outside this repository (R,
// pandas, spreadsheets). This stands in for the data-release a
// measurement paper cannot make: the generator plus a seed *is* the
// dataset.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"rainshine/internal/calendar"
	"rainshine/internal/frame"
	"rainshine/internal/simulate"
	"rainshine/internal/ticket"
)

// TicketsCSV writes the ticket stream as CSV with a header row.
func TicketsCSV(w io.Writer, tickets []ticket.Ticket) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "date", "day", "hour", "dc", "rack", "category", "fault", "false_positive", "repair_hours", "device", "repeat"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("export: writing header: %w", err)
	}
	for _, t := range tickets {
		rec := []string{
			strconv.Itoa(t.ID),
			calendar.Date(t.Day).Format("2006-01-02"),
			strconv.Itoa(t.Day),
			strconv.FormatFloat(t.Hour, 'f', 2, 64),
			fmt.Sprintf("DC%d", t.DC+1),
			strconv.Itoa(t.Rack),
			t.Category().String(),
			t.Fault.String(),
			strconv.FormatBool(t.FalsePositive),
			strconv.FormatFloat(t.RepairHours, 'f', 2, 64),
			strconv.Itoa(t.Device),
			strconv.Itoa(t.Repeat),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("export: writing ticket %d: %w", t.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// eventJSON is the JSONL schema for one hardware event.
type eventJSON struct {
	Rack        int     `json:"rack"`
	Date        string  `json:"date"`
	Day         int     `json:"day"`
	Hour        float64 `json:"hour"`
	Component   string  `json:"component"`
	RepairHours float64 `json:"repair_hours"`
	Shock       bool    `json:"shock"`
}

// EventsJSONL writes hardware failure events as JSON Lines.
func EventsJSONL(w io.Writer, events []simulate.Event) error {
	enc := json.NewEncoder(w)
	for i, ev := range events {
		rec := eventJSON{
			Rack:        int(ev.Rack),
			Date:        calendar.Date(int(ev.Day)).Format("2006-01-02"),
			Day:         int(ev.Day),
			Hour:        ev.Hour,
			Component:   ev.Component.String(),
			RepairHours: ev.RepairHours,
			Shock:       ev.Shock,
		}
		// Event hours come from the simulator's bounded day fractions
		// and repair-time draws; they are finite by construction.
		//lint:allow nansafe simulator event hours are finite by construction
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("export: encoding event %d: %w", i, err)
		}
	}
	return nil
}

// FrameCSV writes any frame as CSV, rendering categorical columns as
// their level labels. Missing cells (see frame.Column.Missing) render
// as "NaN" in continuous columns and as "NA" in categorical ones, the
// forms ReadFrameCSV reads back as missing. ("NA" rather than an empty
// field: a lone empty cell would serialize a single-column frame's row
// as a blank line, which encoding/csv readers silently drop.)
func FrameCSV(w io.Writer, f *frame.Frame) error {
	cw := csv.NewWriter(w)
	names := f.Names()
	if err := cw.Write(names); err != nil {
		return fmt.Errorf("export: writing header: %w", err)
	}
	cols := make([]*frame.Column, len(names))
	for i, n := range names {
		c, err := f.Col(n)
		if err != nil {
			return err
		}
		cols[i] = c
	}
	rec := make([]string, len(cols))
	for r := 0; r < f.NumRows(); r++ {
		for i, c := range cols {
			switch {
			case c.Kind == frame.Continuous && c.Missing(r):
				rec[i] = "NaN"
			case c.Kind == frame.Continuous:
				rec[i] = strconv.FormatFloat(c.Data[r], 'g', -1, 64)
			case c.Missing(r):
				rec[i] = "NA"
			default:
				rec[i] = c.LevelOf(c.Float(r))
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("export: writing row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
