package export

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"rainshine/internal/failure"
	"rainshine/internal/frame"
	"rainshine/internal/ticket"
)

// ReadFrameCSV parses a CSV (as written by FrameCSV, or assembled from
// an operator's own telemetry) into a frame. Column kinds are inferred:
// a column whose every value parses as a float becomes continuous,
// anything else becomes nominal with levels built from the distinct
// strings. Empty cells and the conventional "NA" token are missing:
// they become the column's missing sentinel without voting on the
// column's kind (a column of nothing but them infers continuous, all
// missing). This is the bring-your-own-data entry point: a real
// failure dataset in this shape can be fed straight into the MF
// analyses.
func ReadFrameCSV(r io.Reader) (*frame.Frame, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("export: reading csv: %w", err)
	}
	if len(records) < 2 {
		return nil, errors.New("export: csv needs a header and at least one row")
	}
	for _, rec := range records {
		for i, v := range rec {
			if strings.Contains(v, "\r\n") {
				rec[i] = crBeforeLF.ReplaceAllString(v, "\n")
			}
		}
	}
	header := records[0]
	rows := records[1:]
	nCols := len(header)
	for i, rec := range rows {
		if len(rec) != nCols {
			return nil, fmt.Errorf("export: row %d has %d fields, header has %d", i+1, len(rec), nCols)
		}
	}
	f := frame.New(len(rows))
	for c, name := range header {
		if name == "" {
			return nil, fmt.Errorf("export: empty column name at position %d", c)
		}
		values := make([]string, len(rows))
		var nullRows []int
		numeric := true
		floats := make([]float64, len(rows))
		for r, rec := range rows {
			values[r] = rec[c]
			if rec[c] == "" || rec[c] == "NA" {
				nullRows = append(nullRows, r)
				floats[r] = math.NaN()
				continue
			}
			if numeric {
				v, err := strconv.ParseFloat(rec[c], 64)
				if err != nil {
					numeric = false
				} else {
					floats[r] = v
				}
			}
		}
		if numeric {
			if err := f.AddContinuous(name, floats); err != nil {
				return nil, err
			}
			markNulls(f.MustCol(name), nullRows)
			continue
		}
		// Nominal: levels come from the distinct non-empty strings, in
		// sorted order; null rows get a placeholder code that SetMissing
		// immediately overwrites.
		set := map[string]bool{}
		for _, v := range values {
			if v != "" {
				set[v] = true
			}
		}
		levels := make([]string, 0, len(set))
		for l := range set {
			levels = append(levels, l)
		}
		sort.Strings(levels)
		lookup := make(map[string]int, len(levels))
		for i, l := range levels {
			lookup[l] = i
		}
		codes := make([]int, len(rows))
		for r, v := range values {
			if v != "" {
				codes[r] = lookup[v]
			}
		}
		if err := f.AddNominalInts(name, codes, levels); err != nil {
			return nil, err
		}
		markNulls(f.MustCol(name), nullRows)
	}
	return f, nil
}

// crBeforeLF matches the carriage returns before a newline inside a
// field. encoding/csv's Reader folds "\r\n" to "\n" even in a quoted
// field while its Writer writes a "\r" as is, so a field that still
// holds "\r\n" after reading (the input had "\r\r\n") would read back
// different from how FrameCSV writes it. Dropping them makes every
// accepted field a fixed point of the FrameCSV round trip.
var crBeforeLF = regexp.MustCompile("\r+\n")

// markNulls writes the missing sentinel into the given rows of a freshly
// built column. The column belongs to the frame this importer
// constructed, so the in-place marking is on owned storage.
func markNulls(c *frame.Column, rows []int) {
	for _, r := range rows {
		c.SetMissing(r)
	}
}

// ticketColumns is the TicketsCSV schema, in writer order.
var ticketColumns = []string{"id", "date", "day", "hour", "dc", "rack", "category", "fault", "false_positive", "repair_hours", "device", "repeat"}

// parseFault reverses Fault.String.
func parseFault(s string) (ticket.Fault, error) {
	for f := ticket.Fault(0); f < ticket.NumFaults; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("export: unknown fault %q", s)
}

// componentOfFault reconstructs the failed component class from the
// fault type: exact for disk and memory tickets; power/server/network
// collapse onto the shared server-other class (the same mapping ticket
// synthesis used, so nothing is lost). Non-hardware faults carry no
// component and get the zero value, as the writer's source did.
func componentOfFault(f ticket.Fault) failure.Component {
	switch f {
	case ticket.DiskFailure:
		return failure.Disk
	case ticket.MemoryFailure:
		return failure.DIMM
	case ticket.PowerFailure, ticket.ServerFailure, ticket.NetworkFailure:
		return failure.ServerOther
	default:
		return failure.Component(0)
	}
}

// ReadTicketsCSV parses a ticket CSV (as written by TicketsCSV, or an
// operator's own RMA feed in that shape) back into a ticket stream.
// The date and category columns are derived fields and are ignored on
// read — day and fault are authoritative. No validation beyond field
// syntax happens here; feed the result through ingest.ScrubTickets to
// quarantine semantically bad records.
func ReadTicketsCSV(r io.Reader) ([]ticket.Ticket, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("export: reading ticket header: %w", err)
	}
	idx := map[string]int{}
	for i, name := range header {
		idx[name] = i
	}
	for _, name := range ticketColumns {
		if _, ok := idx[name]; !ok {
			return nil, fmt.Errorf("export: ticket csv missing column %q", name)
		}
	}
	field := func(rec []string, name string) string { return rec[idx[name]] }
	var out []ticket.Ticket
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("export: reading ticket row %d: %w", row, err)
		}
		if len(rec) < len(header) {
			return nil, fmt.Errorf("export: ticket row %d has %d fields, header has %d", row, len(rec), len(header))
		}
		var t ticket.Ticket
		if t.ID, err = strconv.Atoi(field(rec, "id")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d id: %w", row, err)
		}
		if t.Day, err = strconv.Atoi(field(rec, "day")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d day: %w", row, err)
		}
		if t.Hour, err = strconv.ParseFloat(field(rec, "hour"), 64); err != nil {
			return nil, fmt.Errorf("export: ticket row %d hour: %w", row, err)
		}
		dcs, ok := strings.CutPrefix(field(rec, "dc"), "DC")
		if !ok {
			return nil, fmt.Errorf("export: ticket row %d dc %q: want DC<n>", row, field(rec, "dc"))
		}
		dc, err := strconv.Atoi(dcs)
		if err != nil {
			return nil, fmt.Errorf("export: ticket row %d dc: %w", row, err)
		}
		t.DC = dc - 1
		if t.Rack, err = strconv.Atoi(field(rec, "rack")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d rack: %w", row, err)
		}
		if t.Fault, err = parseFault(field(rec, "fault")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d: %w", row, err)
		}
		if t.FalsePositive, err = strconv.ParseBool(field(rec, "false_positive")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d false_positive: %w", row, err)
		}
		if t.RepairHours, err = strconv.ParseFloat(field(rec, "repair_hours"), 64); err != nil {
			return nil, fmt.Errorf("export: ticket row %d repair_hours: %w", row, err)
		}
		if t.Device, err = strconv.Atoi(field(rec, "device")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d device: %w", row, err)
		}
		if t.Repeat, err = strconv.Atoi(field(rec, "repeat")); err != nil {
			return nil, fmt.Errorf("export: ticket row %d repeat: %w", row, err)
		}
		t.Component = componentOfFault(t.Fault)
		out = append(out, t)
	}
	return out, nil
}
