package ingest

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/ticket"
)

func TestClassTaxonomy(t *testing.T) {
	seenErr := map[error]bool{}
	seenName := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
		if c.Err() == nil {
			t.Errorf("class %s has no sentinel", c)
		}
		if seenErr[c.Err()] || seenName[c.String()] {
			t.Errorf("class %s reuses a sentinel or name", c)
		}
		seenErr[c.Err()] = true
		seenName[c.String()] = true
	}
	if Class(-1).Err() == nil || Class(NumClasses).String() != "unknown" {
		t.Error("out-of-range classes not handled")
	}
}

func TestValidateTicketSentinels(t *testing.T) {
	b := TicketBounds{Days: 100, Racks: 50, DCs: 2}
	good := ticket.Ticket{Day: 10, Hour: 3.5, Rack: 7, Fault: ticket.DiskFailure, RepairHours: 2}
	if err := ValidateTicket(&good, b); err != nil {
		t.Fatalf("valid ticket rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ticket.Ticket)
		want error
	}{
		{"day past window", func(tk *ticket.Ticket) { tk.Day = 100 }, ErrTicketOutOfRange},
		{"negative day", func(tk *ticket.Ticket) { tk.Day = -1 }, ErrTicketOutOfRange},
		{"rack past fleet", func(tk *ticket.Ticket) { tk.Rack = 50 }, ErrTicketOutOfRange},
		{"dc past fleet", func(tk *ticket.Ticket) { tk.DC = 2 }, ErrTicketOutOfRange},
		{"hour 24", func(tk *ticket.Ticket) { tk.Hour = 24 }, ErrTicketBadHour},
		{"NaN hour", func(tk *ticket.Ticket) { tk.Hour = math.NaN() }, ErrTicketBadHour},
		{"negative repair", func(tk *ticket.Ticket) { tk.RepairHours = -1 }, ErrTicketBadRepair},
		{"Inf repair", func(tk *ticket.Ticket) { tk.RepairHours = math.Inf(1) }, ErrTicketBadRepair},
		{"unknown fault", func(tk *ticket.Ticket) { tk.Fault = ticket.NumFaults }, ErrTicketUnknownFault},
	}
	for _, tc := range cases {
		tk := good
		tc.mut(&tk)
		if err := ValidateTicket(&tk, b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Zero bounds disable the range checks (external streams).
	far := good
	far.Day = 10_000
	if err := ValidateTicket(&far, TicketBounds{}); err != nil {
		t.Errorf("unbounded validation rejected far day: %v", err)
	}
}

func TestScrubTicketsDedupAndAudit(t *testing.T) {
	orig := ticket.Ticket{ID: 1, Day: 5, Hour: 2, Rack: 3, Fault: ticket.DiskFailure, RepairHours: 4, Repeat: 1}
	dup := orig
	dup.ID = 2 // identical content, fresh ID: a double-submitted RMA
	distinct := orig
	distinct.ID = 3
	distinct.Hour = 9 // different content: kept
	in := []ticket.Ticket{orig, dup, distinct}

	var rep Report
	out := ScrubTickets(in, TicketBounds{Days: 100}, &rep, true)
	if len(out) != 2 {
		t.Fatalf("kept %d tickets, want 2", len(out))
	}
	if rep.Quarantined[DuplicateTicket] != 1 {
		t.Errorf("duplicate count = %d", rep.Quarantined[DuplicateTicket])
	}
	if rep.TicketsIn != 3 || rep.TicketsKept != 2 {
		t.Errorf("in/kept = %d/%d", rep.TicketsIn, rep.TicketsKept)
	}
	if got := rep.TicketCoverage(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("ticket coverage = %v", got)
	}

	// Audit mode counts the same defects but returns the input as is.
	var audit Report
	got := ScrubTickets(in, TicketBounds{Days: 100}, &audit, false)
	if !reflect.DeepEqual(got, in) {
		t.Error("audit mode modified the stream")
	}
	if audit.Quarantined[DuplicateTicket] != 1 {
		t.Error("audit mode missed the duplicate")
	}
}

func TestScrubTicketsRepairsRepeatInversion(t *testing.T) {
	// One device, three RMAs. Clock skew moved the second occurrence
	// before the first: counters now disagree with time order.
	mk := func(id, day, repeat int) ticket.Ticket {
		return ticket.Ticket{ID: id, Day: day, Hour: 1, Rack: 2, Fault: ticket.DiskFailure,
			RepairHours: 3, Device: 4, Repeat: repeat}
	}
	in := []ticket.Ticket{mk(1, 20, 2), mk(2, 30, 1), mk(3, 40, 3)}
	var rep Report
	out := ScrubTickets(in, TicketBounds{Days: 100}, &rep, true)
	if rep.Repaired[RepeatInversion] != 2 {
		t.Errorf("repairs = %d, want 2 (both inverted counters)", rep.Repaired[RepeatInversion])
	}
	for _, tk := range out {
		want := map[int]int{20: 1, 30: 2, 40: 3}[tk.Day]
		if tk.Repeat != want {
			t.Errorf("day %d repeat = %d, want %d", tk.Day, tk.Repeat, want)
		}
	}
	// A clean stream is untouched.
	var clean Report
	ScrubTickets(out, TicketBounds{Days: 100}, &clean, true)
	if clean.Repaired[RepeatInversion] != 0 {
		t.Error("repaired stream still reports inversions")
	}
}

func TestImpute(t *testing.T) {
	xs := []float64{0, 0, 10, 0, 0, 0, 30, 0}
	trusted := []bool{false, false, true, false, false, false, true, false}
	impute(xs, trusted)
	want := []float64{10, 10, 10, 15, 20, 25, 30, 30}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("impute[%d] = %v, want %v (full: %v)", i, xs[i], want[i], xs)
		}
	}
}

func TestSanitizeFrame(t *testing.T) {
	f := frame.New(4)
	if err := f.AddContinuous("temp", []float64{70, math.NaN(), 72, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("rh", []float64{30, 31, 32, 33}); err != nil {
		t.Fatal(err)
	}
	var rep Report
	q, err := SanitizeFrame(f, []string{"temp", "rh"}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if q.MissingCells["temp"] != 2 || q.InfCells != 1 {
		t.Errorf("quality = %+v", q)
	}
	if rep.Quarantined[NonFiniteCell] != 2 {
		t.Errorf("non-finite count = %d", rep.Quarantined[NonFiniteCell])
	}
	c, err := f.Col("temp")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(c.Data[3]) {
		t.Error("Inf cell not normalized to NaN")
	}
	// Quarantined cells carry the missing sentinel downstream layers
	// test.
	if got := c.MissingCount(); got != 2 {
		t.Errorf("temp missing count = %d, want 2", got)
	}
	for i, want := range []bool{false, true, false, true} {
		if c.Missing(i) != want {
			t.Errorf("temp Missing(%d) = %v, want %v", i, c.Missing(i), want)
		}
	}
	if rh, _ := f.Col("rh"); rh.MissingCount() != 0 {
		t.Error("undamaged column gained missing cells")
	}
	// Coverage: 2 missing of 4 cells in the one damaged column of two.
	if got := q.Coverage(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("coverage = %v", got)
	}

	// Missing required column is a typed failure.
	_, err = SanitizeFrame(f, []string{"temp", "disk_failures"}, &rep)
	if !errors.Is(err, ErrMissingColumn) {
		t.Errorf("missing column error = %v", err)
	}
	if rep.Quarantined[MissingColumn] != 1 {
		t.Errorf("missing column count = %d", rep.Quarantined[MissingColumn])
	}
}
