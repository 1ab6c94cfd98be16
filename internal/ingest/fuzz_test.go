package ingest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rainshine/internal/export"
	"rainshine/internal/ticket"
)

// FuzzIngestTickets drives arbitrary bytes through the external ticket
// path: CSV parse, then scrub. Whatever the bytes, the pipeline must
// not panic, and any stream the parser accepts must come out of the
// scrubber satisfying the report invariants and matching the reference
// scrub, under fleet bounds and under zero bounds.
func FuzzIngestTickets(f *testing.F) {
	var seed bytes.Buffer
	if err := export.TicketsCSV(&seed, []ticket.Ticket{
		{ID: 1, Day: 5, Hour: 2.25, Rack: 3, Fault: ticket.DiskFailure, RepairHours: 4, Repeat: 1},
		{ID: 2, Day: 5, Hour: 2.25, Rack: 3, Fault: ticket.DiskFailure, RepairHours: 4, Repeat: 1},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("id,date,day,hour,dc,rack,category,fault,false_positive,repair_hours,device,repeat\n")
	f.Add("id,date,day,hour,dc,rack,category,fault,false_positive,repair_hours,device,repeat\n" +
		"9,2016-01-01,-3,NaN,DC1,1,Hardware,Disk failure,false,+Inf,0,1\n")
	f.Add("not,a,ticket\n1,2,3\n")
	f.Fuzz(func(t *testing.T, in string) {
		ts, err := export.ReadTicketsCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		// Fleet bounds, and the zero bounds an external stream without a
		// known fleet is scrubbed under.
		for _, b := range []TicketBounds{{Days: 1000, Racks: 1000, DCs: 2}, {}} {
			checkScrubInvariants(t, ts, b)
			checkScrubMatchesReference(t, fmt.Sprintf("bounds %+v", b), ts, b)
		}
	})
}

// checkScrubInvariants asserts the report invariants of one repairing
// scrub and its idempotence.
func checkScrubInvariants(t *testing.T, ts []ticket.Ticket, b TicketBounds) {
	t.Helper()
	var rep Report
	out := ScrubTickets(ts, b, &rep, true)
	if len(out) > len(ts) {
		t.Fatalf("scrub grew the stream: %d -> %d", len(ts), len(out))
	}
	if rep.TicketsIn != len(ts) || rep.TicketsKept != len(out) {
		t.Fatalf("report miscounts: in %d/%d kept %d/%d", rep.TicketsIn, len(ts), rep.TicketsKept, len(out))
	}
	if c := rep.TicketCoverage(); c < 0 || c > 1 {
		t.Fatalf("ticket coverage %v outside [0,1]", c)
	}
	// Everything dropped must be accounted to a ticket class.
	dropped := 0
	for _, cl := range []Class{DuplicateTicket, TicketOutOfRange, TicketBadHour, TicketBadRepair, TicketUnknownFault} {
		dropped += rep.Quarantined[cl]
	}
	if dropped != len(ts)-len(out) {
		t.Fatalf("quarantine ledger %d != dropped %d", dropped, len(ts)-len(out))
	}
	// A scrubbed stream must re-scrub as defect-free on the ticket
	// classes (idempotence).
	var again Report
	out2 := ScrubTickets(out, b, &again, true)
	if len(out2) != len(out) || !again.Clean() {
		t.Fatalf("scrub not idempotent: %d -> %d, defects %d", len(out), len(out2), again.Defects())
	}
}
