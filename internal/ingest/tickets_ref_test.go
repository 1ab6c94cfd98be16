package ingest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"rainshine/internal/failure"
	"rainshine/internal/rng"
	"rainshine/internal/ticket"
)

// refScrubTickets is the map-based ticket stage the flat-table audit
// replaced, kept verbatim as the differential oracle: dedup keys a Go
// map on the whole ticket with its ID zeroed, and repeat counters are
// reassigned per (rack, component, device) group by a stable sort on
// (day, hour, ID) over the group's survivors in stream order.
func refScrubTickets(ts []ticket.Ticket, b TicketBounds, rep *Report, repair bool) []ticket.Ticket {
	rep.TicketsIn += len(ts)
	kept := make([]ticket.Ticket, 0, len(ts))
	seen := make(map[ticket.Ticket]bool, len(ts))
	for _, t := range ts {
		if err := ValidateTicket(&t, b); err != nil {
			rep.Quarantined[classOfTicketErr(err)]++
			continue
		}
		key := t
		key.ID = 0
		if seen[key] {
			rep.Quarantined[DuplicateTicket]++
			continue
		}
		seen[key] = true
		kept = append(kept, t)
	}
	refRepairRepeats(kept, rep)
	rep.TicketsKept += len(kept)
	if !repair {
		return ts
	}
	return kept
}

func refRepairRepeats(ts []ticket.Ticket, rep *Report) {
	type deviceKey struct {
		rack   int
		comp   failure.Component
		device int
	}
	groups := map[deviceKey][]int{}
	for i := range ts {
		if ts[i].Repeat == 0 {
			continue
		}
		k := deviceKey{ts[i].Rack, ts[i].Component, ts[i].Device}
		groups[k] = append(groups[k], i)
	}
	for _, idxs := range groups {
		sort.SliceStable(idxs, func(a, b int) bool {
			ta, tb := &ts[idxs[a]], &ts[idxs[b]]
			if ta.Day != tb.Day {
				return ta.Day < tb.Day
			}
			if ta.Hour != tb.Hour {
				return ta.Hour < tb.Hour
			}
			return ta.ID < tb.ID
		})
		for occ, i := range idxs {
			if ts[i].Repeat != occ+1 {
				rep.Repaired[RepeatInversion]++
				ts[i].Repeat = occ + 1
			}
		}
	}
}

// sameTicket compares two tickets field by field, floats by their bit
// patterns, so −0 differs from +0 and a NaN equals only the same NaN.
func sameTicket(a, b *ticket.Ticket) bool {
	return a.ID == b.ID && a.Day == b.Day && math.Float64bits(a.Hour) == math.Float64bits(b.Hour) &&
		a.DC == b.DC && a.Rack == b.Rack && a.Fault == b.Fault && a.FalsePositive == b.FalsePositive &&
		math.Float64bits(a.RepairHours) == math.Float64bits(b.RepairHours) &&
		a.Component == b.Component && a.Device == b.Device && a.Repeat == b.Repeat
}

// sameStream reports the first index where two streams differ, or -1.
func sameStream(a, b []ticket.Ticket) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if !sameTicket(&a[i], &b[i]) {
			return i
		}
	}
	return -1
}

// dirtyTicketStream draws a small ticket stream dense in every case the
// audit must agree with its reference on: exact duplicates under fresh
// or repeated IDs, duplicates that differ only in the sign of a zero,
// ties on (day, hour, ID) inside a device group, out-of-range cells,
// NaN/±Inf hours and repair times, unknown fault codes, and repeat
// counters out of time order. About one field in eight is drawn
// invalid, so most records reach dedup under fleet bounds too.
func dirtyTicketStream(src *rng.Source, n int) []ticket.Ticket {
	negZero := math.Copysign(0, -1)
	// draw picks from valid, or one time in eight from invalid.
	draw := func(valid, invalid []float64) float64 {
		if src.IntN(8) == 0 {
			return invalid[src.IntN(len(invalid))]
		}
		return valid[src.IntN(len(valid))]
	}
	drawInt := func(n int, invalid ...int) int {
		if src.IntN(8) == 0 {
			return invalid[src.IntN(len(invalid))]
		}
		return src.IntN(n)
	}
	nan, inf := math.NaN(), math.Inf(1)
	ts := make([]ticket.Ticket, 0, n)
	for len(ts) < n {
		if len(ts) > 0 && src.IntN(3) == 0 {
			// Re-submit an earlier record: under a new ID, with the
			// other sign of a zero hour or repair time, or with another
			// counter (a tie on day, hour and ID in its device group).
			t := ts[src.IntN(len(ts))]
			switch src.IntN(5) {
			case 0:
				t.ID = src.IntN(n + 1)
			case 1:
				if t.Hour == 0 {
					t.Hour = math.Copysign(0, -math.Copysign(1, t.Hour))
				}
			case 2:
				if t.RepairHours == 0 {
					t.RepairHours = math.Copysign(0, -math.Copysign(1, t.RepairHours))
				}
			case 3:
				t.Repeat = 1 + src.IntN(3)
			}
			ts = append(ts, t)
			continue
		}
		ts = append(ts, ticket.Ticket{
			ID:            src.IntN(n/2 + 1),
			Day:           drawInt(10, -1, 10, 11, 1<<40),
			Hour:          draw([]float64{0, negZero, 0.5, 3, 23.75}, []float64{24, -1, nan, inf, -inf}),
			DC:            drawInt(2, -1, 2),
			Rack:          drawInt(4, -1, 4),
			Fault:         ticket.Fault(drawInt(int(ticket.NumFaults), -1, int(ticket.NumFaults))),
			FalsePositive: src.IntN(5) == 0,
			RepairHours:   draw([]float64{0, negZero, 2, 4}, []float64{-1, nan, inf, -inf}),
			Component:     failure.Component(src.IntN(int(failure.NumComponents))),
			Device:        src.IntN(3),
			Repeat:        src.IntN(4),
		})
	}
	return ts
}

// checkScrubMatchesReference runs ScrubTickets and the reference over
// the same stream, in both modes, and fails on any difference in the
// report, the returned stream (bit for bit, nil-ness included), or the
// input, which neither may modify.
func checkScrubMatchesReference(t *testing.T, name string, in []ticket.Ticket, b TicketBounds) {
	t.Helper()
	orig := append([]ticket.Ticket(nil), in...)
	for _, repair := range []bool{false, true} {
		var got, want Report
		out := ScrubTickets(in, b, &got, repair)
		if i := sameStream(in, orig); i >= 0 {
			t.Fatalf("%s repair=%v: ScrubTickets modified its input at %d", name, repair, i)
		}
		ref := refScrubTickets(append([]ticket.Ticket(nil), in...), b, &want, repair)
		if !repair {
			ref = in
		}
		if got != want {
			t.Fatalf("%s repair=%v: report\n got %+v\nwant %+v", name, repair, got, want)
		}
		if (out == nil) != (ref == nil) {
			t.Fatalf("%s repair=%v: returned nil=%v, reference nil=%v", name, repair, out == nil, ref == nil)
		}
		if i := sameStream(out, ref); i >= 0 {
			t.Fatalf("%s repair=%v: returned stream differs at %d (len %d vs %d)", name, repair, i, len(out), len(ref))
		}
		if !repair && len(in) > 0 && &out[0] != &in[0] {
			t.Fatalf("%s: audit mode did not return its input", name)
		}
	}
}

// TestScrubTicketsMatchesReference is the differential test of the
// ticket stage: 3,000 seeded dirty streams, each scrubbed under fleet
// bounds and under zero bounds, in audit and repair mode.
func TestScrubTicketsMatchesReference(t *testing.T) {
	streams := 3000
	if testing.Short() {
		streams = 500
	}
	bounds := []TicketBounds{{Days: 10, Racks: 4, DCs: 2}, {}}
	for seed := 0; seed < streams; seed++ {
		src := rng.New(uint64(seed))
		in := dirtyTicketStream(src, src.IntN(120))
		for _, b := range bounds {
			checkScrubMatchesReference(t, fmt.Sprintf("seed %d bounds %+v", seed, b), in, b)
		}
	}
	for _, b := range bounds {
		checkScrubMatchesReference(t, "empty", []ticket.Ticket{}, b)
		checkScrubMatchesReference(t, "nil", nil, b)
	}
}
