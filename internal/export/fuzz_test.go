package export

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/ticket"
)

// FuzzReadFrameCSV feeds arbitrary bytes into the CSV importer: it must
// either return a well-formed frame or an error — never panic, and any
// returned frame must satisfy basic invariants.
func FuzzReadFrameCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,x\n")
	f.Add("temp,dc\n70.5,DC1\n80,DC2\n")
	f.Add("x\n\n")
	f.Add("a,a\n1,2\n")
	f.Add("\"q\"\"uote\",c\n1,2\n")
	f.Fuzz(func(t *testing.T, in string) {
		fr, err := ReadFrameCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if fr.NumRows() < 1 || fr.NumCols() < 1 {
			t.Fatalf("accepted degenerate frame %dx%d from %q", fr.NumRows(), fr.NumCols(), in)
		}
		// Round-trip: a frame we accepted must serialize cleanly.
		var buf bytes.Buffer
		if err := FrameCSV(&buf, fr); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
	})
}

// FuzzTicketsCSVRoundTrip: any ticket the writer can serialize must
// survive write -> read -> write with byte-identical CSV (the derived
// date/category columns and the reconstructed component are functions
// of the serialized fields, so the canonical form is a fixed point).
func FuzzTicketsCSVRoundTrip(f *testing.F) {
	f.Add(1, 5, 2.25, 0, 3, uint8(5), false, 4.0, 2, 1)
	f.Add(7, -2, 23.99, 1, 0, uint8(0), true, 0.0, 0, 0)
	f.Add(0, 100000, 0.0, -3, 99, uint8(9), false, 1e300, 12, 4)
	f.Fuzz(func(t *testing.T, id, day int, hour float64, dc, rack int,
		faultIdx uint8, fp bool, repairHours float64, device, repeat int) {
		in := ticket.Ticket{
			ID: id, Day: day, Hour: hour, DC: dc, Rack: rack,
			Fault:         ticket.Fault(int(faultIdx) % int(ticket.NumFaults)),
			FalsePositive: fp, RepairHours: repairHours,
			Device: device, Repeat: repeat,
		}
		var first bytes.Buffer
		if err := TicketsCSV(&first, []ticket.Ticket{in}); err != nil {
			t.Fatalf("writing: %v", err)
		}
		got, err := ReadTicketsCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading own output %q: %v", first.String(), err)
		}
		if len(got) != 1 {
			t.Fatalf("read %d tickets from one record", len(got))
		}
		var second bytes.Buffer
		if err := TicketsCSV(&second, got); err != nil {
			t.Fatalf("re-writing: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not canonical:\n%q\n%q", first.String(), second.String())
		}
	})
}

// FuzzTypedColumnCSVRoundTrip drives the byte-coded column storage
// through the CSV interchange: arbitrary code bytes (including the 255
// sentinel and codes past the level table, both of which read as
// missing) plus a level-table size. Per-row level strings and missing
// marks must survive the trip, and the serialized form must be a fixed
// point. An all-missing column legitimately re-imports as continuous —
// the importer cannot know it was categorical — so kind is only pinned
// when at least one level survives.
func FuzzTypedColumnCSVRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1}, byte(2))  // plain typed column
	f.Add([]byte{255, 255, 255}, byte(2))  // all-null (every code is the sentinel)
	f.Add([]byte{0, 200, 7, 255}, byte(4)) // out-of-range codes read as missing
	f.Add([]byte{}, byte(0))               // no rows: importer refuses, target skips
	f.Fuzz(func(t *testing.T, codes []byte, nLevels byte) {
		n := len(codes)
		if n == 0 {
			return
		}
		nLev := int(nLevels)%255 + 1
		levels := make([]string, nLev)
		for i := range levels {
			levels[i] = fmt.Sprintf("L%03d", i)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		fr := frame.New(n)
		if err := fr.AddNominalCodes("cat", append([]byte(nil), codes...), levels); err != nil {
			t.Fatal(err)
		}
		if err := fr.AddContinuous("x", x); err != nil {
			t.Fatal(err)
		}
		a := fr.MustCol("cat")
		if a.Codes() == nil {
			t.Fatal("builder frame not byte-coded; fuzz target misconfigured")
		}

		var first bytes.Buffer
		if err := FrameCSV(&first, fr); err != nil {
			t.Fatalf("serializing: %v", err)
		}
		back, err := ReadFrameCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-importing own output %q: %v", first.String(), err)
		}
		b := back.MustCol("cat")
		if a.MissingCount() != b.MissingCount() {
			t.Fatalf("missing %d -> %d (csv %q)", a.MissingCount(), b.MissingCount(), first.String())
		}
		anyLevel := false
		for r := 0; r < n; r++ {
			if a.Missing(r) != b.Missing(r) {
				t.Fatalf("row %d missing %v -> %v (csv %q)", r, a.Missing(r), b.Missing(r), first.String())
			}
			if a.Missing(r) {
				continue
			}
			anyLevel = true
			if got, want := b.LevelOf(b.Float(r)), a.LevelOf(a.Float(r)); got != want {
				t.Fatalf("row %d level %q -> %q (csv %q)", r, want, got, first.String())
			}
		}
		if anyLevel {
			if b.Kind != frame.Nominal {
				t.Fatalf("cat kind %v after round trip (csv %q)", b.Kind, first.String())
			}
			if len(b.Levels) <= 255 && b.Codes() == nil {
				t.Fatalf("re-import of a %d-level column fell back to float64 cells", len(b.Levels))
			}
		}

		var second bytes.Buffer
		if err := FrameCSV(&second, back); err != nil {
			t.Fatalf("re-serializing: %v", err)
		}
		if anyLevel {
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("round trip not canonical:\n%q\n%q", first.String(), second.String())
			}
			return
		}
		// All-missing: the first trip demotes the column to continuous
		// ("NA" becomes "NaN"), after which the form must be stable.
		back2, err := ReadFrameCSV(bytes.NewReader(second.Bytes()))
		if err != nil {
			t.Fatalf("re-importing demoted form %q: %v", second.String(), err)
		}
		var third bytes.Buffer
		if err := FrameCSV(&third, back2); err != nil {
			t.Fatalf("serializing demoted form: %v", err)
		}
		if !bytes.Equal(second.Bytes(), third.Bytes()) {
			t.Fatalf("demoted form not a fixed point:\n%q\n%q", second.String(), third.String())
		}
	})
}
