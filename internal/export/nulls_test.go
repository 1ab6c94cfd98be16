package export

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/ingest"
)

// TestMissingCellPipeline walks a damaged frame through the full
// missing-data path: ingest quarantine writes the missing sentinels, the
// CART learner routes the marked rows through its missing handling, and
// the CSV interchange preserves per-column missingness so leaf
// assignment is identical on the re-imported frame.
func TestMissingCellPipeline(t *testing.T) {
	const n = 48
	temp := make([]float64, n)
	hum := make([]float64, n)
	y := make([]float64, n)
	dc := make([]int, n)
	for i := 0; i < n; i++ {
		temp[i] = float64(i)
		hum[i] = float64((i * 7) % 31)
		dc[i] = i % 2
		y[i] = temp[i]*0.5 + float64(dc[i])*3
	}
	temp[3] = math.NaN()
	temp[11] = math.Inf(1)
	temp[27] = math.Inf(-1)

	f := frame.New(n)
	if err := f.AddContinuous("temp", temp); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("hum", hum); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("dc", dc, []string{"DC1", "DC2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}

	// Ingest quarantine: non-finite cells become the NaN sentinel.
	if _, err := ingest.SanitizeFrame(f, []string{"temp", "dc", "y"}, nil); err != nil {
		t.Fatal(err)
	}
	tc := f.MustCol("temp")
	if tc.MissingCount() != 3 {
		t.Fatalf("temp missing=%d, want 3", tc.MissingCount())
	}
	// A categorical null exercises the NA interchange form.
	f.MustCol("dc").SetMissing(5)

	tree, err := cart.Fit(f, "y", []string{"temp", "dc"}, cart.Config{MinLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() < 2 {
		t.Fatalf("degenerate tree: %d leaves", tree.NumLeaves())
	}
	before, err := tree.AssignLeaves(f)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := FrameCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrameCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-importing: %v\ncsv:\n%s", err, buf.String())
	}
	for _, name := range f.Names() {
		a := f.MustCol(name)
		b := back.MustCol(name)
		if a.Kind != b.Kind {
			t.Fatalf("column %s kind %v -> %v", name, a.Kind, b.Kind)
		}
		if a.MissingCount() != b.MissingCount() {
			t.Fatalf("column %s missing %d -> %d", name, a.MissingCount(), b.MissingCount())
		}
	}
	bdc := back.MustCol("dc")
	if !bdc.Missing(5) || bdc.MissingCount() != 1 {
		t.Fatalf("dc missing cell lost: missing(5)=%v missing=%d", bdc.Missing(5), bdc.MissingCount())
	}
	if got := bdc.LevelOf(bdc.Float(0)); got != "DC1" {
		t.Fatalf("dc levels perturbed by null: %q", got)
	}

	after, err := tree.AssignLeaves(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d routed to leaf %d before export, %d after", i, before[i], after[i])
		}
	}
}

// FuzzMissingCellRoundTrip: any frame the importer accepts must survive
// write -> read with per-column kind and missing-count preserved, and
// the serialized form must be a fixed point of the round trip. The seed
// corpus includes an all-null column (every cell empty), which must
// infer continuous and keep every cell missing.
func FuzzMissingCellRoundTrip(f *testing.F) {
	f.Add("x,y\n1,\n2,\n")           // y is all-null
	f.Add("temp,dc\nNaN,DC1\n80,\n") // float NaN + categorical null
	f.Add("a\n\"\"\n")               // single all-null column
	f.Add("m\n1\n\nfoo\n")           // mixed numeric/text with a blank line
	f.Fuzz(func(t *testing.T, in string) {
		fr, err := ReadFrameCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := FrameCSV(&first, fr); err != nil {
			t.Fatalf("serializing accepted frame: %v", err)
		}
		back, err := ReadFrameCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-importing own output %q: %v", first.String(), err)
		}
		for _, name := range fr.Names() {
			a := fr.MustCol(name)
			b := back.MustCol(name)
			if a.Kind != b.Kind {
				t.Fatalf("column %q kind %v -> %v (csv %q)", name, a.Kind, b.Kind, first.String())
			}
			if a.MissingCount() != b.MissingCount() {
				t.Fatalf("column %q missing %d -> %d (csv %q)", name, a.MissingCount(), b.MissingCount(), first.String())
			}
		}
		var second bytes.Buffer
		if err := FrameCSV(&second, back); err != nil {
			t.Fatalf("re-serializing: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not canonical:\n%q\n%q", first.String(), second.String())
		}
	})
}
