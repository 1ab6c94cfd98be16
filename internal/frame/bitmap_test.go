package frame

import (
	"math"
	"testing"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Any() || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len=%d any=%v count=%d", b.Len(), b.Any(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if !b.Any() || b.Count() != 4 {
		t.Fatalf("after 4 sets: any=%v count=%d", b.Any(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("Get(%d) = false", i)
		}
	}
	if b.Get(1) || b.Get(-1) || b.Get(130) {
		t.Error("unset/out-of-range rows must read false")
	}
	cl := b.Clone()
	cl.Set(5)
	if b.Get(5) {
		t.Error("Clone must not share words")
	}

	var nilb *Bitmap
	if nilb.Get(0) || nilb.Any() || nilb.Count() != 0 || nilb.Clone() != nil {
		t.Error("nil bitmap must behave as empty")
	}
}

func TestBitmapSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range should panic")
		}
	}()
	NewBitmap(4).Set(4)
}

func TestColumnNullMarks(t *testing.T) {
	f := New(4)
	if err := f.AddContinuous("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("x")
	if c.HasNulls() || c.Missing(0) || c.Nulls() != nil {
		t.Fatal("fresh column must have no nulls")
	}
	// MarkNull keeps the raw value; the cell is still missing.
	c.MarkNull(1)
	if !c.Missing(1) || c.Data[1] != 2 {
		t.Errorf("MarkNull: missing=%v data=%v", c.Missing(1), c.Data[1])
	}
	// SetMissing also writes the NaN sentinel for legacy readers.
	c.SetMissing(2)
	if !c.Missing(2) || !math.IsNaN(c.Data[2]) {
		t.Errorf("SetMissing: missing=%v data=%v", c.Missing(2), c.Data[2])
	}
	if c.NullCount() != 2 || c.MissingCount() != 2 {
		t.Errorf("NullCount=%d MissingCount=%d, want 2, 2", c.NullCount(), c.MissingCount())
	}
	// A plain NaN counts as missing but not as an explicit null.
	c.Data[3] = math.NaN()
	if c.NullCount() != 2 || c.MissingCount() != 3 {
		t.Errorf("after NaN: NullCount=%d MissingCount=%d, want 2, 3", c.NullCount(), c.MissingCount())
	}
	if c.Missing(0) {
		t.Error("row 0 must stay present")
	}
}

func TestSubsetCarriesNulls(t *testing.T) {
	f := New(4)
	if err := f.AddContinuous("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.MustCol("x").MarkNull(2)
	sub := f.Subset([]int{2, 0})
	c := sub.MustCol("x")
	if !c.Missing(0) || c.Missing(1) {
		t.Errorf("subset nulls: row0=%v row1=%v, want true, false", c.Missing(0), c.Missing(1))
	}
	if c.Data[0] != 3 || c.Data[1] != 1 {
		t.Errorf("subset data = %v", c.Data)
	}
}

func TestColumnClone(t *testing.T) {
	f := New(2)
	if err := f.AddContinuous("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("x")
	c.MarkNull(0)
	cl := c.Clone()
	cl.Data[1] = 99
	cl.MarkNull(1)
	if c.Data[1] != 2 || c.Missing(1) {
		t.Error("Clone must not share data or bitmap")
	}
	if !cl.Missing(0) {
		t.Error("Clone must carry existing null marks")
	}
}

func TestChunks(t *testing.T) {
	n := 100
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	f := New(n)
	if err := f.AddContinuous("x", data); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("x")
	c.MarkNull(41)

	chunks := c.Chunks(40)
	if len(chunks) != 3 {
		t.Fatalf("Chunks(40) = %d chunks", len(chunks))
	}
	total := 0
	for i, ch := range chunks {
		total += ch.Len()
		if ch.Data[0] != float64(ch.Lo) {
			t.Errorf("chunk %d Data[0] = %v, want %d", i, ch.Data[0], ch.Lo)
		}
	}
	if total != n {
		t.Errorf("chunk lengths sum to %d, want %d", total, n)
	}
	// Chunk-relative missing addresses the underlying column rows.
	if !chunks[1].Missing(1) || chunks[1].Missing(0) {
		t.Error("chunk Missing must address column rows")
	}
	chunks[2].MarkNull(0)
	if !c.Missing(80) {
		t.Error("chunk MarkNull must land in column storage")
	}

	// Default granularity covers everything in order.
	bounds := ChunkBounds(2*ChunkRows+1, 0)
	if len(bounds) != 3 || bounds[2] != [2]int{2 * ChunkRows, 2*ChunkRows + 1} {
		t.Errorf("default bounds = %v", bounds)
	}
	if ChunkBounds(0, 0) != nil {
		t.Error("empty range must have no chunks")
	}
}
