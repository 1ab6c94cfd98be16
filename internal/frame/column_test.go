package frame

import (
	"math"
	"slices"
	"testing"
)

func TestColumnNullMarks(t *testing.T) {
	f := New(4)
	if err := f.AddContinuous("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("x")
	if c.Missing(0) || c.MissingCount() != 0 {
		t.Fatal("fresh column must have no missing cells")
	}
	// SetMissing writes the NaN sentinel into the cell itself.
	c.SetMissing(1)
	if !c.Missing(1) || !math.IsNaN(c.Data[1]) {
		t.Errorf("SetMissing: missing=%v data=%v", c.Missing(1), c.Data[1])
	}
	// A NaN or ±Inf stored directly is the same sentinel.
	c.Data[2] = math.NaN()
	c.Data[3] = math.Inf(-1)
	if c.MissingCount() != 3 {
		t.Errorf("MissingCount = %d, want 3", c.MissingCount())
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
	f.MustCol("x").SetMissing(2)
	sub := f.Subset([]int{2, 0})
	c := sub.MustCol("x")
	if !c.Missing(0) || c.Missing(1) {
		t.Errorf("subset missing: row0=%v row1=%v, want true, false", c.Missing(0), c.Missing(1))
	}
	if !math.IsNaN(c.Data[0]) || c.Data[1] != 1 {
		t.Errorf("subset data = %v", c.Data)
	}
}

func TestColumnClone(t *testing.T) {
	f := New(2)
	if err := f.AddContinuous("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("x")
	c.SetMissing(0)
	cl := c.Clone()
	cl.SetMissing(1)
	if c.Data[1] != 2 || c.Missing(1) {
		t.Error("Clone must not share cell storage")
	}
	if !cl.Missing(0) {
		t.Error("Clone must carry existing missing cells")
	}
}

func TestChunks(t *testing.T) {
	want := [][2]int{{0, 40}, {40, 80}, {80, 100}}
	if got := ChunkBounds(100, 40); !slices.Equal(got, want) {
		t.Errorf("ChunkBounds(100, 40) = %v, want %v", got, want)
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
