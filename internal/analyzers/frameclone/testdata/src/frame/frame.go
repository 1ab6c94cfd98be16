// Package frame is the analysistest twin of rainshine/internal/frame:
// just enough surface for the aliasing rules. The analyzer skips the
// package defining Frame, so nothing here is flagged.
package frame

import "math"

// Column is one typed dense column.
type Column struct {
	Name  string
	Data  []float64
	codes []uint8
}

// Codes exposes the byte-coded backing array (shared storage).
func (c *Column) Codes() []uint8 { return c.codes }

// SetMissing overwrites the cell with the NaN missing sentinel.
func (c *Column) SetMissing(i int) { c.Data[i] = math.NaN() }

// Clone deep-copies the column's cells.
func (c *Column) Clone() *Column {
	return &Column{Name: c.Name, Data: append([]float64(nil), c.Data...)}
}

// Frame is a column-oriented table.
type Frame struct {
	cols  []Column
	names []string
}

// New returns an empty frame the caller owns.
func New() *Frame {
	return &Frame{}
}

// ShallowClone copies the column directory; the caller may attach
// columns without affecting the original, but cell storage is shared.
func (f *Frame) ShallowClone() *Frame {
	g := New()
	g.names = append(g.names, f.names...)
	g.cols = append(g.cols, f.cols...)
	return g
}

// Subset returns a new frame holding the selected rows (cells copied).
func (f *Frame) Subset(rows []int) *Frame {
	g := New()
	for i := range f.cols {
		c := f.cols[i].Clone()
		g.cols = append(g.cols, *c)
		g.names = append(g.names, c.Name)
	}
	return g
}

// Filter returns a new frame holding the kept rows (cells copied).
func (f *Frame) Filter(keep func(int) bool) *Frame { return f.Subset(nil) }

// Select returns a new frame restricted to the named columns; cell
// storage is shared with the receiver.
func (f *Frame) Select(names ...string) (*Frame, error) {
	g := New()
	g.cols = append(g.cols, f.cols...)
	g.names = append(g.names, f.names...)
	return g, nil
}

// Col returns the named column view.
func (f *Frame) Col(name string) (*Column, error) { return &f.cols[0], nil }

// MustCol returns the named column view or panics.
func (f *Frame) MustCol(name string) *Column { return &f.cols[0] }

// ColAt returns the column view at position i.
func (f *Frame) ColAt(i int) *Column { return &f.cols[i] }

// AddContinuous attaches a float column in place.
func (f *Frame) AddContinuous(name string, data []float64) {
	f.cols = append(f.cols, Column{Name: name, Data: data})
	f.names = append(f.names, name)
}

// AddNominalInts attaches a categorical column in place.
func (f *Frame) AddNominalInts(name string, data []int) {
	vals := make([]float64, len(data))
	for i, v := range data {
		vals[i] = float64(v)
	}
	f.AddContinuous(name, vals)
}

// AddNominalCodes attaches a byte-coded categorical column in place.
func (f *Frame) AddNominalCodes(name string, codes []uint8, levels []string) {
	f.cols = append(f.cols, Column{Name: name, codes: codes})
	f.names = append(f.names, name)
}

// AddOrdinalCodes attaches a byte-coded ordered column in place.
func (f *Frame) AddOrdinalCodes(name string, codes []uint8, levels []string) {
	f.AddNominalCodes(name, codes, levels)
}

// AddColumn attaches a prebuilt column in place, sharing its storage.
func (f *Frame) AddColumn(c Column) {
	f.cols = append(f.cols, c)
	f.names = append(f.names, c.Name)
}
