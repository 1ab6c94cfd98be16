package frame

import (
	"fmt"
	"iter"
	"math"
)

// MaxTypedLevels is the widest level table the uint8 code layout can
// address while reserving at least one out-of-range code value as the
// in-band missing sentinel (code 255 with a full 255-level table).
const MaxTypedLevels = 255

// Column is one typed dense column with two physical layouts:
//
//   - Continuous columns — and categorical columns with more than 255
//     levels — store raw float64 values in Data;
//   - Nominal/Ordinal columns with at most 255 levels store uint8 level
//     indices in codes: a quarter of the memory, and the shape the
//     binned CART coding pass copies without a float64 round-trip.
//
// Exactly one of Data/codes is populated. A missing cell has one
// encoding, an in-band sentinel in the cell itself: a non-finite value
// (NaN/±Inf) in Data, or a code at or above len(Levels) in a typed
// column. SetMissing writes it; Missing tests it.
type Column struct {
	Name   string
	Kind   Kind
	Data   []float64 // float64 cell storage; nil when codes is set
	Levels []string  // nil for Continuous

	// codes is the uint8 level-index storage of typed categorical
	// columns; nil for float64-backed columns. Shared storage with the
	// same aliasing rules as Data.
	codes []uint8
}

// Len returns the number of rows in the column, whatever the physical
// layout.
func (c *Column) Len() int {
	if c.codes != nil {
		return len(c.codes)
	}
	return len(c.Data)
}

// Codes returns the uint8 level-index storage of a typed categorical
// column, or nil when the column is float64-backed. Like Data the slice
// is shared storage: treat it as read-only unless the column is
// exclusively owned. A code at or above len(Levels) is the in-band
// missing sentinel, the typed twin of NaN.
func (c *Column) Codes() []uint8 { return c.codes }

// Float returns the raw cell at row i as a float64 regardless of
// layout. For typed columns this is float64(code) — exact, since every
// code fits in a byte. Use Missing to tell a sentinel from a value.
func (c *Column) Float(i int) float64 {
	if c.codes != nil {
		return float64(c.codes[i])
	}
	return c.Data[i]
}

// Code returns the level index stored at row i of a categorical column,
// whatever the layout. The index is not range-checked: callers that can
// see corrupt or missing cells must consult Missing first.
func (c *Column) Code(i int) int {
	if c.codes != nil {
		return int(c.codes[i])
	}
	return int(c.Data[i])
}

// LevelIndex returns the level index stored at row i of a categorical
// column and whether it names one of the column's levels. It is false
// for the typed missing sentinel, any other out-of-range code, and a
// NaN cell.
func (c *Column) LevelIndex(i int) (int, bool) {
	if c.codes != nil {
		v := int(c.codes[i])
		return v, v < len(c.Levels)
	}
	v := c.Data[i]
	if v != v { // NaN: int(NaN) is platform-defined
		return 0, false
	}
	k := int(v)
	return k, k >= 0 && k < len(c.Levels)
}

// LevelRows yields, in row order, every row of a categorical column
// whose cell names one of its levels, with that level index: the rows
// for which LevelIndex reports true. Scans should range over it rather
// than call LevelIndex per row; it reads each layout's storage directly.
func (c *Column) LevelRows() iter.Seq2[int, int] {
	return func(yield func(row, level int) bool) {
		n := len(c.Levels)
		if c.codes != nil {
			for r, v := range c.codes {
				if int(v) < n && !yield(r, int(v)) {
					return
				}
			}
			return
		}
		for r, v := range c.Data {
			if k := int(v); v == v && k >= 0 && k < n && !yield(r, k) {
				return
			}
		}
	}
}

// Values returns the column as dense float64. A float64-backed column
// returns Data itself — no copy, so treat the result as read-only —
// whose missing cells already hold their NaN/±Inf sentinel. A typed
// column decodes into a fresh slice the caller owns, each sentinel code
// as NaN.
func (c *Column) Values() []float64 {
	if c.codes == nil {
		return c.Data
	}
	out := make([]float64, len(c.codes))
	nl := uint8(len(c.Levels))
	for i, cd := range c.codes {
		if cd >= nl {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(cd)
	}
	return out
}

// LevelOf returns the level string for a value of a categorical column.
// Continuous values format as numbers. A categorical value whose level
// index is out of range is corrupted data and returns the marked form
// "<invalid:i>" so it surfaces in reports instead of masquerading as a
// measurement.
func (c *Column) LevelOf(v float64) string {
	if c.Kind == Continuous {
		return fmt.Sprintf("%g", v)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v != math.Trunc(v) {
		return fmt.Sprintf("<invalid:%g>", v)
	}
	i := int(v)
	if i < 0 || i >= len(c.Levels) {
		return fmt.Sprintf("<invalid:%d>", i)
	}
	return c.Levels[i]
}

// SetMissing overwrites the cell at row i with the layout's missing
// sentinel: NaN for float64-backed columns, an out-of-range code for
// typed ones.
func (c *Column) SetMissing(i int) {
	if c.codes != nil {
		c.codes[i] = MaxTypedLevels
		return
	}
	c.Data[i] = math.NaN()
}

// Missing reports whether the cell at row i carries the layout's
// missing sentinel: a non-finite value in a float64-backed column, a
// code at or above len(Levels) in a typed one.
func (c *Column) Missing(i int) bool {
	if c.codes != nil {
		return int(c.codes[i]) >= len(c.Levels)
	}
	v := c.Data[i]
	return math.IsNaN(v) || math.IsInf(v, 0)
}

// MissingCount returns the number of missing cells.
func (c *Column) MissingCount() int {
	total := 0
	for i, n := 0, c.Len(); i < n; i++ {
		if c.Missing(i) {
			total++
		}
	}
	return total
}

// Clone returns a deep copy of the column — its own cell storage — safe
// to mutate regardless of who else holds the original.
func (c *Column) Clone() *Column {
	cl := &Column{Name: c.Name, Kind: c.Kind, Levels: c.Levels}
	if c.codes != nil {
		cl.codes = append([]uint8(nil), c.codes...)
	} else {
		cl.Data = append([]float64(nil), c.Data...)
	}
	return cl
}
