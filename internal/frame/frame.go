// Package frame provides a columnar data frame: the tabular substrate
// that CART, direct standardization, and every figure pipeline consume.
//
// The paper's feature table (Table III) mixes continuous (temperature,
// RH, age), nominal (SKU, workload, DC, rack), and ordinal (day, week,
// month) variables; a Frame carries that type information so the tree
// learner can treat each kind correctly.
//
// Storage is columnar, dense, and physically typed: continuous columns
// hold raw float64 values, and categorical columns with at most 255
// levels hold uint8 level indices into their level table (wider level
// tables fall back to float64 codes). A missing cell is the layout's
// in-band sentinel and nothing else — NaN for float64 cells, an
// out-of-range code for typed ones; see Column. Fleet-scale scans split
// rows on the fixed ChunkBounds, which never depend on the worker
// count, so chunked fork-join reductions stay byte-identical for every
// -workers.
package frame

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind classifies a column the way Table III classifies features.
type Kind int

const (
	// Continuous is a numeric feature with meaningful magnitudes
	// (temperature, RH, age, rated power).
	Continuous Kind = iota
	// Nominal is a categorical feature with no implied order (SKU,
	// workload, DC, rack). Values are stored as level indices.
	Nominal
	// Ordinal is a categorical feature with a meaningful order
	// (day-of-week, month). Values are stored as level indices and
	// split like numerics on the level order.
	Ordinal
)

// String returns the Table III type letter for the kind.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "C"
	case Nominal:
		return "N"
	case Ordinal:
		return "O"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Frame is a collection of equal-length columns.
type Frame struct {
	cols  []Column
	index map[string]int
	rows  int
}

// New creates an empty frame that will hold rows rows.
func New(rows int) *Frame {
	return &Frame{index: make(map[string]int), rows: rows}
}

// NumRows returns the number of rows.
func (f *Frame) NumRows() int { return f.rows }

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in insertion order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// ShallowClone returns a frame with its own column list and name index
// that shares the underlying data slices. Analyses that attach derived
// columns (labels, bins) to a frame other goroutines are reading must
// clone first: adding to the clone leaves the original untouched.
func (f *Frame) ShallowClone() *Frame {
	cl := &Frame{
		cols:  append([]Column(nil), f.cols...),
		index: make(map[string]int, len(f.index)),
		rows:  f.rows,
	}
	for name, i := range f.index {
		cl.index[name] = i
	}
	return cl
}

// AddContinuous appends a continuous column. The data slice is adopted,
// not copied.
func (f *Frame) AddContinuous(name string, data []float64) error {
	return f.add(Column{Name: name, Kind: Continuous, Data: data})
}

// AddOrdinalInts appends an ordinal column from integer codes with the
// given ordered level names.
func (f *Frame) AddOrdinalInts(name string, codes []int, levels []string) error {
	return f.addCoded(name, Ordinal, codes, levels)
}

// AddNominalInts appends a nominal column from integer codes with the
// given level names.
func (f *Frame) AddNominalInts(name string, codes []int, levels []string) error {
	return f.addCoded(name, Nominal, codes, levels)
}

func (f *Frame) addCoded(name string, kind Kind, codes []int, levels []string) error {
	lv := append([]string(nil), levels...)
	if len(lv) <= MaxTypedLevels {
		cs := make([]uint8, len(codes))
		for i, c := range codes {
			if c < 0 || c >= len(levels) {
				return fmt.Errorf("frame: column %q code %d out of range [0,%d)", name, c, len(levels))
			}
			cs[i] = uint8(c)
		}
		return f.add(Column{Name: name, Kind: kind, codes: cs, Levels: lv})
	}
	data := make([]float64, len(codes))
	for i, c := range codes {
		if c < 0 || c >= len(levels) {
			return fmt.Errorf("frame: column %q code %d out of range [0,%d)", name, c, len(levels))
		}
		data[i] = float64(c)
	}
	return f.add(Column{Name: name, Kind: kind, Data: data, Levels: lv})
}

// AddNominalCodes appends a nominal column directly from uint8 level
// codes. The codes slice is adopted, not copied, and deliberately not
// range-checked: a code at or above len(levels) is the typed layout's
// in-band missing sentinel, not an error. The level table must fit the
// typed layout (at most 255 levels).
func (f *Frame) AddNominalCodes(name string, codes []uint8, levels []string) error {
	return f.addTyped(name, Nominal, codes, levels)
}

// AddOrdinalCodes appends an ordinal column directly from uint8 level
// codes, with the same adoption and sentinel rules as AddNominalCodes.
func (f *Frame) AddOrdinalCodes(name string, codes []uint8, levels []string) error {
	return f.addTyped(name, Ordinal, codes, levels)
}

func (f *Frame) addTyped(name string, kind Kind, codes []uint8, levels []string) error {
	if len(levels) > MaxTypedLevels {
		return fmt.Errorf("frame: column %q has %d levels, typed code columns hold at most %d",
			name, len(levels), MaxTypedLevels)
	}
	return f.add(Column{Name: name, Kind: kind, codes: codes, Levels: append([]string(nil), levels...)})
}

// AddColumn appends the column descriptor as-is, sharing its underlying
// cell storage. It is the external spelling of carrying an existing
// column (typically a Clone, or one freshly built) over to a derived
// frame without re-coding through the typed constructors.
func (f *Frame) AddColumn(c Column) error { return f.add(c) }

func (f *Frame) add(c Column) error {
	if c.Name == "" {
		return errors.New("frame: empty column name")
	}
	if _, dup := f.index[c.Name]; dup {
		return fmt.Errorf("frame: duplicate column %q", c.Name)
	}
	if c.Data != nil && c.codes != nil {
		return fmt.Errorf("frame: column %q has both float64 and uint8 storage", c.Name)
	}
	if c.Len() != f.rows {
		return fmt.Errorf("frame: column %q has %d rows, frame has %d", c.Name, c.Len(), f.rows)
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// Col returns the column with the given name.
func (f *Frame) Col(name string) (*Column, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("frame: no column %q (have %s)", name, strings.Join(f.Names(), ", "))
	}
	return &f.cols[i], nil
}

// MustCol returns the column or panics; for use in tests and internal
// pipelines where the column set is statically known.
func (f *Frame) MustCol(name string) *Column {
	c, err := f.Col(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColAt returns the column at position i.
func (f *Frame) ColAt(i int) *Column { return &f.cols[i] }

// Select returns a new frame sharing column storage, restricted to the
// named columns in the given order.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := New(f.rows)
	for _, n := range names {
		c, err := f.Col(n)
		if err != nil {
			return nil, err
		}
		if err := out.add(*c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter returns a new frame containing only rows for which keep returns
// true. Column storage is copied.
func (f *Frame) Filter(keep func(row int) bool) *Frame {
	var rows []int
	for r := 0; r < f.rows; r++ {
		if keep(r) {
			rows = append(rows, r)
		}
	}
	return f.Subset(rows)
}

// Subset returns a new frame with the given row indices, copying data.
func (f *Frame) Subset(rows []int) *Frame {
	out := New(len(rows))
	for _, c := range f.cols {
		nc := Column{Name: c.Name, Kind: c.Kind, Levels: c.Levels}
		if c.codes != nil {
			cs := make([]uint8, len(rows))
			for i, r := range rows {
				cs[i] = c.codes[r]
			}
			nc.codes = cs
		} else {
			data := make([]float64, len(rows))
			for i, r := range rows {
				data[i] = c.Data[r]
			}
			nc.Data = data
		}
		if err := out.add(nc); err != nil {
			// Unreachable: source frame invariants guarantee validity.
			panic(err)
		}
	}
	return out
}

// Value returns the raw float value at (row, col-name).
func (f *Frame) Value(row int, name string) (float64, error) {
	c, err := f.Col(name)
	if err != nil {
		return 0, err
	}
	if row < 0 || row >= f.rows {
		return 0, fmt.Errorf("frame: row %d out of range [0,%d)", row, f.rows)
	}
	return c.Float(row), nil
}

// GroupMeans computes the mean of the value column within each level of
// a categorical key column. Returned slices are indexed by level.
// Levels with no rows get NaN means and zero counts. Rows whose key
// names no level (see Column.LevelRows) belong to no group.
func (f *Frame) GroupMeans(key, value string) (levels []string, means []float64, counts []int, err error) {
	kc, err := f.Col(key)
	if err != nil {
		return nil, nil, nil, err
	}
	if kc.Kind == Continuous {
		return nil, nil, nil, fmt.Errorf("frame: GroupMeans key %q must be categorical", key)
	}
	vc, err := f.Col(value)
	if err != nil {
		return nil, nil, nil, err
	}
	n := len(kc.Levels)
	sums := make([]float64, n)
	counts = make([]int, n)
	for r, i := range kc.LevelRows() {
		sums[i] += vc.Data[r]
		counts[i]++
	}
	means = make([]float64, n)
	for i := range means {
		if counts[i] == 0 {
			means[i] = math.NaN()
			continue
		}
		means[i] = sums[i] / float64(counts[i])
	}
	return kc.Levels, means, counts, nil
}

// GroupValues collects the value column's entries per level of a
// categorical key column, each group in row order. keep selects the
// levels to collect (nil keeps all); the groups of the others stay nil.
// Rows whose key names no level (see Column.LevelRows) belong to no
// group.
func (f *Frame) GroupValues(key, value string, keep func(level string) bool) (levels []string, groups [][]float64, err error) {
	kc, err := f.Col(key)
	if err != nil {
		return nil, nil, err
	}
	if kc.Kind == Continuous {
		return nil, nil, fmt.Errorf("frame: GroupValues key %q must be categorical", key)
	}
	vc, err := f.Col(value)
	if err != nil {
		return nil, nil, err
	}
	n := len(kc.Levels)
	want := make([]bool, n)
	for i, lvl := range kc.Levels {
		want[i] = keep == nil || keep(lvl)
	}
	// Size every group exactly, then fill: one allocation per group.
	counts := make([]int, n)
	for _, i := range kc.LevelRows() {
		if want[i] {
			counts[i]++
		}
	}
	groups = make([][]float64, n)
	for i := range groups {
		if counts[i] > 0 {
			groups[i] = make([]float64, 0, counts[i])
		}
	}
	for r, i := range kc.LevelRows() {
		if want[i] {
			groups[i] = append(groups[i], vc.Data[r])
		}
	}
	return kc.Levels, groups, nil
}
