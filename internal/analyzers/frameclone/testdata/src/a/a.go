// Package a exercises the frameclone aliasing rules.
package a

import "frame"

// Mutate attaches a column straight onto the shared parameter frame.
func Mutate(f *frame.Frame) {
	f.AddContinuous("x", nil) // want `attaching a column to f, which aliases a parameter frame`
}

// Cloned re-points the variable at a ShallowClone first (negative).
func Cloned(f *frame.Frame) {
	f = f.ShallowClone()
	f.AddContinuous("x", nil)
}

// Alias propagates the taint through a plain alias.
func Alias(f *frame.Frame) {
	g := f
	g.AddNominalInts("k", nil) // want `attaching a column to g, which aliases a parameter frame`
}

// Subsetted mutates a frame the cleanser handed back (negative).
func Subsetted(f *frame.Frame) {
	g := f.Subset(nil)
	g.AddContinuous("x", nil)
}

// Fresh mutates a locally constructed frame (negative).
func Fresh(f *frame.Frame) *frame.Frame {
	g := frame.New()
	g.AddContinuous("x", nil)
	return g
}

// build is unexported: builders own their frames (negative).
func build(f *frame.Frame) {
	f.AddContinuous("x", nil)
}

// MarkCol marks nulls through a column view of the parameter frame.
func MarkCol(f *frame.Frame) {
	c, _ := f.Col("x")
	c.SetMissing(0) // want `marking nulls on c, which views cell storage shared with the caller`
}

// SetCol writes a missing cell through MustCol on the parameter frame.
func SetCol(f *frame.Frame) {
	c := f.MustCol("x")
	c.SetMissing(0) // want `marking nulls on c, which views cell storage shared with the caller`
}

// MarkColAt marks nulls through a positional column view.
func MarkColAt(f *frame.Frame) {
	c := f.ColAt(0)
	c.SetMissing(0) // want `marking nulls on c, which views cell storage shared with the caller`
}

// ShallowStillShared: ShallowClone copies the directory, not the cells,
// so column views of the clone still alias the caller's storage.
func ShallowStillShared(f *frame.Frame) {
	g := f.ShallowClone()
	c := g.MustCol("x")
	c.SetMissing(0) // want `marking nulls on c, which views cell storage shared with the caller`
}

// SelectStillShared: Select shares column storage too.
func SelectStillShared(f *frame.Frame) {
	g, _ := f.Select("x")
	c := g.MustCol("x")
	c.SetMissing(0) // want `marking nulls on c, which views cell storage shared with the caller`
}

// SubsetOwnsCells: Subset copies cells, so its views are safe (negative).
func SubsetOwnsCells(f *frame.Frame) {
	g := f.Subset(nil)
	c := g.MustCol("x")
	c.SetMissing(0)
}

// FilterOwnsCells: Filter copies cells too (negative).
func FilterOwnsCells(f *frame.Frame) {
	g := f.Filter(nil)
	c := g.MustCol("x")
	c.SetMissing(0)
}

// ClonedColumn re-points the view at a deep copy first (negative).
func ClonedColumn(f *frame.Frame) {
	c := f.MustCol("x")
	c = c.Clone()
	c.SetMissing(0)
}

// MutateCodes attaches a byte-coded column onto the shared parameter.
func MutateCodes(f *frame.Frame) {
	f.AddNominalCodes("k", nil, nil) // want `attaching a column to f, which aliases a parameter frame`
}

// MutateOrdinalCodes attaches an ordered byte-coded column.
func MutateOrdinalCodes(f *frame.Frame) {
	f.AddOrdinalCodes("k", nil, nil) // want `attaching a column to f, which aliases a parameter frame`
}

// MutateAddColumn attaches a prebuilt column onto the shared parameter.
func MutateAddColumn(f *frame.Frame) {
	f.AddColumn(frame.Column{Name: "k"}) // want `attaching a column to f, which aliases a parameter frame`
}

// ClonedCodes attaches byte-coded columns after re-pointing (negative).
func ClonedCodes(f *frame.Frame) {
	f = f.ShallowClone()
	f.AddNominalCodes("k", nil, nil)
	f.AddColumn(frame.Column{Name: "m"})
}

// WriteCodes stores through the code slice of a shared column view.
func WriteCodes(f *frame.Frame) {
	c := f.MustCol("x")
	codes := c.Codes()
	codes[0] = 1 // want `writing through codes, which aliases a shared column's byte-code storage`
}

// WriteCodesAlias propagates the slice taint through a plain alias.
func WriteCodesAlias(f *frame.Frame) {
	c := f.MustCol("x")
	codes := c.Codes()
	cs := codes
	cs[0] = 1 // want `writing through cs, which aliases a shared column's byte-code storage`
}

// WriteClonedCodes stores through a cloned column's codes (negative).
func WriteClonedCodes(f *frame.Frame) {
	c := f.MustCol("x").Clone()
	codes := c.Codes()
	codes[0] = 1
}

// WriteOwnedCodes stores through a locally built buffer (negative).
func WriteOwnedCodes(f *frame.Frame) {
	codes := make([]uint8, 4)
	codes[0] = 1
	f = f.ShallowClone()
	f.AddNominalCodes("k", codes, nil)
}

// WriteSubsetCodes stores through a cell-owning frame's codes (negative).
func WriteSubsetCodes(f *frame.Frame) {
	g := f.Subset(nil)
	c := g.MustCol("x")
	codes := c.Codes()
	codes[0] = 1
}
