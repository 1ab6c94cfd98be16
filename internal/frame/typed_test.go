package frame

import (
	"math"
	"testing"
)

// Typed uint8 code storage: categorical columns with at most 255 levels
// must drop the float64 round-trip entirely while keeping every missing
// and cloning semantic of the legacy layout.

func TestTypedStorageAutoEngages(t *testing.T) {
	f := New(3)
	if err := f.AddNominalInts("k", []int{0, 2, 1}, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("k")
	if c.Data != nil {
		t.Fatalf("3-level nominal kept float64 storage: %v", c.Data)
	}
	cs := c.Codes()
	if len(cs) != 3 || cs[0] != 0 || cs[1] != 2 || cs[2] != 1 {
		t.Fatalf("codes = %v", cs)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Float(1) != 2 || c.Code(2) != 1 {
		t.Errorf("Float/Code = %v/%d", c.Float(1), c.Code(2))
	}
	if got, _ := f.Value(1, "k"); got != 2 {
		t.Errorf("Value = %v", got)
	}
}

func TestWideLevelTableFallsBackToFloat64(t *testing.T) {
	n := MaxTypedLevels + 1 // 256 levels: codes no longer fit a byte next to the sentinel
	levels := make([]string, n)
	codes := make([]int, n)
	for i := range levels {
		levels[i] = string(rune('A')) + string(rune('0'+i%10))
		codes[i] = i
	}
	// Make level names distinct.
	for i := range levels {
		levels[i] = levels[i] + "_" + string(rune('a'+i/10%26)) + string(rune('a'+i/260))
	}
	f := New(n)
	if err := f.AddNominalInts("wide", codes, levels); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("wide")
	if c.Codes() != nil {
		t.Fatal("256-level nominal should use float64 storage")
	}
	if c.Data[255] != 255 {
		t.Errorf("Data[255] = %v", c.Data[255])
	}
	if c.Len() != n || c.Code(255) != 255 {
		t.Errorf("Len/Code = %d/%d", c.Len(), c.Code(255))
	}
}

func TestAddCodesAdoptsAndKeepsSentinels(t *testing.T) {
	f := New(4)
	codes := []uint8{0, 1, 255, 7} // 255 and 7 are out of range for 2 levels
	if err := f.AddNominalCodes("k", codes, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("k")
	if &c.Codes()[0] != &codes[0] {
		t.Error("AddNominalCodes should adopt the slice, not copy")
	}
	if c.Missing(0) || c.Missing(1) {
		t.Error("in-range codes must not read as missing")
	}
	if !c.Missing(2) || !c.Missing(3) {
		t.Error("out-of-range codes are the in-band missing sentinel")
	}
	if c.MissingCount() != 2 {
		t.Errorf("MissingCount = %d", c.MissingCount())
	}
	if err := f.AddOrdinalCodes("o", []uint8{0, 1, 1, 0}, []string{"lo", "hi"}); err != nil {
		t.Fatal(err)
	}
	if f.MustCol("o").Kind != Ordinal {
		t.Error("AddOrdinalCodes kind")
	}
	levels := make([]string, MaxTypedLevels+1)
	for i := range levels {
		levels[i] = string(rune(i)) + "_" + string(rune(i/256))
	}
	if err := f.AddNominalCodes("toowide", make([]uint8, 4), levels); err == nil {
		t.Error("level table past MaxTypedLevels must error")
	}
}

func TestTypedSetMissing(t *testing.T) {
	f := New(3)
	if err := f.AddNominalInts("k", []int{0, 1, 0}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("k")
	c.SetMissing(1)
	if !c.Missing(1) || int(c.Codes()[1]) < len(c.Levels) {
		t.Error("SetMissing must write the out-of-range sentinel code")
	}
	if c.Missing(0) || c.MissingCount() != 1 {
		t.Errorf("missing(0)=%v MissingCount=%d, want false, 1", c.Missing(0), c.MissingCount())
	}
}

func TestTypedValues(t *testing.T) {
	f := New(4)
	if err := f.AddNominalCodes("k", []uint8{1, 0, 9, 1}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("k")
	c.SetMissing(3)
	v := c.Values()
	if v[0] != 1 || v[1] != 0 {
		t.Errorf("Values = %v", v)
	}
	if !math.IsNaN(v[2]) {
		t.Error("out-of-range code must decode to NaN")
	}
	if !math.IsNaN(v[3]) {
		t.Error("SetMissing cell must decode to NaN")
	}
	// Continuous columns alias their storage, missing cells included.
	if err := f.AddContinuous("x", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	x := f.MustCol("x")
	x.SetMissing(1)
	vv := x.Values()
	if &vv[0] != &x.Data[0] || !math.IsNaN(vv[1]) || vv[2] != 3 {
		t.Error("continuous Values must alias Data, its missing cell NaN")
	}
}

func TestTypedCloneAndSubset(t *testing.T) {
	f := New(4)
	if err := f.AddNominalInts("k", []int{0, 1, 1, 0}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	c := f.MustCol("k")
	c.SetMissing(2)

	cl := c.Clone()
	cl.Codes()[0] = 1
	cl.SetMissing(1)
	if c.Codes()[0] != 0 || c.Missing(1) {
		t.Error("Clone aliased typed storage")
	}

	sub := f.Subset([]int{2, 3})
	sc := sub.MustCol("k")
	if sc.Codes() == nil || sc.Codes()[0] != MaxTypedLevels || sc.Codes()[1] != 0 {
		t.Errorf("subset codes = %v", sc.Codes())
	}
	if !sc.Missing(0) || sc.Missing(1) {
		t.Error("subset must carry missing cells by position")
	}
	sc.Codes()[1] = 1
	if c.Codes()[3] != 0 {
		t.Error("Subset aliased parent typed storage")
	}
}

func TestAddColumnSharesStorage(t *testing.T) {
	f := New(2)
	if err := f.AddNominalInts("k", []int{0, 1}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	g := New(2)
	if err := g.AddColumn(*f.MustCol("k")); err != nil {
		t.Fatal(err)
	}
	if &g.MustCol("k").Codes()[0] != &f.MustCol("k").Codes()[0] {
		t.Error("AddColumn must share cell storage")
	}
	if err := g.AddColumn(Column{Name: "bad", Kind: Nominal,
		Data: []float64{0, 1}, codes: []uint8{0, 1}, Levels: []string{"a", "b"}}); err == nil {
		t.Error("a column with both storages must be rejected")
	}
	if err := g.AddColumn(Column{Name: "short", Kind: Continuous, Data: []float64{1}}); err == nil {
		t.Error("row-count mismatch must be rejected")
	}
}
