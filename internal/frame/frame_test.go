package frame

import (
	"math"
	"reflect"
	"testing"
)

func buildTestFrame(t *testing.T) *Frame {
	t.Helper()
	f := New(4)
	if err := f.AddContinuous("temp", []float64{60, 70, 80, 90}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("sku", []int{0, 1, 0, 1}, []string{"S1", "S2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddOrdinalInts("dow", []int{0, 1, 2, 3}, []string{"Sun", "Mon", "Tue", "Wed"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("rate", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameShape(t *testing.T) {
	f := buildTestFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	names := f.Names()
	want := []string{"temp", "sku", "dow", "rate"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v", names)
		}
	}
}

func TestAddErrors(t *testing.T) {
	f := New(2)
	if err := f.AddContinuous("", []float64{1, 2}); err == nil {
		t.Error("empty name should error")
	}
	if err := f.AddContinuous("x", []float64{1}); err == nil {
		t.Error("wrong length should error")
	}
	if err := f.AddContinuous("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("x", []float64{3, 4}); err == nil {
		t.Error("duplicate name should error")
	}
	if err := f.AddNominalInts("bad", []int{0, 5}, []string{"a"}); err == nil {
		t.Error("out-of-range code should error")
	}
}

func TestColLookup(t *testing.T) {
	f := buildTestFrame(t)
	c, err := f.Col("sku")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Nominal || c.LevelOf(1) != "S2" {
		t.Errorf("col = %+v", c)
	}
	if _, err := f.Col("nope"); err == nil {
		t.Error("missing column should error")
	}
	if f.ColAt(0).Name != "temp" {
		t.Error("ColAt(0) wrong")
	}
}

func TestMustColPanics(t *testing.T) {
	f := buildTestFrame(t)
	defer func() {
		if recover() == nil {
			t.Error("MustCol should panic on missing column")
		}
	}()
	f.MustCol("nope")
}

func TestLevelOfOutOfRange(t *testing.T) {
	f := buildTestFrame(t)
	c := f.MustCol("sku")
	// Corrupted level indices must surface as marked invalids, not
	// format silently as numbers that masquerade as data.
	if got := c.LevelOf(99); got != "<invalid:99>" {
		t.Errorf("LevelOf(99) = %q, want <invalid:99>", got)
	}
	if got := c.LevelOf(-1); got != "<invalid:-1>" {
		t.Errorf("LevelOf(-1) = %q, want <invalid:-1>", got)
	}
	if got := c.LevelOf(0.5); got != "<invalid:0.5>" {
		t.Errorf("LevelOf(0.5) = %q, want <invalid:0.5>", got)
	}
	if got := c.LevelOf(math.NaN()); got != "<invalid:NaN>" {
		t.Errorf("LevelOf(NaN) = %q, want <invalid:NaN>", got)
	}
	if got := c.LevelOf(1); got != "S2" {
		t.Errorf("LevelOf(1) = %q, want S2", got)
	}
	cont := f.MustCol("temp")
	if got := cont.LevelOf(60); got != "60" {
		t.Errorf("continuous LevelOf = %q", got)
	}
}

// LevelRows yields, in row order, exactly the rows whose cell names a
// level, in both layouts, and stops when the loop breaks.
func TestLevelRows(t *testing.T) {
	f := New(6)
	if err := f.AddNominalCodes("typed", []uint8{1, MaxTypedLevels, 0, 2, 1, 0}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn(Column{Name: "float", Kind: Nominal, Data: []float64{1, math.NaN(), 0, -1, 2, 1}, Levels: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][][2]int{
		"typed": {{0, 1}, {2, 0}, {4, 1}, {5, 0}},
		"float": {{0, 1}, {2, 0}, {5, 1}},
	} {
		c := f.MustCol(name)
		var got, byIndex [][2]int
		for r, l := range c.LevelRows() {
			got = append(got, [2]int{r, l})
		}
		for r := 0; r < f.NumRows(); r++ {
			if l, ok := c.LevelIndex(r); ok {
				byIndex = append(byIndex, [2]int{r, l})
			}
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(byIndex, want) {
			t.Errorf("%s: LevelRows %v, LevelIndex %v, want %v", name, got, byIndex, want)
		}
		n := 0
		for range c.LevelRows() {
			n++
			break
		}
		if n != 1 {
			t.Errorf("%s: break after the first row yielded %d rows", name, n)
		}
	}
}

func TestKindString(t *testing.T) {
	if Continuous.String() != "C" || Nominal.String() != "N" || Ordinal.String() != "O" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestSelect(t *testing.T) {
	f := buildTestFrame(t)
	sub, err := f.Select("rate", "sku")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.Names()[0] != "rate" {
		t.Errorf("Select = %v", sub.Names())
	}
	if _, err := f.Select("nope"); err == nil {
		t.Error("Select missing should error")
	}
}

func TestFilterAndSubset(t *testing.T) {
	f := buildTestFrame(t)
	hot := f.Filter(func(r int) bool {
		v, _ := f.Value(r, "temp")
		return v >= 75
	})
	if hot.NumRows() != 2 {
		t.Fatalf("Filter rows = %d", hot.NumRows())
	}
	v, _ := hot.Value(0, "rate")
	if v != 3 {
		t.Errorf("filtered value = %v", v)
	}
	// Subset copies: mutating the subset must not touch the parent.
	hot.MustCol("rate").Data[0] = 99
	orig, _ := f.Value(2, "rate")
	if orig != 3 {
		t.Error("Subset aliased parent storage")
	}
}

func TestValueErrors(t *testing.T) {
	f := buildTestFrame(t)
	if _, err := f.Value(0, "nope"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := f.Value(-1, "temp"); err == nil {
		t.Error("negative row should error")
	}
	if _, err := f.Value(4, "temp"); err == nil {
		t.Error("row past end should error")
	}
}

func TestGroupMeans(t *testing.T) {
	f := buildTestFrame(t)
	levels, means, counts, err := f.GroupMeans("sku", "rate")
	if err != nil {
		t.Fatal(err)
	}
	if levels[0] != "S1" || means[0] != 2 || counts[0] != 2 {
		t.Errorf("S1 group = %v, %v", means[0], counts[0])
	}
	if means[1] != 3 || counts[1] != 2 {
		t.Errorf("S2 group = %v, %v", means[1], counts[1])
	}
	// A key naming no level, the typed missing sentinel or a NaN cell,
	// belongs to no group.
	for _, key := range []string{"typed", "float"} {
		_, means, counts, err := missingKeyFrame(t).GroupMeans(key, "v")
		if err != nil {
			t.Fatal(err)
		}
		if counts[0] != 2 || means[0] != 2 || counts[1] != 1 || means[1] != 2 {
			t.Errorf("%s key: means %v counts %v, want [2 2] [2 1]", key, means, counts)
		}
	}
}

// missingKeyFrame carries the same two-level key twice, typed and
// float64-backed, with one row missing in each layout's sentinel.
func missingKeyFrame(t *testing.T) *Frame {
	t.Helper()
	f := New(4)
	if err := f.AddNominalCodes("typed", []uint8{0, MaxTypedLevels, 1, 0}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn(Column{Name: "float", Kind: Nominal, Data: []float64{0, math.NaN(), 1, 0}, Levels: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("v", []float64{1, 100, 2, 3}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGroupMeansEmptyLevel(t *testing.T) {
	f := New(2)
	if err := f.AddNominalInts("k", []int{0, 0}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("v", []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	_, means, counts, err := f.GroupMeans("k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if counts[1] != 0 || !math.IsNaN(means[1]) {
		t.Errorf("empty level = %v, %d", means[1], counts[1])
	}
}

func TestGroupMeansErrors(t *testing.T) {
	f := buildTestFrame(t)
	if _, _, _, err := f.GroupMeans("temp", "rate"); err == nil {
		t.Error("continuous key should error")
	}
	if _, _, _, err := f.GroupMeans("nope", "rate"); err == nil {
		t.Error("missing key should error")
	}
	if _, _, _, err := f.GroupMeans("sku", "nope"); err == nil {
		t.Error("missing value should error")
	}
}

func TestGroupValues(t *testing.T) {
	f := buildTestFrame(t)
	levels, groups, err := f.GroupValues("sku", "rate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 3 {
		t.Errorf("groups = %v", groups)
	}
	_, groups, err = f.GroupValues("sku", "rate", func(l string) bool { return l == "S2" })
	if err != nil {
		t.Fatal(err)
	}
	if groups[0] != nil || len(groups[1]) != 2 || groups[1][0] != 2 || groups[1][1] != 4 {
		t.Errorf("kept S2 only: groups = %v", groups)
	}
	for _, key := range []string{"typed", "float"} {
		_, groups, err := missingKeyFrame(t).GroupValues(key, "v", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 3 || len(groups[1]) != 1 || groups[1][0] != 2 {
			t.Errorf("%s key: groups = %v, want [[1 3] [2]]", key, groups)
		}
	}
	if _, _, err := f.GroupValues("temp", "rate", nil); err == nil {
		t.Error("continuous key should error")
	}
	if _, _, err := f.GroupValues("nope", "rate", nil); err == nil {
		t.Error("missing key should error")
	}
	if _, _, err := f.GroupValues("sku", "nope", nil); err == nil {
		t.Error("missing value should error")
	}
}
