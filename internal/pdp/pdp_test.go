package pdp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
	"rainshine/internal/stats"
)

// confoundedFrame builds the canonical Q2 situation: two SKUs where the
// true effect is 2x but SKU "bad" is also placed in the hot DC, which
// doubles rates again, so the naive contrast looks like ~4x.
func confoundedFrame(t *testing.T, n int) *frame.Frame {
	t.Helper()
	src := rng.New(9)
	sku := make([]int, n)
	dc := make([]int, n)
	y := make([]float64, n)
	for i := range y {
		sku[i] = src.IntN(2)
		// SKU 1 ("bad") lands in DC 1 ("hot") 90% of the time;
		// SKU 0 lands there only 10% of the time.
		p := 0.1
		if sku[i] == 1 {
			p = 0.9
		}
		if src.Float64() < p {
			dc[i] = 1
		}
		rate := 1.0
		if sku[i] == 1 {
			rate *= 2 // true SKU effect
		}
		if dc[i] == 1 {
			rate *= 2 // confounder effect
		}
		y[i] = rate + src.NormFloat64()*0.05
	}
	f := frame.New(n)
	if err := f.AddNominalInts("sku", sku, []string{"good", "bad"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("dc", dc, []string{"cool", "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStandardizeRemovesConfounding(t *testing.T) {
	f := confoundedFrame(t, 4000)
	// Naive contrast is inflated.
	_, naive, _, err := f.GroupMeans("sku", "y")
	if err != nil {
		t.Fatal(err)
	}
	naiveRatio := naive[1] / naive[0]
	if naiveRatio < 3 {
		t.Fatalf("test setup broken: naive ratio = %v, want >3", naiveRatio)
	}
	effects, err := Standardize(f, "y", "sku", []string{"dc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(effects) != 2 {
		t.Fatalf("effects = %+v", effects)
	}
	byLevel := map[string]LevelEffect{}
	for _, e := range effects {
		byLevel[e.Level] = e
	}
	adjRatio := byLevel["bad"].Mean / byLevel["good"].Mean
	if math.Abs(adjRatio-2) > 0.2 {
		t.Errorf("adjusted ratio = %v, want ~2 (naive was %v)", adjRatio, naiveRatio)
	}
	if byLevel["bad"].N == 0 || byLevel["bad"].Strata == 0 {
		t.Errorf("bookkeeping: %+v", byLevel["bad"])
	}
}

func TestStandardizeErrors(t *testing.T) {
	f := confoundedFrame(t, 100)
	if _, err := Standardize(f, "y", "y", []string{"dc"}); err == nil {
		t.Error("continuous variable of interest should error")
	}
	if _, err := Standardize(f, "y", "sku", nil); err == nil {
		t.Error("no covariates should error")
	}
	if _, err := Standardize(f, "y", "sku", []string{"y"}); err == nil {
		t.Error("continuous covariate should error")
	}
	if _, err := Standardize(f, "nope", "sku", []string{"dc"}); err == nil {
		t.Error("missing metric should error")
	}
	if _, err := Standardize(f, "y", "nope", []string{"dc"}); err == nil {
		t.Error("missing variable should error")
	}
	if _, err := Standardize(f, "y", "sku", []string{"nope"}); err == nil {
		t.Error("missing covariate should error")
	}
	if _, err := Standardize(f, "dc", "sku", []string{"dc"}); err == nil {
		t.Error("typed metric should error")
	}
	wide := wideCovariates(t, f)
	if _, err := Standardize(f, "y", "sku", wide); err == nil {
		t.Error("covariates past the dense index bound should error")
	}
}

// wideCovariates adds three 300-level covariates to f: 301^3 strata, far
// past the dense index bound.
func wideCovariates(t *testing.T, f *frame.Frame) []string {
	t.Helper()
	levels := make([]string, 300)
	for i := range levels {
		levels[i] = fmt.Sprint(i)
	}
	names := []string{"w0", "w1", "w2"}
	for _, name := range names {
		if err := f.AddNominalInts(name, make([]int, f.NumRows()), levels); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func TestStandardizeNoOverlap(t *testing.T) {
	// Perfect confounding: sku==dc exactly; no stratum has both levels.
	n := 100
	sku := make([]int, n)
	dc := make([]int, n)
	y := make([]float64, n)
	for i := range sku {
		sku[i] = i % 2
		dc[i] = i % 2
		y[i] = float64(i % 2)
	}
	f := frame.New(n)
	if err := f.AddNominalInts("sku", sku, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("dc", dc, []string{"c", "d"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("y", y); err != nil {
		t.Fatal(err)
	}
	if _, err := Standardize(f, "y", "sku", []string{"dc"}); err == nil {
		t.Error("perfectly confounded data should error, not silently return naive answer")
	}
}

func TestBinContinuous(t *testing.T) {
	f := frame.New(5)
	if err := f.AddContinuous("t", []float64{55, 61, 66, 71, 80}); err != nil {
		t.Fatal(err)
	}
	name, err := BinContinuous(f, "t", []float64{60, 65, 70, 75})
	if err != nil {
		t.Fatal(err)
	}
	if name != "t_bin" {
		t.Errorf("name = %q", name)
	}
	c := f.MustCol("t_bin")
	// 55 clamps into first bin; 80 clamps into last.
	want := []float64{0, 0, 1, 2, 2}
	for i, w := range want {
		if got := c.Float(i); got != w {
			t.Errorf("bin[%d] = %v, want %v", i, got, w)
		}
	}
	if c.Levels[0] != "60-65" {
		t.Errorf("labels = %v", c.Levels)
	}
	if c.Codes() == nil {
		t.Error("three bins should use typed code storage")
	}
	// Bins past the typed layout fall back to float64 codes.
	edges := make([]float64, 300)
	for i := range edges {
		edges[i] = float64(i)
	}
	if err := f.AddContinuous("u", []float64{0.5, 298.5, 1000, -3, 7}); err != nil {
		t.Fatal(err)
	}
	name, err = BinContinuous(f, "u", edges)
	if err != nil {
		t.Fatal(err)
	}
	c = f.MustCol(name)
	for i, w := range []float64{0, 298, 298, 0, 7} {
		if got := c.Float(i); got != w {
			t.Errorf("wide bin[%d] = %v, want %v", i, got, w)
		}
	}
	if c.Codes() != nil {
		t.Error("299 bins should use float64 codes")
	}
}

func TestBinContinuousErrors(t *testing.T) {
	f := frame.New(2)
	if err := f.AddNominalInts("k", []int{0, 1}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := BinContinuous(f, "k", []float64{0, 1}); err == nil {
		t.Error("categorical input should error")
	}
	if _, err := BinContinuous(f, "nope", []float64{0, 1}); err == nil {
		t.Error("missing column should error")
	}
	if err := f.AddContinuous("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := BinContinuous(f, "x", []float64{0}); err == nil {
		t.Error("single edge should error")
	}
}

func TestBinIndexNaN(t *testing.T) {
	if got := binIndex([]float64{0, 1, 2}, math.NaN()); got != 0 {
		t.Errorf("NaN bin = %d", got)
	}
}

func TestPairedContrast(t *testing.T) {
	f := confoundedFrame(t, 3000)
	diffs, err := PairedContrast(f, "y", "sku", "bad", "good", []string{"dc"})
	if err != nil {
		t.Fatal(err)
	}
	// Two DC strata, both observing both SKUs.
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v", diffs)
	}
	// Within each stratum the true SKU effect is +1 (cool) or +2 (hot).
	for _, d := range diffs {
		if d < 0.5 || d > 2.5 {
			t.Errorf("stratum diff %v outside the true effect range", d)
		}
	}
}

func TestPairedContrastErrors(t *testing.T) {
	f := confoundedFrame(t, 200)
	if _, err := PairedContrast(f, "y", "y", "a", "b", []string{"dc"}); err == nil {
		t.Error("continuous variable should error")
	}
	if _, err := PairedContrast(f, "y", "sku", "nope", "good", []string{"dc"}); err == nil {
		t.Error("unknown level should error")
	}
	if _, err := PairedContrast(f, "y", "sku", "bad", "good", nil); err == nil {
		t.Error("no covariates should error")
	}
	if _, err := PairedContrast(f, "y", "sku", "bad", "good", []string{"y"}); err == nil {
		t.Error("continuous covariate should error")
	}
	if _, err := PairedContrast(f, "nope", "sku", "bad", "good", []string{"dc"}); err == nil {
		t.Error("missing metric should error")
	}
	if _, err := PairedContrast(f, "y", "nope", "bad", "good", []string{"dc"}); err == nil {
		t.Error("missing variable should error")
	}
	if _, err := PairedContrast(f, "y", "sku", "bad", "good", []string{"nope"}); err == nil {
		t.Error("missing covariate should error")
	}
	if _, err := PairedContrast(f, "dc", "sku", "bad", "good", []string{"dc"}); err == nil {
		t.Error("typed metric should error")
	}
	if _, err := PairedContrast(f, "y", "sku", "bad", "good", wideCovariates(t, f)); err == nil {
		t.Error("covariates past the dense index bound should error")
	}
}

// refStandardize is the string-keyed direct standardization the dense
// stratum index replaced, kept as the reference the index must match
// bit for bit. A stratum key is two little-endian bytes of each
// covariate's code; strata are visited in sorted key order.
func refStandardize(f *frame.Frame, metric, of string, covariates []string) ([]LevelEffect, error) {
	oc, err := f.Col(of)
	if err != nil {
		return nil, err
	}
	if oc.Kind == frame.Continuous {
		return nil, fmt.Errorf("pdp: variable of interest %q must be categorical", of)
	}
	mc, err := f.Col(metric)
	if err != nil {
		return nil, err
	}
	if len(covariates) == 0 {
		return nil, errors.New("pdp: need at least one covariate to standardize over")
	}
	covCols := make([]*frame.Column, len(covariates))
	for i, name := range covariates {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if c.Kind == frame.Continuous {
			return nil, fmt.Errorf("pdp: covariate %q is continuous; bin it first", name)
		}
		covCols[i] = c
	}
	type cell struct {
		values map[int][]float64 // level of `of` -> metric values
		n      int
	}
	strata := map[string]*cell{}
	keyBuf := make([]byte, 0, 32)
	for r := 0; r < f.NumRows(); r++ {
		keyBuf = keyBuf[:0]
		for _, c := range covCols {
			v := c.Code(r)
			keyBuf = append(keyBuf, byte(v), byte(v>>8), '|')
		}
		k := string(keyBuf)
		s := strata[k]
		if s == nil {
			s = &cell{values: map[int][]float64{}}
			strata[k] = s
		}
		lvl := oc.Code(r)
		s.values[lvl] = append(s.values[lvl], mc.Data[r])
		s.n++
	}
	nLevels := len(oc.Levels)
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wSum := make([]float64, nLevels)
	wTot := make([]float64, nLevels)
	perStratumMeans := make([][]float64, nLevels)
	perStratumPeaks := make([][]float64, nLevels)
	nobs := make([]int, nLevels)
	strataCount := make([]int, nLevels)
	for _, k := range keys {
		s := strata[k]
		if len(s.values) < 2 {
			continue
		}
		w := float64(s.n)
		for lvl := 0; lvl < nLevels; lvl++ {
			vals := s.values[lvl]
			if len(vals) == 0 {
				continue
			}
			m := stats.Mean(vals)
			wSum[lvl] += w * m
			wTot[lvl] += w
			perStratumMeans[lvl] = append(perStratumMeans[lvl], m)
			pk, err := stats.Quantile(vals, 0.95)
			if err != nil {
				return nil, err
			}
			perStratumPeaks[lvl] = append(perStratumPeaks[lvl], pk)
			nobs[lvl] += len(vals)
			strataCount[lvl]++
		}
	}
	out := make([]LevelEffect, 0, nLevels)
	for lvl := 0; lvl < nLevels; lvl++ {
		if wTot[lvl] == 0 {
			continue
		}
		peak := 0.0
		if len(perStratumPeaks[lvl]) > 0 {
			peak = stats.Mean(perStratumPeaks[lvl])
		}
		out = append(out, LevelEffect{
			Level:  oc.Levels[lvl],
			Mean:   wSum[lvl] / wTot[lvl],
			StdDev: stats.StdDev(perStratumMeans[lvl]),
			Peak:   peak,
			Strata: strataCount[lvl],
			N:      nobs[lvl],
		})
	}
	if len(out) == 0 {
		return nil, errors.New("pdp: no stratum contains two levels of the variable of interest; cannot adjust")
	}
	return out, nil
}

// refPairedContrast is the string-keyed paired contrast the dense
// stratum index replaced, kept as its reference.
func refPairedContrast(f *frame.Frame, metric, of, levelA, levelB string, covariates []string) ([]float64, error) {
	oc, err := f.Col(of)
	if err != nil {
		return nil, err
	}
	if oc.Kind == frame.Continuous {
		return nil, fmt.Errorf("pdp: variable of interest %q must be categorical", of)
	}
	idxA, idxB := -1, -1
	for i, lvl := range oc.Levels {
		switch lvl {
		case levelA:
			idxA = i
		case levelB:
			idxB = i
		}
	}
	if idxA < 0 || idxB < 0 {
		return nil, fmt.Errorf("pdp: levels %q/%q not found in %q", levelA, levelB, of)
	}
	mc, err := f.Col(metric)
	if err != nil {
		return nil, err
	}
	if len(covariates) == 0 {
		return nil, errors.New("pdp: need at least one covariate to stratify")
	}
	covCols := make([]*frame.Column, len(covariates))
	for i, name := range covariates {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if c.Kind == frame.Continuous {
			return nil, fmt.Errorf("pdp: covariate %q is continuous; bin it first", name)
		}
		covCols[i] = c
	}
	type cell struct {
		sumA, sumB float64
		nA, nB     int
	}
	strata := map[string]*cell{}
	keyBuf := make([]byte, 0, 32)
	for r := 0; r < f.NumRows(); r++ {
		lvl := oc.Code(r)
		if lvl != idxA && lvl != idxB {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, c := range covCols {
			v := c.Code(r)
			keyBuf = append(keyBuf, byte(v), byte(v>>8), '|')
		}
		k := string(keyBuf)
		s := strata[k]
		if s == nil {
			s = &cell{}
			strata[k] = s
		}
		if lvl == idxA {
			s.sumA += mc.Data[r]
			s.nA++
		} else {
			s.sumB += mc.Data[r]
			s.nB++
		}
	}
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diffs []float64
	for _, k := range keys {
		s := strata[k]
		if s.nA == 0 || s.nB == 0 {
			continue
		}
		diffs = append(diffs, s.sumA/float64(s.nA)-s.sumB/float64(s.nB))
	}
	if len(diffs) == 0 {
		return nil, errors.New("pdp: no stratum observes both levels")
	}
	return diffs, nil
}

// randomCategorical adds a categorical column of levels levels to f.
// A typed column marks about one row in ten with the 255 missing
// sentinel. A float64-backed one (built directly, as a table wider than
// 255 levels would be) marks them with a single out-of-range code below
// 256: the string keys kept distinct codes in distinct strata, which
// the index merges into one slot.
func randomCategorical(t *testing.T, f *frame.Frame, src *rng.Source, name string, levels int, typed bool) {
	t.Helper()
	names := make([]string, levels)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", name, i)
	}
	missing := levels + src.IntN(256-levels)
	codes := make([]uint8, f.NumRows())
	data := make([]float64, f.NumRows())
	for r := range codes {
		c := src.IntN(levels)
		if src.IntN(10) == 0 {
			c = missing
			if typed {
				c = frame.MaxTypedLevels
			}
		}
		codes[r], data[r] = uint8(c), float64(c)
	}
	var err error
	if typed {
		err = f.AddNominalCodes(name, codes, names)
	} else {
		err = f.AddColumn(frame.Column{Name: name, Kind: frame.Nominal, Data: data, Levels: names})
	}
	if err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStratumIndexMatchesStringKeys pins the dense stratum index to the
// string-keyed reference: on random frames with typed and float64-backed
// covariates, missing sentinels in covariates and in the variable of
// interest, and one to four covariates, both estimators return the same
// values bit for bit and in the same order.
func TestStratumIndexMatchesStringKeys(t *testing.T) {
	src := rng.New(14)
	var compared, contrasted int
	for trial := 0; trial < 400; trial++ {
		n := 20 + src.IntN(600)
		f := frame.New(n)
		ofLevels := 2 + src.IntN(4)
		randomCategorical(t, f, src, "of", ofLevels, src.IntN(4) != 0)
		covs := make([]string, 1+src.IntN(4))
		for i := range covs {
			covs[i] = fmt.Sprintf("c%d", i)
			randomCategorical(t, f, src, covs[i], 1+src.IntN(5), src.IntN(2) == 0)
		}
		y := make([]float64, n)
		for r := range y {
			// Ties exercise the quantile's equal-neighbour path.
			y[r] = float64(src.IntN(4)) + src.NormFloat64()*float64(src.IntN(2))
		}
		if err := f.AddContinuous("y", y); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d (%d rows, covariates %v)", trial, n, covs)

		want, wantErr := refStandardize(f, "y", "of", covs)
		got, err := Standardize(f, "y", "of", covs)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: Standardize err = %v, reference err = %v", name, err, wantErr)
		}
		if err == nil {
			compared++
			if len(got) != len(want) {
				t.Fatalf("%s: %d effects, reference %d", name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Level != w.Level || !sameBits(g.Mean, w.Mean) || !sameBits(g.StdDev, w.StdDev) ||
					!sameBits(g.Peak, w.Peak) || g.Strata != w.Strata || g.N != w.N {
					t.Fatalf("%s: effect %d = %+v, reference %+v", name, i, g, w)
				}
			}
		}

		a := src.IntN(ofLevels)
		b := (a + 1 + src.IntN(ofLevels-1)) % ofLevels
		la, lb := fmt.Sprintf("of%d", a), fmt.Sprintf("of%d", b)
		wantDiffs, wantErr := refPairedContrast(f, "y", "of", la, lb, covs)
		diffs, err := PairedContrast(f, "y", "of", la, lb, covs)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: PairedContrast(%s, %s) err = %v, reference err = %v", name, la, lb, err, wantErr)
		}
		if err == nil {
			contrasted++
			if len(diffs) != len(wantDiffs) {
				t.Fatalf("%s: %d diffs, reference %d", name, len(diffs), len(wantDiffs))
			}
			for i := range diffs {
				if !sameBits(diffs[i], wantDiffs[i]) {
					t.Fatalf("%s: diff %d = %v, reference %v", name, i, diffs[i], wantDiffs[i])
				}
			}
		}
	}
	// The generator must reach the interesting paths, not only errors.
	if compared < 300 || contrasted < 300 {
		t.Fatalf("only %d standardizations and %d contrasts succeeded", compared, contrasted)
	}
}

// TestStratumIndexOrdersWideCodesNumerically pins the one ordering the
// index changed. A float64-backed covariate with 256 or more levels
// keyed its strata on the code's low byte first, so code 256 sorted
// before code 1; the index orders strata numerically.
func TestStratumIndexOrdersWideCodesNumerically(t *testing.T) {
	levels := make([]string, 300)
	for i := range levels {
		levels[i] = fmt.Sprint(i)
	}
	f := frame.New(4)
	if err := f.AddNominalInts("of", []int{0, 1, 0, 1}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts("wide", []int{1, 1, 256, 256}, levels); err != nil {
		t.Fatal(err)
	}
	if f.MustCol("wide").Codes() != nil {
		t.Fatal("a 300-level column should be float64-backed")
	}
	if err := f.AddContinuous("y", []float64{3, 1, 10, 30}); err != nil {
		t.Fatal(err)
	}
	got, err := PairedContrast(f, "y", "of", "a", "b", []string{"wide"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != -20 {
		t.Errorf("diffs = %v, want [2 -20] (code 1's stratum, then 256's)", got)
	}
	ref, err := refPairedContrast(f, "y", "of", "a", "b", []string{"wide"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 || ref[0] != -20 || ref[1] != 2 {
		t.Errorf("reference diffs = %v, want [-20 2] (low byte first)", ref)
	}
}
