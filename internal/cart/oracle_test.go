package cart

// The bit-exact tree oracle: every fit below is dumped node by node with
// its floats as raw bits, hashed, and compared against the digests in
// testdata/oracle.sha256. The other tree checks print values to a few
// significant digits or use integer targets only, so low-bit drift in a
// gain, an importance total or an impurity would slip past them; this
// one does not. Regenerate the digests with
//
//	go test ./internal/cart -run TestTreeOracle -update-oracle
//
// only when a change is meant to move trees, and say why.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/oracle.sha256 from the current engines")

const oraclePath = "testdata/oracle.sha256"

// oracleFrame builds the oracle's seeded matrix in one of two physical
// layouts: typed uint8 categorical columns, or float64-backed ones. The
// features cover every search path: a continuous column with NaNs, a
// continuous column with tied values and null-marked cells, a 7-level
// nominal with null marks, a 90-level nominal (its LeftSet spans two
// words), and a 6-level ordinal. Targets: a non-integer regression
// response and 2- and 3-class labels.
func oracleFrame(t testing.TB, n int, typed bool) *frame.Frame {
	t.Helper()
	src := rng.New(2024)
	xnan := make([]float64, n)
	xtie := make([]float64, n)
	nom7 := make([]int, n)
	nom90 := make([]int, n)
	ord6 := make([]int, n)
	yreg := make([]float64, n)
	lab2 := make([]int, n)
	lab3 := make([]int, n)
	var tieNull, nomNull []int
	for i := 0; i < n; i++ {
		xnan[i] = src.NormFloat64() * 10
		if src.Float64() < 0.05 {
			xnan[i] = math.NaN()
		}
		xtie[i] = math.Round(src.Float64()*40) / 2
		if src.Float64() < 0.04 {
			tieNull = append(tieNull, i)
		}
		nom7[i] = src.IntN(7)
		if src.Float64() < 0.04 {
			nomNull = append(nomNull, i)
		}
		nom90[i] = src.IntN(90)
		ord6[i] = src.IntN(6)
		v := 0.07*xtie[i] + 0.31*float64(nom7[i]%3) + 0.013*float64(nom90[i]%11) + 0.2*float64(ord6[i]) + src.NormFloat64()*0.4
		if !math.IsNaN(xnan[i]) && xnan[i] > 4 {
			v += 1.3
		}
		yreg[i] = v / 3
		if v > 2.1 {
			lab2[i] = 1
		}
		switch {
		case v > 2.6:
			lab3[i] = 2
		case v > 1.5 || nom90[i]%7 == 0:
			lab3[i] = 1
		}
	}
	levels := func(prefix string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	addCat := func(f *frame.Frame, name string, kind frame.Kind, codes []int, lv []string) {
		if typed {
			b := make([]uint8, len(codes))
			for i, c := range codes {
				b[i] = uint8(c)
			}
			var err error
			if kind == frame.Ordinal {
				err = f.AddOrdinalCodes(name, b, lv)
			} else {
				err = f.AddNominalCodes(name, b, lv)
			}
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		data := make([]float64, len(codes))
		for i, c := range codes {
			data[i] = float64(c)
		}
		if err := f.AddColumn(frame.Column{Name: name, Kind: kind, Data: data, Levels: lv}); err != nil {
			t.Fatal(err)
		}
	}
	f := frame.New(n)
	if err := f.AddContinuous("xnan", xnan); err != nil {
		t.Fatal(err)
	}
	if err := f.AddContinuous("xtie", xtie); err != nil {
		t.Fatal(err)
	}
	addCat(f, "nom7", frame.Nominal, nom7, levels("a", 7))
	addCat(f, "nom90", frame.Nominal, nom90, levels("s", 90))
	addCat(f, "ord6", frame.Ordinal, ord6, levels("o", 6))
	if err := f.AddContinuous("yreg", yreg); err != nil {
		t.Fatal(err)
	}
	addCat(f, "lab2", frame.Nominal, lab2, []string{"neg", "pos"})
	addCat(f, "lab3", frame.Nominal, lab3, []string{"lo", "mid", "hi"})
	for _, i := range tieNull {
		f.MustCol("xtie").MarkNull(i)
	}
	for _, i := range nomNull {
		f.MustCol("nom7").MarkNull(i)
	}
	return f
}

var oracleFeatures = []string{"xnan", "xtie", "nom7", "nom90", "ord6"}

// dumpTree renders every node in preorder with its floats as raw bits,
// then the tree's raw importance totals.
func dumpTree(b *strings.Builder, t *Tree) {
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		fmt.Fprintf(b, "%s N=%d F=%d T=%016x S=%x D=%t V=%016x I=%016x C=[",
			path, n.N, n.Feature, math.Float64bits(n.Threshold), n.LeftSet, n.DefaultLeft,
			math.Float64bits(n.Value), math.Float64bits(n.Impurity))
		for i, c := range n.ClassCounts {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%016x", math.Float64bits(c))
		}
		fmt.Fprintf(b, "] L=%d\n", n.LeafID)
		if !n.IsLeaf() {
			walk(n.Left, path+"L")
			walk(n.Right, path+"R")
		}
	}
	walk(t.Root, "^")
	b.WriteString("importance")
	for _, v := range t.importanceRaw {
		fmt.Fprintf(b, " %016x", math.Float64bits(v))
	}
	b.WriteByte('\n')
}

// oracleFit is one labelled dump.
type oracleFit struct {
	label, dump string
}

func fitDump(t *testing.T, f *frame.Frame, target string, feats []string, cfg Config) string {
	t.Helper()
	tree, err := Fit(f, target, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dumpTree(&b, tree)
	return b.String()
}

// oracleFits runs every oracle fit in a fixed order.
func oracleFits(t *testing.T) []oracleFit {
	var out []oracleFit
	targets := []struct {
		name string
		task Task
	}{{"yreg", Regression}, {"lab2", Classification}, {"lab3", Classification}}
	for _, typed := range []bool{true, false} {
		f := oracleFrame(t, 2400, typed)
		layout := "float64"
		if typed {
			layout = "typed"
		}
		for _, split := range []SplitMethod{SplitExact, SplitBinned} {
			for _, bins := range []int{0, 16} {
				for _, tg := range targets {
					for _, workers := range []int{1, 2} {
						for _, cp := range []float64{0.001, -1} {
							cfg := Config{Task: tg.task, Split: split, Bins: bins, Workers: workers, CP: cp, MaxDepth: 8, MinSplit: 12}
							label := fmt.Sprintf("fit/%s/split=%d/bins=%d/%s/w=%d/cp=%g", layout, split, bins, tg.name, workers, cp)
							out = append(out, oracleFit{label, fitDump(t, f, tg.name, oracleFeatures, cfg)})
						}
					}
				}
			}
		}
	}

	f := oracleFrame(t, 2400, true)
	for _, split := range []SplitMethod{SplitExact, SplitBinned} {
		cfg := Config{Task: Regression, Split: split, Bins: 16, Workers: 2, MaxDepth: 8, MinSplit: 12}
		rows, err := CrossValidate(f, "yreg", oracleFeatures, cfg, []float64{0.001, 0.003, 0.01, 0.05}, 5, 9)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%016x %d %016x %016x\n", math.Float64bits(r.CP), r.Leaves,
				math.Float64bits(r.XError), math.Float64bits(r.XStd))
		}
		out = append(out, oracleFit{fmt.Sprintf("cv/split=%d", split), b.String()})
	}

	if !testing.Short() {
		mc := multiChunkFrame(t, 3*frame.ChunkRows/2+100)
		for _, split := range []SplitMethod{SplitExact, SplitBinned} {
			cfg := Config{Task: Regression, Split: split, MaxDepth: 6, CP: 0.0005, Workers: 2}
			out = append(out, oracleFit{fmt.Sprintf("multichunk/split=%d", split),
				fitDump(t, mc, "y", []string{"x1", "x2", "cat"}, cfg)})
		}
	}

	return append(out, oracleRefits(t)...)
}

// oracleRefits drives Refitter sequences through every outcome (initial,
// stats, subtrees, full) and dumps the tree after each step.
func oracleRefits(t *testing.T) []oracleFit {
	var out []oracleFit
	seen := map[RefitOutcome]bool{}
	hot := func(seed uint64, n int, shift float64) ([][]float64, []float64) {
		src := rng.New(seed)
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{80 + src.Float64()*20, src.NormFloat64() * 10, float64(src.IntN(5))}
			y[i] = shift + src.NormFloat64()*0.5
		}
		return rows, y
	}
	classify := func(y []float64) []float64 {
		out := make([]float64, len(y))
		for i, v := range y {
			switch {
			case v > 9:
				out[i] = 2
			case v > 3:
				out[i] = 1
			}
		}
		return out
	}
	for _, seq := range []struct {
		name    string
		task    Task
		workers int
		cfg     RefitConfig
	}{
		{"reg/w1", Regression, 1, RefitConfig{GlobalDrift: 0.6}},
		{"reg/w2", Regression, 2, RefitConfig{LeafDrift: 0.05, GlobalDrift: 0.3}},
		{"cls/w2", Classification, 2, RefitConfig{GlobalDrift: 0.5}},
	} {
		cfg := seq.cfg
		cfg.Config = Config{Task: seq.task, Workers: seq.workers, CP: 0.002}
		var classes []string
		if seq.task == Classification {
			classes = []string{"lo", "mid", "hi"}
		}
		r, err := NewRefitter("y", refitFeatures(), classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, by := refitData(31, 2500)
		small, sy := refitData(32, 25)
		drift, dy := hot(33, 350, 30)
		more, my := refitData(34, 400)
		flood, fy := hot(35, 2600, -6)
		tail, ty := refitData(36, 40)
		steps := []struct {
			rows [][]float64
			y    []float64
		}{{base, by}, {small, sy}, {drift, dy}, {more, my}, {flood, fy}, {tail, ty}}
		for si, st := range steps {
			y := st.y
			if seq.task == Classification {
				y = classify(y)
			}
			if err := r.Append(st.rows, y); err != nil {
				t.Fatal(err)
			}
			rep, err := r.Refit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			seen[rep.Outcome] = true
			var b strings.Builder
			fmt.Fprintf(&b, "%s rows=%d appended=%d leaves=%d drifted=%d\n",
				rep.Outcome, rep.Rows, rep.RowsAppended, rep.Leaves, rep.Drifted)
			dumpTree(&b, r.Tree())
			out = append(out, oracleFit{fmt.Sprintf("refit/%s/step%d", seq.name, si), b.String()})
		}
	}
	for _, o := range []RefitOutcome{RefitInitial, RefitStats, RefitSubtrees, RefitFull} {
		if !seen[o] {
			t.Errorf("refit sequences never reached outcome %v", o)
		}
	}
	return out
}

func readOracle(t *testing.T) map[string]string {
	t.Helper()
	fh, err := os.Open(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		digest, label, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", oraclePath, sc.Text())
		}
		want[label] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTreeOracle compares one SHA-256 per fit against the committed
// digests. On a mismatch it prints the fit's label and full dump.
func TestTreeOracle(t *testing.T) {
	fits := oracleFits(t)
	if *updateOracle {
		var b strings.Builder
		for _, o := range fits {
			sum := sha256.Sum256([]byte(o.dump))
			fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), o.label)
		}
		if err := os.WriteFile(oraclePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readOracle(t)
	labels := make([]string, 0, len(fits))
	for _, o := range fits {
		labels = append(labels, o.label)
		sum := sha256.Sum256([]byte(o.dump))
		got := hex.EncodeToString(sum[:])
		w, ok := want[o.label]
		switch {
		case !ok:
			t.Errorf("%s: no recorded digest", o.label)
		case got != w:
			t.Errorf("%s: digest %s, want %s; dump:\n%s", o.label, got, w, o.dump)
		}
	}
	if !testing.Short() {
		for label := range want {
			if !slices.Contains(labels, label) {
				t.Errorf("%s: recorded digest has no fit", label)
			}
		}
	}
}
