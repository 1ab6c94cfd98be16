package cart

// Fleet-scale bench gates that need engine internals (the binned coding
// pass) or worker-count control, run by `make bench-fleet` /
// `make bench-fleet-multicore` alongside the root harness's
// TestBenchFleet. Shares the BENCH_analysis.json snapshot through
// internal/benchsnap; the -run pattern 'TestBenchFleet' matches both
// packages' gates.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"rainshine/internal/benchsnap"
	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// codingBenchFrames builds the factor-heavy coding-pass scenario twice
// at the same cell values: once with typed uint8 code columns, once
// with the legacy float64 layout (constructed explicitly — the frame
// mutators auto-type narrow categoricals now). A few cells carry the
// missing sentinel of each layout so the pass's missing rewrite is
// exercised, not skipped.
func codingBenchFrames(b testing.TB, n, nFactors int) (typed, legacy []*frame.Column) {
	b.Helper()
	src := rng.New(5)
	levels := []string{"l0", "l1", "l2", "l3", "l4", "l5"}
	tf := frame.New(n)
	lf := frame.New(n)
	for fi := 0; fi < nFactors; fi++ {
		name := fmt.Sprintf("f%02d", fi)
		codes := make([]uint8, n)
		floats := make([]float64, n)
		for i := range codes {
			cd := uint8(src.IntN(len(levels)))
			if src.Float64() < 0.01 {
				codes[i] = 255
				floats[i] = -1 // not a level index: reads as missing
				continue
			}
			codes[i] = cd
			floats[i] = float64(cd)
		}
		if err := tf.AddNominalCodes(name, codes, levels); err != nil {
			b.Fatal(err)
		}
		if err := lf.AddColumn(frame.Column{
			Name: name, Kind: frame.Nominal, Data: floats,
			Levels: append([]string(nil), levels...),
		}); err != nil {
			b.Fatal(err)
		}
		typed = append(typed, tf.MustCol(name))
		legacy = append(legacy, lf.MustCol(name))
	}
	return typed, legacy
}

// benchCodingPass measures the binned engine's coding pass — cells to
// per-feature byte-code arrays — over the given columns. The engine is
// prepared once outside the loop so the measurement is the pass itself,
// not the one-time layout allocation.
func benchCodingPass(cols []*frame.Column, n int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := Config{Task: Regression, Workers: 1, Bins: DefaultBins}
		bb, _, err := newBinned(newFit(context.Background(), cfg, &Tree{}, make([]float64, n)), cols)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bb.codeFeatures(cols); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBenchFleetCodingPass gates the typed-storage payoff: coding a
// factor-heavy 1M-row frame (32 categorical factors) must be at least
// 2x faster from uint8 code columns than from the legacy float64
// layout. Records coding_pass_1m_typed (gated 15% like-for-like against
// the snapshot) with the float64 twin as its baseline.
func TestBenchFleetCodingPass(t *testing.T) {
	if os.Getenv("RAINSHINE_BENCH_FLEET") == "" {
		t.Skip("RAINSHINE_BENCH_FLEET unset; run via `make bench-fleet`")
	}
	const (
		n        = 1_000_000
		nFactors = 32
		gate     = 0.15
	)
	snapPath := os.Getenv("RAINSHINE_BENCH_SNAP")
	if snapPath == "" {
		snapPath = "../../BENCH_analysis.json"
	}
	recorded, err := benchsnap.Read(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	typed, legacy := codingBenchFrames(t, n, nFactors)
	budget := recorded.Budget("coding_pass_1m_typed", gate)
	tr := benchsnap.MeasureGated(benchCodingPass(typed, n), budget, 5)
	lr := benchsnap.MeasureGated(benchCodingPass(legacy, n), 0, 3)
	if tr.N == 0 || lr.N == 0 {
		t.Fatal("coding-pass benchmarks did not run")
	}
	t.Logf("coding_pass_1m_typed: %v", tr)
	t.Logf("coding_pass_1m_float64: %v", lr)
	speedup := float64(lr.NsPerOp()) / float64(tr.NsPerOp())
	if speedup < 2 {
		t.Errorf("typed coding pass only %.2fx faster than float64 (%d vs %d ns/op), want >=2x",
			speedup, tr.NsPerOp(), lr.NsPerOp())
	}
	if budget > 0 {
		rec := recorded.Results["coding_pass_1m_typed"]
		if ratio := float64(tr.NsPerOp()) / float64(rec.NsPerOp); ratio > 1+gate {
			t.Errorf("coding_pass_1m_typed regressed: %d ns/op vs recorded %d (%+.1f%%, gate +%.0f%%)",
				tr.NsPerOp(), rec.NsPerOp, (ratio-1)*100, gate*100)
		}
	} else if rec, ok := recorded.Results["coding_pass_1m_typed"]; ok && rec.NsPerOp > 0 {
		t.Logf("coding_pass_1m_typed: recorded at gomaxprocs=%d, running at %d; gate skipped (not like-for-like)",
			recorded.Procs(rec), runtime.GOMAXPROCS(0))
	} else {
		t.Log("coding_pass_1m_typed: no recorded result to gate against")
	}
	out := os.Getenv("RAINSHINE_BENCH_OUT")
	if out == "" {
		return
	}
	doc, err := benchsnap.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	doc.Results["coding_pass_1m_typed"] = benchsnap.Of(tr)
	base := benchsnap.Of(lr)
	base.Note = "same 1M x 32-factor coding pass from float64 cells; the typed speedup's comparator"
	doc.Baselines["coding_pass_1m_float64"] = base
	if err := benchsnap.Write(out, doc); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("coding-pass bench snapshot merged into %s\n", out)
}

// TestBenchFleetMulticore is the multicore gate: on a runner with at
// least 4 procs, the 1M-row binned fit with Workers=GOMAXPROCS must
// grow a byte-identical tree to the serial fit and beat it by at least
// 2x wall clock. Records cart_fit_1m_binned_multicore (gated 15%
// like-for-like) with the same-box serial run as its baseline. On
// narrower machines the test logs and skips — the speedup cannot be
// demonstrated there, only in CI's multicore job.
func TestBenchFleetMulticore(t *testing.T) {
	if os.Getenv("RAINSHINE_BENCH_FLEET") == "" {
		t.Skip("RAINSHINE_BENCH_FLEET unset; run via `make bench-fleet-multicore`")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("multicore gate needs >=4 procs, have %d; the 2x speedup is gated in CI's multicore job", procs)
	}
	const gate = 0.15
	f := benchScenarioFrame(t, 1_000_000)
	fit := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Fit(f, "y", []string{"x1", "cat"},
					Config{MaxDepth: 6, CP: 0.001, Split: SplitBinned, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Byte identity first: the parallel tree must be the serial tree.
	serialTree, err := Fit(f, "y", []string{"x1", "cat"},
		Config{MaxDepth: 6, CP: 0.001, Split: SplitBinned, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parTree, err := Fit(f, "y", []string{"x1", "cat"},
		Config{MaxDepth: 6, CP: 0.001, Split: SplitBinned, Workers: procs})
	if err != nil {
		t.Fatal(err)
	}
	if serialTree.String() != parTree.String() {
		t.Fatal("workers>1 grew a different tree than the serial fit at 1M rows")
	}

	snapPath := os.Getenv("RAINSHINE_BENCH_SNAP")
	if snapPath == "" {
		snapPath = "../../BENCH_analysis.json"
	}
	recorded, err := benchsnap.Read(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	budget := recorded.Budget("cart_fit_1m_binned_multicore", gate)
	par := benchsnap.MeasureGated(fit(procs), budget, 5)
	ser := benchsnap.MeasureGated(fit(1), 0, 3)
	if par.N == 0 || ser.N == 0 {
		t.Fatal("fit benchmarks did not run")
	}
	t.Logf("cart_fit_1m_binned_multicore (workers=%d): %v", procs, par)
	t.Logf("cart_fit_1m_binned serial (same box): %v", ser)
	speedup := float64(ser.NsPerOp()) / float64(par.NsPerOp())
	if speedup < 2 {
		t.Errorf("multicore binned fit only %.2fx faster than serial (%d vs %d ns/op), want >=2x",
			speedup, par.NsPerOp(), ser.NsPerOp())
	}
	if budget > 0 {
		rec := recorded.Results["cart_fit_1m_binned_multicore"]
		if ratio := float64(par.NsPerOp()) / float64(rec.NsPerOp); ratio > 1+gate {
			t.Errorf("cart_fit_1m_binned_multicore regressed: %d ns/op vs recorded %d (%+.1f%%, gate +%.0f%%)",
				par.NsPerOp(), rec.NsPerOp, (ratio-1)*100, gate*100)
		}
	} else if rec, ok := recorded.Results["cart_fit_1m_binned_multicore"]; ok && rec.NsPerOp > 0 {
		t.Logf("cart_fit_1m_binned_multicore: recorded at gomaxprocs=%d, running at %d; gate skipped (not like-for-like)",
			recorded.Procs(rec), procs)
	} else {
		t.Log("cart_fit_1m_binned_multicore: no recorded result to gate against")
	}
	out := os.Getenv("RAINSHINE_BENCH_OUT")
	if out == "" {
		return
	}
	doc, err := benchsnap.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	doc.Results["cart_fit_1m_binned_multicore"] = benchsnap.Of(par)
	base := benchsnap.Of(ser)
	base.Note = "same-box serial binned fit at 1M rows; the multicore speedup's comparator"
	doc.Baselines["cart_fit_1m_binned_serial"] = base
	if err := benchsnap.Write(out, doc); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("multicore bench snapshot merged into %s\n", out)
}
