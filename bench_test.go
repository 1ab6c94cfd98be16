package rainshine

// Benchmark harness: one benchmark per paper table and figure (the
// regenerators of EXPERIMENTS.md), plus micro-benchmarks for the
// substrates (simulation, CART fitting, μ extraction).
//
// The per-experiment benchmarks share a single reduced study (the
// simulation is deterministic, so sharing does not couple iterations)
// and measure the cost of regenerating the experiment from raw events;
// the figure memo is off by default, so every iteration does real work.
// Run with:
//
//	go test -bench=. -benchmem
//
// `make bench` additionally runs TestBenchAnalysis, which snapshots
// ns/op and allocs/op for the hot analyses to BENCH_analysis.json
// (RAINSHINE_BENCH_OUT) for regression tracking.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"rainshine/internal/benchsnap"
	"rainshine/internal/cart"
	"rainshine/internal/failure"
	"rainshine/internal/figures"
	"rainshine/internal/frame"
	"rainshine/internal/ingest"
	"rainshine/internal/metrics"
	"rainshine/internal/predict"
	"rainshine/internal/provision"
	"rainshine/internal/repair"
	"rainshine/internal/rng"
	"rainshine/internal/simulate"
	"rainshine/internal/tco"
	"rainshine/internal/topology"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// benchData returns the shared reduced study (120+100 racks, one year).
func benchData(b testing.TB) *Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := NewStudy(WithSeed(42), WithDays(365), WithRacks(120, 100))
		if err != nil {
			b.Fatal(err)
		}
		benchStudy = s
		// Pre-build the rack-day frame so per-figure benches measure
		// the figure computation, not the shared cache fill.
		if _, err := s.Figures().RackDays(); err != nil {
			b.Fatal(err)
		}
	})
	return benchStudy
}

func benchErr(b testing.TB, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// benchFig adapts a figure regenerator to the common error signature.
func benchFig[T any](fn func(*figures.Data) (T, error)) func(*figures.Data) error {
	return func(d *figures.Data) error {
		_, err := fn(d)
		return err
	}
}

// figureBenches drives BenchmarkFigures and BenchmarkFigureRegen: every
// paper table and figure with its sanity check.
var figureBenches = []struct {
	name string
	fn   func(*figures.Data) error
}{
	{"TableI", func(d *figures.Data) error {
		if len(d.TableI()) != 2 {
			return errors.New("bad TableI")
		}
		return nil
	}},
	{"TableII", func(d *figures.Data) error {
		if len(d.TableII()) != 11 {
			return errors.New("bad TableII")
		}
		return nil
	}},
	{"TableIII", func(d *figures.Data) error {
		if len(d.TableIII()) == 0 {
			return errors.New("bad TableIII")
		}
		return nil
	}},
	{"TableIV", func(d *figures.Data) error {
		rows, err := d.TableIV()
		if err == nil && len(rows) != 12 {
			err = errors.New("bad TableIV")
		}
		return err
	}},
	{"Fig1", benchFig((*figures.Data).Fig1)},
	{"Fig2", benchFig((*figures.Data).Fig2)},
	{"Fig3", benchFig((*figures.Data).Fig3)},
	{"Fig4", benchFig((*figures.Data).Fig4)},
	{"Fig5", benchFig((*figures.Data).Fig5)},
	{"Fig6", benchFig((*figures.Data).Fig6)},
	{"Fig7", benchFig((*figures.Data).Fig7)},
	{"Fig8", benchFig((*figures.Data).Fig8)},
	{"Fig9", benchFig((*figures.Data).Fig9)},
	{"Fig10", benchFig((*figures.Data).Fig10)},
	{"Fig11", benchFig((*figures.Data).Fig11)},
	{"Fig12", benchFig((*figures.Data).Fig12)},
	{"Fig13", benchFig((*figures.Data).Fig13)},
	{"Fig14", benchFig((*figures.Data).Fig14)},
	{"Fig15", benchFig((*figures.Data).Fig15)},
	{"Fig16", benchFig((*figures.Data).Fig16)},
	{"Fig17", benchFig((*figures.Data).Fig17)},
	{"Fig18", benchFig((*figures.Data).Fig18)},
}

// BenchmarkFigures runs one sub-benchmark per paper table and figure
// (select one with e.g. -bench=Figures/Fig7).
func BenchmarkFigures(b *testing.B) {
	d := benchData(b).Figures()
	for _, fb := range figureBenches {
		b.Run(fb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchErr(b, fb.fn(d))
			}
		})
	}
}

// BenchmarkFigureRegen measures regenerating the complete set of paper
// tables and figures once with the memo off, so every figure computes
// its own sub-analyses (Warmup would compute each shared one once).
func BenchmarkFigureRegen(b *testing.B) {
	d := benchData(b).Figures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fb := range figureBenches {
			benchErr(b, fb.fn(d))
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSimulateYear measures generating one year of telemetry for a
// 50-rack fleet (fleet build + climate + events + tickets).
func BenchmarkSimulateYear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := simulate.Run(simulate.Config{
			Seed:     uint64(i + 1),
			Days:     365,
			Topology: topology.Config{RacksPerDC: [2]int{25, 25}},
		})
		benchErr(b, err)
	}
}

// BenchmarkSimulatePaper measures the simulation at the size every cold
// paper-scale study pays for first: the default fleet (621 racks) over
// the default 930-day window, with the study's default worker pool.
// BenchmarkSimulateYear's 50-rack fleet is too small for the serial
// parts (the climate fill, ticket synthesis) to show.
func BenchmarkSimulatePaper(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := simulate.RunContext(context.Background(), simulate.Config{Seed: 42})
		benchErr(b, err)
	}
}

// cartBenchFrame builds the reference CART scenario at the given row
// count: one continuous driver, one 7-level nominal, additive response.
// The same generator serves the 20k and fleet-scale (1M) benchmarks so
// their numbers are comparable.
func cartBenchFrame(b testing.TB, n int) *frame.Frame {
	b.Helper()
	src := rng.New(1)
	x1 := make([]float64, n)
	cat := make([]int, n)
	y := make([]float64, n)
	for i := range y {
		x1[i] = src.Float64() * 100
		cat[i] = src.IntN(7)
		y[i] = x1[i]*0.01 + float64(cat[i])
	}
	f := frame.New(n)
	benchErr(b, f.AddContinuous("x1", x1))
	benchErr(b, f.AddNominalInts("cat", cat, []string{"a", "b", "c", "d", "e", "f", "g"}))
	benchErr(b, f.AddContinuous("y", y))
	return f
}

// BenchmarkCARTFit measures fitting a regression tree on 20k rows with
// mixed feature types (exact engine: 20k is below cart.AutoBinRows).
func BenchmarkCARTFit(b *testing.B) {
	f := cartBenchFrame(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cart.Fit(f, "y", []string{"x1", "cat"}, cart.Config{MaxDepth: 6, CP: 0.001})
		benchErr(b, err)
	}
}

// BenchmarkCARTFit1MBinned measures the same scenario at fleet scale:
// one million rows, which SplitAuto routes through the histogram-binned
// engine. Recorded as cart_fit_1m_binned by `make bench-fleet`.
func BenchmarkCARTFit1MBinned(b *testing.B) {
	f := cartBenchFrame(b, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cart.Fit(f, "y", []string{"x1", "cat"}, cart.Config{MaxDepth: 6, CP: 0.001})
		benchErr(b, err)
	}
}

// benchCARTFit1MExact is the exact-engine counterpart at 1M rows, run
// only through TestBenchFleet (it takes ~1s per iteration, so it stays
// out of the -bench=. sweep) to record the cart_fit_1m_exact baseline
// the binned speedup is judged against.
func benchCARTFit1MExact(b *testing.B) {
	f := cartBenchFrame(b, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cart.Fit(f, "y", []string{"x1", "cat"},
			cart.Config{MaxDepth: 6, CP: 0.001, Split: cart.SplitExact})
		benchErr(b, err)
	}
}

// --- incremental refit (streaming) benchmarks ---

// refitBenchData generates the streaming-refit scenario at the
// cart_fit_20k scale: a 20k-row accumulated history plus one streamed
// day whose feature distribution drifted (x1 concentrated high), so the
// refit is a real drift refit rather than a stats refresh. The same
// mixed schema as cartBenchFrame keeps the numbers comparable.
func refitBenchData() (base [][]float64, baseY []float64, day [][]float64, dayY []float64) {
	src := rng.New(3)
	mk := func(n int, lo, span float64) ([][]float64, []float64) {
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			x1 := lo + src.Float64()*span
			cat := float64(src.IntN(7))
			rows[i] = []float64{x1, cat}
			y[i] = x1*0.01 + cat
		}
		return rows, y
	}
	base, baseY = mk(20000, 0, 100)
	day, dayY = mk(250, 60, 40)
	return base, baseY, day, dayY
}

func newBenchRefitter(b testing.TB) *cart.Refitter {
	b.Helper()
	r, err := cart.NewRefitter("y", []cart.Feature{
		{Name: "x1", Kind: frame.Continuous},
		{Name: "cat", Kind: frame.Nominal, Levels: []string{"a", "b", "c", "d", "e", "f", "g"}},
	}, nil, cart.RefitConfig{
		Config: cart.Config{MaxDepth: 6, CP: 0.001, Workers: 1, Split: cart.SplitExact},
	})
	benchErr(b, err)
	return r
}

// BenchmarkIncrementalRefit20k measures bringing a fitted 20k-row tree
// current after one streamed day of drifted rows — the live maintainer's
// steady-state cost. The fitted base state is rebuilt outside the timer
// each iteration; only the day's Append (a sort into the pending runs)
// plus Refit (which merges them into the presorted orders) is measured.
// Recorded as incremental_refit_20k by `make stream-replay`.
func BenchmarkIncrementalRefit20k(b *testing.B) {
	base, baseY, day, dayY := refitBenchData()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newBenchRefitter(b)
		benchErr(b, r.Append(base, baseY))
		_, err := r.Refit(ctx)
		benchErr(b, err)
		b.StartTimer()
		benchErr(b, r.Append(day, dayY))
		_, err = r.Refit(ctx)
		benchErr(b, err)
	}
}

// BenchmarkFullRefit20k is the comparator: rebuild the model from
// scratch over the identical 20k+day history, the cost a batch pipeline
// pays on every day-close. The incremental path must beat this
// (TestBenchStreamRefit enforces it).
func BenchmarkFullRefit20k(b *testing.B) {
	base, baseY, day, dayY := refitBenchData()
	all := append(append([][]float64{}, base...), day...)
	allY := append(append([]float64{}, baseY...), dayY...)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newBenchRefitter(b)
		benchErr(b, r.Append(all, allY))
		_, err := r.Refit(ctx)
		benchErr(b, err)
	}
}

// BenchmarkMuDaily measures extracting per-rack daily μ distributions.
func BenchmarkMuDaily(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := metrics.MuDistributions(s.Figures().Res, []failure.Component{
			failure.Disk, failure.DIMM, failure.ServerOther,
		}, metrics.Daily)
		benchErr(b, err)
	}
}

// BenchmarkMuHourly measures the hourly-granularity variant.
func BenchmarkMuHourly(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := metrics.MuDistributions(s.Figures().Res, []failure.Component{
			failure.Disk, failure.DIMM, failure.ServerOther,
		}, metrics.Hourly)
		benchErr(b, err)
	}
}

// BenchmarkRackDayFrame measures materializing the λ analysis frame.
func BenchmarkRackDayFrame(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := metrics.RackDayFrame(s.Figures().Res)
		benchErr(b, err)
	}
}

// BenchmarkAudit measures the non-mutating data-quality audit of the
// shared study: ticket validation, dedup and the repeat-counter check,
// then the sensor gap scan.
func BenchmarkAudit(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ingest.Audit(s.Figures().Res)
		benchErr(b, err)
	}
}

// BenchmarkClimateGuidance measures the full Q3 pipeline on the shared
// study: MF fit, baseline fit, residual environment tree, hot-regime RH
// scan, and per-DC group rates.
func BenchmarkClimateGuidance(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.ClimateGuidance()
		benchErr(b, err)
	}
}

// BenchmarkVendorComparison measures the full Q2 pipeline on the shared
// study: the SF view, the MF standardization, the paired contrast's
// significance tests, and the TCO verdicts.
func BenchmarkVendorComparison(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.VendorComparison()
		benchErr(b, err)
	}
}

// BenchmarkAblationFeatures measures the feature-subset ablation sweep.
func BenchmarkAblationFeatures(b *testing.B) {
	d := benchData(b).Figures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.AblationFeatures()
		benchErr(b, err)
	}
}

// BenchmarkAblationClusterBudget measures the cluster-budget sweep.
func BenchmarkAblationClusterBudget(b *testing.B) {
	d := benchData(b).Figures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.AblationClusterBudget()
		benchErr(b, err)
	}
}

// BenchmarkPredictTrain measures training and evaluating the failure
// predictor on the shared study's rack-day table.
func BenchmarkPredictTrain(b *testing.B) {
	s := benchData(b)
	f, err := s.Figures().RackDays()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := predict.Train(f, predict.Config{Balance: true})
		benchErr(b, err)
	}
}

// BenchmarkGranularitySweep measures the provisioning-granularity sweep.
func BenchmarkGranularitySweep(b *testing.B) {
	d := benchData(b).Figures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.GranularitySweep()
		benchErr(b, err)
	}
}

// BenchmarkPooling measures the spare-pooling scope sweep.
func BenchmarkPooling(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := provision.AnalyzePooling(s.Figures().Res, metrics.Daily)
		benchErr(b, err)
	}
}

// BenchmarkRepairPolicy measures the replace-vs-service comparison.
func BenchmarkRepairPolicy(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := repair.Compare(s.Figures().Res, tco.Default(), repair.Params{}, 1)
		benchErr(b, err)
	}
}

// BenchmarkCrossValidate measures 5-fold cp selection on a rack-sized
// regression problem.
func BenchmarkCrossValidate(b *testing.B) {
	src := rng.New(2)
	const n = 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		x[i] = src.Float64() * 10
		if x[i] > 5 {
			y[i] = 1
		}
		y[i] += src.NormFloat64() * 0.3
	}
	f := frame.New(n)
	benchErr(b, f.AddContinuous("x", x))
	benchErr(b, f.AddContinuous("y", y))
	cands := []float64{0.001, 0.01, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cart.CrossValidate(f, "y", []string{"x"},
			cart.Config{Task: cart.Regression, MaxDepth: 5, MinSplit: 10, MinLeaf: 5}, cands, 5, 1)
		benchErr(b, err)
	}
}

// --- regression snapshot ---
//
// The snapshot schema and merge/gate helpers live in
// internal/benchsnap, shared with the bench-gating tests inside
// internal/cart (coding pass, multicore fit). Every fresh measurement
// carries the GOMAXPROCS it ran under, and gates only fire when the
// recorded entry was measured at the same parallelism (Doc.Budget).

// TestBenchAnalysis snapshots the hot-path benchmarks (CART fit,
// cross-validation, the Q3 pipeline, figure regeneration, predictor
// training) to the JSON file named by RAINSHINE_BENCH_OUT, so `make
// bench` leaves a committed record that regressions diff against. Skipped
// when the variable is unset.
func TestBenchAnalysis(t *testing.T) {
	out := os.Getenv("RAINSHINE_BENCH_OUT")
	if out == "" {
		t.Skip("RAINSHINE_BENCH_OUT unset; run via `make bench`")
	}
	marks := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"cart_fit_20k", BenchmarkCARTFit},
		{"cart_crossvalidate", BenchmarkCrossValidate},
		{"q3_climate_guidance", BenchmarkClimateGuidance},
		{"figure_regen", BenchmarkFigureRegen},
		{"predict_train", BenchmarkPredictTrain},
	}
	doc, err := benchsnap.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range marks {
		r := testing.Benchmark(m.fn)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run", m.name)
		}
		doc.Results[m.name] = benchsnap.Of(r)
		t.Logf("%s: %v", m.name, r)
	}
	if err := benchsnap.Write(out, doc); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("bench snapshot written to %s\n", out)
}

// TestBenchStreamRefit is the streaming gate behind `make stream-replay`:
// it measures the single-day incremental refit against the from-scratch
// full refit over the identical 20k+day history (min-of-k, see
// measureGated), fails unless the incremental path wins, fails if
// incremental_refit_20k regressed more than 15% ns/op against the
// committed snapshot, and — when RAINSHINE_BENCH_OUT is set — merges the
// fresh number into the snapshot with the full-refit comparator recorded
// as a baseline so the speedup stays auditable.
func TestBenchStreamRefit(t *testing.T) {
	if os.Getenv("RAINSHINE_BENCH_STREAM") == "" {
		t.Skip("RAINSHINE_BENCH_STREAM unset; run via `make stream-replay`")
	}
	const gate = 0.15
	recorded, err := benchsnap.Read("BENCH_analysis.json")
	if err != nil {
		t.Fatal(err)
	}
	budget := recorded.Budget("incremental_refit_20k", gate)
	inc := benchsnap.MeasureGated(BenchmarkIncrementalRefit20k, budget, 5)
	full := benchsnap.MeasureGated(BenchmarkFullRefit20k, 0, 3)
	if inc.N == 0 || full.N == 0 {
		t.Fatal("refit benchmarks did not run")
	}
	t.Logf("incremental_refit_20k: %v", inc)
	t.Logf("full_refit_20k: %v", full)
	if inc.NsPerOp() >= full.NsPerOp() {
		t.Errorf("incremental refit (%d ns/op) does not beat full refit (%d ns/op) on single-day drift",
			inc.NsPerOp(), full.NsPerOp())
	}
	if budget > 0 {
		rec := recorded.Results["incremental_refit_20k"]
		if ratio := float64(inc.NsPerOp()) / float64(rec.NsPerOp); ratio > 1+gate {
			t.Errorf("incremental_refit_20k regressed: %d ns/op vs recorded %d (%+.1f%%, gate +%.0f%%)",
				inc.NsPerOp(), rec.NsPerOp, (ratio-1)*100, gate*100)
		}
	} else if rec, ok := recorded.Results["incremental_refit_20k"]; ok && rec.NsPerOp > 0 {
		t.Logf("incremental_refit_20k: recorded at gomaxprocs=%d, running at %d; gate skipped (not like-for-like)",
			recorded.Procs(rec), runtime.GOMAXPROCS(0))
	} else {
		t.Log("incremental_refit_20k: no recorded result to gate against")
	}
	out := os.Getenv("RAINSHINE_BENCH_OUT")
	if out == "" {
		return
	}
	doc, err := benchsnap.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	doc.Results["incremental_refit_20k"] = benchsnap.Of(inc)
	base := benchsnap.Of(full)
	base.Note = "from-scratch refit over the same 20k+day rows; the incremental gate's comparator"
	doc.Baselines["full_refit_20k"] = base
	if err := benchsnap.Write(out, doc); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("stream bench snapshot merged into %s\n", out)
}

// TestBenchFleet is the fleet-scale gate behind `make bench-fleet`: it
// re-measures the 20k exact fit and the 1M binned fit (best-of-N, see
// measureGated), fails if either regressed more than 15% in ns/op
// against the committed snapshot, and
// — when RAINSHINE_BENCH_OUT is set — merges the fresh numbers into the
// snapshot, recording a cart_fit_1m_exact baseline (with its iteration
// count) the first time it runs so the binned speedup stays auditable.
func TestBenchFleet(t *testing.T) {
	if os.Getenv("RAINSHINE_BENCH_FLEET") == "" {
		t.Skip("RAINSHINE_BENCH_FLEET unset; run via `make bench-fleet`")
	}
	const gate = 0.15
	recorded, err := benchsnap.Read("BENCH_analysis.json")
	if err != nil {
		t.Fatal(err)
	}
	marks := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"cart_fit_20k", BenchmarkCARTFit},
		{"cart_fit_1m_binned", BenchmarkCARTFit1MBinned},
	}
	fresh := map[string]benchsnap.Result{}
	for _, m := range marks {
		budget := recorded.Budget(m.name, gate)
		r := benchsnap.MeasureGated(m.fn, budget, 5)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run", m.name)
		}
		fresh[m.name] = benchsnap.Of(r)
		t.Logf("%s: %v", m.name, r)
		if budget == 0 {
			if rec, ok := recorded.Results[m.name]; ok && rec.NsPerOp > 0 {
				t.Logf("%s: recorded at gomaxprocs=%d, running at %d; gate skipped (not like-for-like)",
					m.name, recorded.Procs(rec), runtime.GOMAXPROCS(0))
			} else {
				t.Logf("%s: no recorded result to gate against", m.name)
			}
			continue
		}
		rec := recorded.Results[m.name]
		if ratio := float64(r.NsPerOp()) / float64(rec.NsPerOp); ratio > 1+gate {
			t.Errorf("%s regressed: %d ns/op vs recorded %d (%+.1f%%, gate +%.0f%%)",
				m.name, r.NsPerOp(), rec.NsPerOp, (ratio-1)*100, gate*100)
		}
	}
	out := os.Getenv("RAINSHINE_BENCH_OUT")
	if out == "" {
		return
	}
	doc, err := benchsnap.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range fresh {
		doc.Results[name] = r
	}
	if _, ok := doc.Baselines["cart_fit_1m_exact"]; !ok {
		r := testing.Benchmark(benchCARTFit1MExact)
		base := benchsnap.Of(r)
		base.Note = "presorted exact engine at 1M rows; reference for the binned speedup"
		doc.Baselines["cart_fit_1m_exact"] = base
		t.Logf("cart_fit_1m_exact baseline: %v", r)
	}
	if err := benchsnap.Write(out, doc); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("fleet bench snapshot merged into %s\n", out)
}
