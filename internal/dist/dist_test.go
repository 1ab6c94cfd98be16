package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rainshine/internal/climate"
	"rainshine/internal/failure"
	"rainshine/internal/rng"
	"rainshine/internal/stats"
	"rainshine/internal/topology"
	"rainshine/internal/workload"
)

func sampleN(s Sampler, src *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Sample(src)
	}
	return xs
}

func TestPoissonMoments(t *testing.T) {
	tests := []struct {
		name   string
		lambda float64
	}{
		{"tiny", 0.1},
		{"small", 3},
		{"boundary", 29.9},
		{"ptrs", 50},
		{"large", 400},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := rng.New(7).Split(tt.name)
			xs := sampleN(Poisson{Lambda: tt.lambda}, src, 40000)
			m := stats.Mean(xs)
			v := stats.Variance(xs)
			tol := 4 * math.Sqrt(tt.lambda/40000) // ~4 sigma of the mean estimator
			if math.Abs(m-tt.lambda) > tol {
				t.Errorf("mean = %v, want %v +- %v", m, tt.lambda, tol)
			}
			if math.Abs(v-tt.lambda)/tt.lambda > 0.1 {
				t.Errorf("variance = %v, want ~%v", v, tt.lambda)
			}
		})
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	src := rng.New(1)
	if got := (Poisson{Lambda: 0}).SampleInt(src); got != 0 {
		t.Errorf("Poisson(0) sample = %d", got)
	}
	if got := (Poisson{Lambda: -1}).SampleInt(src); got != 0 {
		t.Errorf("Poisson(-1) sample = %d", got)
	}
	if got := (Poisson{Lambda: -1}).Mean(); got != 0 {
		t.Errorf("Poisson(-1) mean = %v", got)
	}
}

// refPoissonKnuth is Knuth's method as it was before the zero-draw
// bound: Exp(-lambda) first, then the product loop. It is the reference
// poissonKnuth must match draw for draw.
func refPoissonKnuth(src *rng.Source, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	prod := src.Float64()
	for prod > l {
		k++
		prod *= src.Float64()
	}
	return k
}

// paperRackDayHazards returns the rack-day means the paper-scale study
// (seed 42, 621 racks × 930 days) draws its component counts at, built
// from the same streams simulate.RunContext builds them from; every
// stride-th day of each rack is kept.
func paperRackDayHazards(t *testing.T, stride int) []float64 {
	t.Helper()
	const days = 930
	root := rng.New(42)
	fleet, err := topology.Build(root.Split("topology"), topology.Config{ObservationDays: days})
	if err != nil {
		t.Fatal(err)
	}
	clim, err := climate.New(root.Split("climate"), fleet, days)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := workload.New(root.Split("workload"), days)
	if err != nil {
		t.Fatal(err)
	}
	hz := failure.NewWithDemand(fleet, failure.DefaultParams(), demand)
	var out []float64
	for ri := range fleet.Racks {
		rack := &fleet.Racks[ri]
		for day := max(rack.CommissionDay, 0); day < days; day += stride {
			cond, err := clim.At(ri, day)
			if err != nil {
				t.Fatal(err)
			}
			common := hz.CommonMultiplier(rack, day)
			for c := failure.Disk; c < failure.NumComponents; c++ {
				out = append(out, hz.RackHazard(c, rack, common, cond))
			}
		}
	}
	return out
}

// TestKnuthZeroBound places first draws exactly around the zero-draw
// bound and around Exp(-lambda), one ulp either side of each, for means
// across (0, 1): whenever the bound says the count is 0, the exact
// comparison must say 0 too. The bound must also be the stated one: a
// draw at it says 0, the next draw above it does not.
func TestKnuthZeroBound(t *testing.T) {
	lambdas := []float64{1e-300, 0x1p-1074, 0x1p-53, 1e-9, 1e-4, 0.05, 0.5, 0.99, 1 - 0x1p-53}
	for k := 1; k <= 1074; k++ {
		lambdas = append(lambdas, math.Ldexp(1, -k))
	}
	for k := 1; k <= 53; k++ {
		lambdas = append(lambdas, 1-math.Ldexp(1, -k))
	}
	src := rng.New(11)
	for i := 0; i < 20000; i++ {
		if l := src.Float64(); l > 0 {
			lambdas = append(lambdas, l)
		}
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	// The few paper hazards at or above 1 (dense racks on hot days) never
	// take the bound and are covered by the stream test below.
	for _, l := range paperRackDayHazards(t, stride) {
		if l < 1 {
			lambdas = append(lambdas, l)
		}
	}
	zeros := 0
	for _, l := range lambdas {
		bound := (1 - l) * knuthZeroScale
		exact := math.Exp(-l)
		if !knuthZero(bound, l) || knuthZero(math.Nextafter(bound, 2), l) {
			t.Fatalf("lambda %v: knuthZero does not switch at the bound %v", l, bound)
		}
		for _, x := range []float64{bound, exact} {
			for _, u := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 2)} {
				if knuthZero(u, l) {
					zeros++
					if !(u <= exact) {
						t.Fatalf("lambda %v, u %v: bound says 0, but u > Exp(-lambda) = %v", l, u, exact)
					}
				}
			}
		}
	}
	if zeros == 0 {
		t.Fatal("the bound never said 0")
	}
}

// TestPoissonMatchesReferenceKnuth checks that seeded count streams equal
// the exp-first reference draw for draw, and that both consume the same
// draws, at means on both sides of the zero-draw bound's range and up to
// the Knuth/PTRS switch.
func TestPoissonMatchesReferenceKnuth(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for _, l := range []float64{1e-4, 0.05, 0.5, 0.99, 1, 5, 29} {
		a, b := rng.New(5), rng.New(5)
		p := Poisson{Lambda: l}
		for i := 0; i < n; i++ {
			if got, want := p.SampleInt(a), refPoissonKnuth(b, l); got != want {
				t.Fatalf("lambda %v, draw %d: count %d, reference %d", l, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("lambda %v: the streams consumed different draws", l)
		}
	}
}

// TestPoissonNonFiniteAndHugeMeans covers means the simulator never
// produces: NaN yields 0 without a draw (it used to loop forever in
// PTRS), and a mean whose count cannot fit an int panics naming it (it
// used to return math.MinInt64). The largest accepted mean still draws
// a count near it.
func TestPoissonNonFiniteAndHugeMeans(t *testing.T) {
	src, fresh := rng.New(1), rng.New(1)
	if got := (Poisson{Lambda: math.NaN()}).SampleInt(src); got != 0 {
		t.Errorf("Poisson(NaN) sample = %d, want 0", got)
	}
	if src.Uint64() != fresh.Uint64() {
		t.Error("Poisson(NaN) consumed a draw")
	}
	for _, l := range []float64{math.Inf(1), 1e300, math.Nextafter(maxPoissonMean, math.Inf(1))} {
		func() {
			defer func() {
				p := recover()
				msg, _ := p.(string)
				if want := "Poisson mean " + fmt.Sprint(l); !strings.Contains(msg, want) {
					t.Errorf("Poisson(%v): panic %v, want a message containing %q", l, p, want)
				}
			}()
			got := (Poisson{Lambda: l}).SampleInt(rng.New(1))
			t.Errorf("Poisson(%v) sample = %d, want a panic", l, got)
		}()
	}
	if got := (Poisson{Lambda: maxPoissonMean}).SampleInt(rng.New(1)); math.Abs(float64(got)-maxPoissonMean) > 1e12 {
		t.Errorf("Poisson(%v) sample = %d, want a count near the mean", maxPoissonMean, got)
	}
}

func TestPoissonPMF(t *testing.T) {
	p := Poisson{Lambda: 2}
	// P(X=0) = e^-2, P(X=2) = 2 e^-2.
	if got, want := p.PMF(0), math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Errorf("PMF(0) = %v, want %v", got, want)
	}
	if got, want := p.PMF(2), 2*math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Errorf("PMF(2) = %v, want %v", got, want)
	}
	if p.PMF(-1) != 0 {
		t.Error("PMF(-1) should be 0")
	}
	// PMF sums to ~1.
	sum := 0.0
	for k := 0; k < 40; k++ {
		sum += p.PMF(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sum = %v", sum)
	}
}

func TestPoissonPMFMatchesSamples(t *testing.T) {
	src := rng.New(3)
	p := Poisson{Lambda: 5}
	counts := map[int]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[p.SampleInt(src)]++
	}
	for k := 0; k <= 10; k++ {
		want := p.PMF(k)
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(X=%d): sampled %v, pmf %v", k, got, want)
		}
	}
}

func TestLogNormal(t *testing.T) {
	src := rng.New(19)
	l := LogNormal{Mu: 1, Sigma: 0.5}
	xs := sampleN(l, src, 60000)
	want := l.Mean()
	if m := stats.Mean(xs); math.Abs(m-want)/want > 0.03 {
		t.Errorf("mean = %v, want %v", m, want)
	}
	for _, x := range xs[:100] {
		if x <= 0 {
			t.Fatal("log-normal sample <= 0")
		}
	}
}

func TestBernoulli(t *testing.T) {
	src := rng.New(23)
	b := Bernoulli{P: 0.3}
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if b.Sample(src) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("frequency = %v, want 0.3", frac)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c, err := NewCategorical(weights)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	src := rng.New(29)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(src)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d freq = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	c, err := NewCategorical([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	for i := 0; i < 10; i++ {
		if c.Sample(src) != 0 {
			t.Fatal("single-category sample != 0")
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c, err := NewCategorical([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	for i := 0; i < 20000; i++ {
		if c.Sample(src) == 1 {
			t.Fatal("zero-weight category was sampled")
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}}
	for _, w := range cases {
		if _, err := NewCategorical(w); err == nil {
			t.Errorf("NewCategorical(%v) should error", w)
		}
	}
}
