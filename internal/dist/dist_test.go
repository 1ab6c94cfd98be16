package dist

import (
	"math"
	"testing"

	"rainshine/internal/rng"
	"rainshine/internal/stats"
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
