// Package dist implements the probability distributions the simulator
// draws from: Poisson failure counts, LogNormal repair durations,
// Bernoulli outcomes, and Categorical mixtures (alias method).
//
// Samplers take an explicit *rng.Source so every draw is attributable to
// a labelled deterministic stream.
package dist

import (
	"errors"
	"fmt"
	"math"

	"rainshine/internal/rng"
)

// Sampler draws one variate from a distribution.
type Sampler interface {
	Sample(src *rng.Source) float64
}

// Poisson is a Poisson distribution with mean Lambda.
type Poisson struct {
	Lambda float64
}

var _ Sampler = Poisson{}

// Sample draws a Poisson variate. For small means it uses Knuth's
// multiplication method; for large means it uses the PTRS transformed
// rejection sampler (Hörmann 1993), which is O(1).
func (p Poisson) Sample(src *rng.Source) float64 {
	return float64(p.SampleInt(src))
}

// maxPoissonMean is the largest mean SampleInt accepts: half of MaxInt,
// so a count many standard deviations above the mean still fits an int
// (the float-to-int conversion of a larger count would wrap).
const maxPoissonMean = float64(math.MaxInt / 2)

// SampleInt draws a Poisson variate as an int. A mean that is not
// positive, NaN included, yields 0 without a draw. A mean above
// maxPoissonMean, +Inf included, panics: its count would not fit an
// int.
func (p Poisson) SampleInt(src *rng.Source) int {
	switch {
	case !(p.Lambda > 0):
		return 0
	case p.Lambda < 30:
		return poissonKnuth(src, p.Lambda)
	case p.Lambda > maxPoissonMean:
		panic(fmt.Sprintf("dist: Poisson mean %v is too large for an int count", p.Lambda))
	default:
		return poissonPTRS(src, p.Lambda)
	}
}

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 || p.Lambda <= 0 {
		if k == 0 && p.Lambda <= 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - lg)
}

// Mean returns the distribution mean.
func (p Poisson) Mean() float64 { return math.Max(p.Lambda, 0) }

// poissonKnuth is Knuth's multiplication method: the count is the
// number of uniforms whose running product stays above Exp(-lambda).
// Most rack-day means are far below 1, so most counts are 0, decided by
// the first uniform alone; knuthZero settles those without computing
// Exp. Either way the draws consumed are the same.
func poissonKnuth(src *rng.Source, lambda float64) int {
	prod := src.Float64()
	if knuthZero(prod, lambda) {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	for prod > l {
		k++
		prod *= src.Float64()
	}
	return k
}

// knuthZeroScale shrinks knuthZero's bound by 2^-30 relative.
const knuthZeroScale = 1 - 0x1p-30

// knuthZero reports whether a first uniform u already settles Knuth's
// count at mean lambda as 0, without computing Exp(-lambda). The count
// is 0 exactly when u <= Exp(-lambda). For lambda < 1 the bound
// (1-lambda)*knuthZeroScale lies below the computed Exp(-lambda):
// 1-lambda <= exp(-lambda) for every real lambda, computing 1-lambda and
// the product each round by at most 2^-53 relative, and math.Exp errs by
// less than an ulp, all far inside the 2^-30 margin. A false answer
// settles nothing; the caller computes Exp.
func knuthZero(u, lambda float64) bool {
	return lambda < 1 && u <= (1-lambda)*knuthZeroScale
}

// poissonPTRS implements Hörmann's transformed rejection with squeeze.
func poissonPTRS(src *rng.Source, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := src.Float64() - 0.5
		v := src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// LogNormal is the distribution of exp(N(Mu, Sigma)). Repair durations
// are drawn from it: most repairs are quick, a heavy tail takes days.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

var _ Sampler = LogNormal{}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(src *rng.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*src.NormFloat64())
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Bernoulli returns true with probability P.
type Bernoulli struct {
	P float64
}

// Sample draws a Bernoulli trial.
func (b Bernoulli) Sample(src *rng.Source) bool {
	return src.Float64() < b.P
}

// Categorical samples indices proportionally to fixed weights using the
// Vose alias method: O(n) setup, O(1) per draw. Used for picking ticket
// categories, fault types, and device indices.
type Categorical struct {
	prob  []float64
	alias []int
}

// NewCategorical builds an alias table for the given non-negative
// weights. At least one weight must be positive.
func NewCategorical(weights []float64) (*Categorical, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("dist: empty weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: invalid weight %v at %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, errors.New("dist: all weights zero")
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	c := &Categorical{prob: make([]float64, n), alias: make([]int, n)}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small {
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c, nil
}

// Sample draws one index.
func (c *Categorical) Sample(src *rng.Source) int {
	i := src.IntN(len(c.prob))
	if src.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}

// N returns the number of categories.
func (c *Categorical) N() int { return len(c.prob) }
