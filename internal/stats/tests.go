package stats

import (
	"errors"
	"math"
)

// TestResult is the outcome of a hypothesis test.
type TestResult struct {
	// Statistic is the test statistic (t or z, depending on the test).
	Statistic float64
	// DF is the degrees of freedom (0 for z-approximation tests).
	DF float64
	// P is the two-sided p-value.
	P float64
}

// Significant reports whether the result rejects the null at level
// alpha (e.g. 0.05).
func (r TestResult) Significant(alpha float64) bool { return r.P < alpha }

// PairedT performs a paired t-test on equal-length samples (testing that
// the mean of xs[i]-ys[i] is zero). This is the per-stratum "is the
// adjusted SKU effect significant?" check of the Q2 analysis.
func PairedT(xs, ys []float64) (TestResult, error) {
	if len(xs) != len(ys) {
		return TestResult{}, errors.New("stats: paired samples must have equal length")
	}
	if len(xs) < 2 {
		return TestResult{}, errors.New("stats: PairedT needs >= 2 pairs")
	}
	diffs := make([]float64, len(xs))
	for i := range xs {
		diffs[i] = xs[i] - ys[i]
	}
	m := Mean(diffs)
	sd := StdDev(diffs)
	n := float64(len(diffs))
	if sd == 0 {
		if m == 0 {
			return TestResult{Statistic: 0, DF: n - 1, P: 1}, nil
		}
		return TestResult{Statistic: math.Inf(sign(m)), DF: n - 1, P: 0}, nil
	}
	t := m / (sd / math.Sqrt(n))
	return TestResult{Statistic: t, DF: n - 1, P: twoSidedTP(t, n-1)}, nil
}

// WilcoxonSignedRank performs the Wilcoxon signed-rank test on paired
// samples using the normal approximation (valid for n >= ~10), with
// mid-ranks for tied absolute differences; zero differences are dropped
// (Wilcoxon's original treatment).
func WilcoxonSignedRank(xs, ys []float64) (TestResult, error) {
	if len(xs) != len(ys) {
		return TestResult{}, errors.New("stats: paired samples must have equal length")
	}
	var diffs []float64
	for i := range xs {
		if d := xs[i] - ys[i]; d != 0 {
			diffs = append(diffs, d)
		}
	}
	n := len(diffs)
	if n < 5 {
		return TestResult{}, errors.New("stats: Wilcoxon needs >= 5 non-zero pairs")
	}
	abs := make([]float64, n)
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	ranks := Ranks(abs)
	wPlus := 0.0
	for i, d := range diffs {
		if d > 0 {
			wPlus += ranks[i]
		}
	}
	nf := float64(n)
	mean := nf * (nf + 1) / 4
	sd := math.Sqrt(nf * (nf + 1) * (2*nf + 1) / 24)
	z := (wPlus - mean) / sd
	p := 2 * (1 - normalCDF(math.Abs(z)))
	return TestResult{Statistic: z, P: p}, nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// normalCDF is the standard normal CDF.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// twoSidedTP returns the two-sided p-value for a t statistic with df
// degrees of freedom.
func twoSidedTP(t, df float64) float64 {
	if math.IsInf(t, 0) {
		return 0
	}
	if df <= 0 {
		return 1
	}
	// Large df: the normal approximation is indistinguishable and avoids
	// precision issues in the continued fraction.
	if df > 1e6 {
		return 2 * (1 - normalCDF(math.Abs(t)))
	}
	x := df / (df + t*t)
	return regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// via the continued-fraction expansion (Numerical Recipes' betacf, using
// the modified Lentz algorithm).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
