// Package dist provides the probability distributions used by the error-rate
// estimation framework: Normal and Poisson laws, the exact Poisson binomial
// distribution (used as a ground-truth baseline on small problems), discrete
// random variables with moment computation (the representation the paper uses
// for instruction error probabilities under data variation), and the
// Kolmogorov and total-variation metrics of Section 5.
package dist

import (
	"math"
	"sort"

	"tsperr/internal/numeric"
)

// Distribution is a one-dimensional probability distribution described by its
// cumulative distribution function.
type Distribution interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns the expectation.
	Mean() float64
	// Var returns the variance.
	Var() float64
}

// Normal is a Gaussian distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 { return numeric.NormalCDFMeanStd(x, n.Mu, n.Sigma) }

// Mean returns mu.
func (n Normal) Mean() float64 { return n.Mu }

// Var returns sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// PDF returns the density at x.
func (n Normal) PDF(x float64) float64 {
	return numeric.Gaussian{Mean: n.Mu, Std: n.Sigma}.PDF(x)
}

// Quantile returns the p-th quantile.
func (n Normal) Quantile(p float64) float64 {
	return numeric.Gaussian{Mean: n.Mu, Std: n.Sigma}.Quantile(p)
}

// Poisson is a Poisson distribution with rate Lambda.
type Poisson struct {
	Lambda float64
}

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 || p.Lambda < 0 {
		return 0
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - lg)
}

// CDF returns P(X <= floor(x)). For large Lambda it switches to the
// normal approximation with continuity correction, whose error is
// O(1/sqrt(Lambda)) and negligible at the program scales of the paper
// (Lambda in the millions).
//
// Up to Lambda = 5000 the CDF is an exact PMF sum over the window
// mode ± w, w = ceil(12*sqrt(Lambda) + 24), outside which the Poisson mass is
// below 1e-32. The terms are taken relative to the mode term, so exp(-Lambda)
// (which underflows from Lambda ~ 745) is never formed, and the result is
// the self-normalised ratio of the partial to the full window sum: exactly 0
// below the window, exactly 1 above it, and O(sqrt(Lambda)) work in between
// whatever k is.
func (p Poisson) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := math.Floor(x)
	if p.Lambda <= 0 {
		return 1
	}
	if p.Lambda > 5000 {
		return numeric.NormalCDF((k + 0.5 - p.Lambda) / math.Sqrt(p.Lambda))
	}
	mode := math.Floor(p.Lambda)
	w := math.Ceil(12*math.Sqrt(p.Lambda) + 24)
	lo, hi := math.Max(0, mode-w), mode+w
	if k < lo {
		return 0
	}
	if k >= hi {
		return 1
	}
	// t runs over P(X=i)/P(X=mode), down from the mode by i/lambda and up
	// by lambda/i, summed into the terms at or below k (part) and above it
	// (rest). The terms are positive and each is at most the sum it joins,
	// so plain accumulation stays within a few ulps of a compensated sum.
	inv := 1 / p.Lambda
	var part, rest float64
	t := 1.0
	i := mode
	for ; i > k; i-- {
		rest += t
		t *= i * inv
	}
	for ; i >= lo; i-- {
		part += t
		t *= i * inv
	}
	t = 1
	for i = mode + 1; i <= k; i++ {
		t *= p.Lambda / i
		part += t
	}
	for ; i <= hi; i++ {
		t *= p.Lambda / i
		rest += t
	}
	return part / (part + rest)
}

// Mean returns Lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

// Var returns Lambda.
func (p Poisson) Var() float64 { return p.Lambda }

// PoissonBinomial is the distribution of a sum of independent Bernoulli
// variables with success probabilities Ps. The paper notes computing it
// exactly is prohibitive at scale; we implement the exact O(n^2) dynamic
// program for use as a ground truth on small instances.
type PoissonBinomial struct {
	Ps []float64

	pmf []float64
}

// NewPoissonBinomial builds the distribution and materializes its PMF.
func NewPoissonBinomial(ps []float64) *PoissonBinomial {
	pb := &PoissonBinomial{Ps: ps}
	pmf := make([]float64, 1, len(ps)+1)
	pmf[0] = 1
	for _, p := range ps {
		next := make([]float64, len(pmf)+1)
		for k, q := range pmf {
			next[k] += q * (1 - p)
			next[k+1] += q * p
		}
		pmf = next
	}
	pb.pmf = pmf
	return pb
}

// PMF returns P(X = k).
func (pb *PoissonBinomial) PMF(k int) float64 {
	if k < 0 || k >= len(pb.pmf) {
		return 0
	}
	return pb.pmf[k]
}

// CDF returns P(X <= floor(x)).
func (pb *PoissonBinomial) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := int(math.Floor(x))
	if k >= len(pb.pmf) {
		return 1
	}
	var sum numeric.KahanSum
	for i := 0; i <= k; i++ {
		sum.Add(pb.pmf[i])
	}
	return math.Min(1, sum.Value())
}

// Mean returns the sum of probabilities.
func (pb *PoissonBinomial) Mean() float64 { return numeric.Sum(pb.Ps) }

// Var returns sum p(1-p).
func (pb *PoissonBinomial) Var() float64 {
	var k numeric.KahanSum
	for _, p := range pb.Ps {
		k.Add(p * (1 - p))
	}
	return k.Value()
}

// LeCamBound returns Le Cam's classical bound on the total variation distance
// between this Poisson binomial distribution and Poisson(Mean()):
// d_TV <= sum p_i^2. It is the independent-indicator specialization of the
// Chen-Stein bound the paper uses.
func (pb *PoissonBinomial) LeCamBound() float64 {
	var k numeric.KahanSum
	for _, p := range pb.Ps {
		k.Add(p * p)
	}
	return k.Value()
}

// Discrete is a finitely-supported random variable: value Xs[i] occurs with
// probability Ps[i]. This is the representation the paper uses for
// instruction error probabilities that vary with program input data.
type Discrete struct {
	Xs []float64
	Ps []float64
}

// NewDiscreteUniform builds a Discrete giving each sample equal weight, the
// natural result of recording one error probability per simulated scenario.
func NewDiscreteUniform(samples []float64) Discrete {
	n := len(samples)
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 1 / float64(n)
	}
	xs := make([]float64, n)
	copy(xs, samples)
	return Discrete{Xs: xs, Ps: ps}
}

// Mean returns E[X].
func (d Discrete) Mean() float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(x * d.Ps[i])
	}
	return k.Value()
}

// Moment returns the raw moment E[X^order].
func (d Discrete) Moment(order int) float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(x, float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// AbsMoment returns E[|X|^order].
func (d Discrete) AbsMoment(order int) float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(math.Abs(x), float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// CentralMoment returns E[(X-mean)^order].
func (d Discrete) CentralMoment(order int) float64 {
	m := d.Mean()
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(x-m, float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// AbsCentralMoment returns E[|X-mean|^order].
func (d Discrete) AbsCentralMoment(order int) float64 {
	m := d.Mean()
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(math.Abs(x-m), float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// Var returns the variance.
func (d Discrete) Var() float64 { return d.CentralMoment(2) }

// Std returns the standard deviation.
func (d Discrete) Std() float64 { return math.Sqrt(d.Var()) }

// CDF returns P(X <= x).
func (d Discrete) CDF(x float64) float64 {
	var k numeric.KahanSum
	for i, v := range d.Xs {
		if v <= x {
			k.Add(d.Ps[i])
		}
	}
	return math.Min(1, k.Value())
}

// Scale returns the distribution of c*X.
func (d Discrete) Scale(c float64) Discrete {
	xs := make([]float64, len(d.Xs))
	for i, x := range d.Xs {
		xs[i] = c * x
	}
	ps := make([]float64, len(d.Ps))
	copy(ps, d.Ps)
	return Discrete{Xs: xs, Ps: ps}
}

// Kolmogorov returns the Kolmogorov metric sup_x |F(x) - G(x)| between two
// distributions, evaluated on the supplied grid of points. The grid should
// cover the support of both distributions densely.
func Kolmogorov(f, g func(float64) float64, grid []float64) float64 {
	var worst float64
	for _, x := range grid {
		d := math.Abs(f(x) - g(x))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TotalVariationInt returns the total variation distance between two
// integer-supported PMFs evaluated on 0..n.
func TotalVariationInt(p, q func(int) float64, n int) float64 {
	var k numeric.KahanSum
	for i := 0; i <= n; i++ {
		k.Add(math.Abs(p(i) - q(i)))
	}
	return 0.5 * k.Value()
}

// LinearGrid returns n+1 evenly spaced points spanning [lo, hi].
func LinearGrid(lo, hi float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	g := make([]float64, n+1)
	for i := range g {
		g[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return g
}

// EmpiricalCDF returns a CDF function built from samples.
func EmpiricalCDF(samples []float64) func(float64) float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	n := float64(len(s))
	return func(x float64) float64 {
		if len(s) == 0 {
			return 0
		}
		idx := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))
		return float64(idx) / n
	}
}
