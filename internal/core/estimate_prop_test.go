package core

import (
	"math"
	"testing"

	"tsperr/internal/dist"
	"tsperr/internal/numeric"
)

// The Equation (14) quadrature memo (initMixture) caches the k-independent
// Simpson nodes and Gaussian weights. This property test pins its equivalence
// with a direct, un-memoized composite-Simpson evaluation over seeded random
// lambda distributions and query points: memoization must change the cost of
// the CDF, never its value.
func TestMixtureMemoMatchesDirectSimpson(t *testing.T) {
	rng := numeric.NewRNG(0x51b50)
	for i := 0; i < 60; i++ {
		mean := 0.5 + 200*rng.Float64()
		std := mean / 3 * rng.Float64()
		e := &Estimate{LambdaMean: mean, LambdaStd: std}

		g := numeric.Gaussian{Mean: mean, Std: std}
		lo := math.Max(0, mean-8*std)
		hi := mean + 8*std
		for j := 0; j < 8; j++ {
			k := math.Floor(4 * mean * rng.Float64())
			direct := numeric.Simpson(func(x float64) float64 {
				return g.PDF(x) * dist.Poisson{Lambda: x}.CDF(k)
			}, lo, hi, mixtureIntervals)
			if lo == 0 {
				direct += g.CDF(0)
			}
			direct = numeric.Clamp(direct, 0, 1)
			got := e.ErrorCountCDF(k)
			if d := math.Abs(got - direct); d > 1e-9 {
				t.Fatalf("case %d/%d: memoized CDF(%v) = %v, direct Simpson %v (diff %v, mean %v std %v)",
					i, j, k, got, direct, d, mean, std)
			}
		}
	}
}

// The mixture CDF must behave like a CDF regardless of the lambda
// distribution: within [0, 1], nondecreasing in k, and degenerate to the pure
// Poisson law when the lambda spread vanishes.
func TestMixtureCDFIsACDF(t *testing.T) {
	rng := numeric.NewRNG(0xcdf)
	for i := 0; i < 40; i++ {
		mean := 0.5 + 100*rng.Float64()
		std := mean / 2 * rng.Float64()
		e := &Estimate{LambdaMean: mean, LambdaStd: std}
		prev := 0.0
		for k := 0.0; k <= 4*mean+5; k++ {
			c := e.ErrorCountCDF(k)
			if c < 0 || c > 1 {
				t.Fatalf("case %d: CDF(%v) = %v out of [0,1]", i, k, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("case %d: CDF not monotone at k=%v: %v < %v", i, k, c, prev)
			}
			prev = c
		}
		if c := e.ErrorCountCDF(4*mean + 10*math.Sqrt(mean) + 50); c < 0.999 {
			t.Errorf("case %d: CDF far right tail only %v", i, c)
		}

		degenerate := &Estimate{LambdaMean: mean, LambdaStd: 0}
		k := math.Floor(mean)
		want := dist.Poisson{Lambda: mean}.CDF(k)
		if d := math.Abs(degenerate.ErrorCountCDF(k) - want); d > 1e-12 {
			t.Errorf("case %d: zero-spread mixture differs from Poisson by %v", i, d)
		}
	}
}

// The quantile bisection memoizes the mixture CDF by integer error count.
// Against a plain bisection that re-evaluates ErrorRateCDF at every step, the
// memoized answer must be bit-identical over seeded random estimates in both
// Poisson regimes.
func TestRateQuantileMemoBitIdentical(t *testing.T) {
	plain := func(e *Estimate, p float64) float64 {
		lo := 0.0
		hi := (e.LambdaMean + 10*e.LambdaStd + 10*math.Sqrt(math.Max(1, e.LambdaMean))) / e.TotalInsts
		for i := 0; i < 60 && hi-lo > 1e-12; i++ {
			mid := (lo + hi) / 2
			if e.ErrorRateCDF(mid) < p {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
	rng := numeric.NewRNG(0x9e55)
	for i := 0; i < 12; i++ {
		mean := math.Exp(math.Log(0.5) + math.Log(2e4)*rng.Float64())
		e := &Estimate{LambdaMean: mean, LambdaStd: mean / 4 * rng.Float64(), TotalInsts: 1e6}
		for _, p := range []float64{0.05, 0.5, 0.95, 0.99} {
			got, want := e.ErrorRateQuantile(p), plain(e, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d p=%v: memoized quantile %v, plain bisection %v (mean %v std %v)",
					i, p, got, want, e.LambdaMean, e.LambdaStd)
			}
		}
	}
}
