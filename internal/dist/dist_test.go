package dist

import (
	"math"
	"testing"
	"testing/quick"

	"tsperr/internal/numeric"
)

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 5, 40} {
		p := Poisson{Lambda: lambda}
		var sum float64
		for k := 0; k < 400; k++ {
			sum += p.PMF(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%v: PMF sums to %v", lambda, sum)
		}
	}
}

func TestPoissonCDFMatchesPMF(t *testing.T) {
	p := Poisson{Lambda: 7.5}
	var run float64
	for k := 0; k < 40; k++ {
		run += p.PMF(k)
		if got := p.CDF(float64(k)); math.Abs(got-run) > 1e-9 {
			t.Fatalf("CDF(%d)=%v, cumulative PMF=%v", k, got, run)
		}
	}
}

func TestPoissonCDFLargeLambdaNormalLimit(t *testing.T) {
	p := Poisson{Lambda: 2e6}
	// At the mean, CDF should be ~0.5.
	if got := p.CDF(p.Lambda); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("CDF at mean = %v", got)
	}
	// One sigma above mean ~0.841.
	if got := p.CDF(p.Lambda + math.Sqrt(p.Lambda)); math.Abs(got-0.8413) > 5e-3 {
		t.Errorf("CDF at mean+sigma = %v", got)
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	p := Poisson{Lambda: 3}
	if p.CDF(-1) != 0 {
		t.Error("CDF of negative should be 0")
	}
	z := Poisson{Lambda: 0}
	if z.PMF(0) != 1 || z.PMF(1) != 0 || z.CDF(0) != 1 {
		t.Error("zero-rate Poisson is a point mass at 0")
	}
}

func TestPoissonBinomialMatchesBinomial(t *testing.T) {
	// Identical probabilities reduce to a binomial distribution.
	const n, pr = 12, 0.3
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = pr
	}
	pb := NewPoissonBinomial(ps)
	for k := 0; k <= n; k++ {
		binom := math.Exp(lchoose(n, k)) * math.Pow(pr, float64(k)) * math.Pow(1-pr, float64(n-k))
		if math.Abs(pb.PMF(k)-binom) > 1e-12 {
			t.Errorf("PMF(%d)=%v, binomial=%v", k, pb.PMF(k), binom)
		}
	}
	if math.Abs(pb.Mean()-n*pr) > 1e-12 {
		t.Errorf("mean=%v", pb.Mean())
	}
	if math.Abs(pb.Var()-n*pr*(1-pr)) > 1e-12 {
		t.Errorf("var=%v", pb.Var())
	}
}

func lchoose(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

func TestPoissonBinomialPoissonApproximation(t *testing.T) {
	// Many indicators with tiny probabilities: PB should be close to Poisson,
	// and the distance should respect Le Cam's bound.
	rng := numeric.NewRNG(17)
	ps := make([]float64, 3000)
	for i := range ps {
		ps[i] = 0.002 * rng.Float64()
	}
	pb := NewPoissonBinomial(ps)
	po := Poisson{Lambda: pb.Mean()}
	tv := TotalVariationInt(pb.PMF, po.PMF, len(ps))
	bound := pb.LeCamBound()
	if tv > bound {
		t.Errorf("total variation %v exceeds Le Cam bound %v", tv, bound)
	}
	if tv > 0.01 {
		t.Errorf("approximation unexpectedly poor: %v", tv)
	}
}

func TestPoissonBinomialCDFMonotone(t *testing.T) {
	pb := NewPoissonBinomial([]float64{0.1, 0.9, 0.5, 0.25})
	prev := -1.0
	for k := -1; k <= 5; k++ {
		c := pb.CDF(float64(k))
		if c < prev {
			t.Fatalf("CDF not monotone at %d", k)
		}
		prev = c
	}
	if pb.CDF(4) < 1-1e-12 {
		t.Error("CDF at max support should be 1")
	}
}

func TestDiscreteMoments(t *testing.T) {
	d := Discrete{Xs: []float64{1, 2, 3}, Ps: []float64{0.2, 0.5, 0.3}}
	if m := d.Mean(); math.Abs(m-2.1) > 1e-12 {
		t.Errorf("mean=%v", m)
	}
	if v := d.Var(); math.Abs(v-0.49) > 1e-12 {
		t.Errorf("var=%v", v)
	}
	if m2 := d.Moment(2); math.Abs(m2-(0.2+2+2.7)) > 1e-12 {
		t.Errorf("second raw moment=%v", m2)
	}
	if am := d.AbsMoment(3); math.Abs(am-d.Moment(3)) > 1e-12 {
		t.Error("abs moment should equal raw moment for positive support")
	}
}

func TestDiscreteUniformAndScale(t *testing.T) {
	d := NewDiscreteUniform([]float64{2, 4, 6})
	if math.Abs(d.Mean()-4) > 1e-12 {
		t.Errorf("mean=%v", d.Mean())
	}
	s := d.Scale(0.5)
	if math.Abs(s.Mean()-2) > 1e-12 {
		t.Errorf("scaled mean=%v", s.Mean())
	}
	if math.Abs(s.Var()-0.25*d.Var()) > 1e-12 {
		t.Errorf("scaled var=%v vs %v", s.Var(), d.Var())
	}
}

func TestDiscreteCDF(t *testing.T) {
	d := Discrete{Xs: []float64{0.5, 1.5}, Ps: []float64{0.4, 0.6}}
	if d.CDF(0) != 0 || math.Abs(d.CDF(1)-0.4) > 1e-12 || d.CDF(2) != 1 {
		t.Error("discrete CDF wrong")
	}
}

func TestNormalQuantileCDFRoundtrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0.5}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got := n.CDF(n.Quantile(p)); math.Abs(got-p) > 1e-10 {
			t.Errorf("roundtrip at %v gave %v", p, got)
		}
	}
	if n.Mean() != 3 || n.Var() != 0.25 {
		t.Error("normal moments")
	}
}

func TestKolmogorovMetric(t *testing.T) {
	f := Normal{Mu: 0, Sigma: 1}
	g := Normal{Mu: 0.5, Sigma: 1}
	grid := LinearGrid(-6, 6, 2000)
	d := Kolmogorov(f.CDF, g.CDF, grid)
	// Known: sup distance between N(0,1) and N(d,1) is 2*Phi(d/2)-1.
	want := 2*numeric.NormalCDF(0.25) - 1
	if math.Abs(d-want) > 1e-4 {
		t.Errorf("Kolmogorov distance %v, want %v", d, want)
	}
	if Kolmogorov(f.CDF, f.CDF, grid) != 0 {
		t.Error("self distance must be 0")
	}
}

func TestKolmogorovSymmetryProperty(t *testing.T) {
	grid := LinearGrid(-8, 8, 500)
	f := func(mu1, mu2 float64) bool {
		mu1 = math.Mod(mu1, 3)
		mu2 = math.Mod(mu2, 3)
		a := Normal{Mu: mu1, Sigma: 1}
		b := Normal{Mu: mu2, Sigma: 1}
		d1 := Kolmogorov(a.CDF, b.CDF, grid)
		d2 := Kolmogorov(b.CDF, a.CDF, grid)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := cdf(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ecdf(%v)=%v, want %v", c.x, got, c.want)
		}
	}
	empty := EmpiricalCDF(nil)
	if empty(1) != 0 {
		t.Error("empty ecdf should be 0")
	}
}

func TestTotalVariationIntBounds(t *testing.T) {
	p := Poisson{Lambda: 2}
	q := Poisson{Lambda: 2}
	if TotalVariationInt(p.PMF, q.PMF, 100) != 0 {
		t.Error("identical distributions must be at distance 0")
	}
	r := Poisson{Lambda: 50}
	d := TotalVariationInt(p.PMF, r.PMF, 400)
	if d < 0.9 || d > 1 {
		t.Errorf("very different Poissons should be near distance 1, got %v", d)
	}
}

func TestLinearGrid(t *testing.T) {
	g := LinearGrid(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(g) != 5 {
		t.Fatalf("len=%d", len(g))
	}
	for i := range g {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("grid[%d]=%v", i, g[i])
		}
	}
	if got := LinearGrid(2, 3, 0); len(got) != 2 {
		t.Error("degenerate n should clamp to 1 interval")
	}
}

// poissonCDFRef is an independent reference for Poisson.CDF: the PMF summed
// term by term from 0 in the log domain via Lgamma, with each term formed on
// its own so no running product can underflow or drift.
func poissonCDFRef(lambda float64, k int) float64 {
	var sum numeric.KahanSum
	for i := 0; i <= k; i++ {
		lg, _ := math.Lgamma(float64(i) + 1)
		sum.Add(math.Exp(float64(i)*math.Log(lambda) - lambda - lg))
	}
	return math.Min(1, sum.Value())
}

// The exact branch must match the reference across the whole lambda range it
// serves, including the band above lambda ~ 708 where exp(-lambda) loses
// precision and above ~ 745 where it underflows to zero.
func TestPoissonCDFMatchesLogDomainReference(t *testing.T) {
	for _, lambda := range []float64{0.3, 3, 20, 700, 708, 746, 1000, 2400, 4999} {
		s := math.Sqrt(lambda)
		for _, kf := range []float64{0, lambda / 2, lambda - s, lambda + s, lambda + 40*s} {
			k := int(math.Floor(kf))
			got := Poisson{Lambda: lambda}.CDF(float64(k))
			want := poissonCDFRef(lambda, k)
			if d := math.Abs(got - want); d > 1e-10 {
				t.Errorf("lambda=%v k=%d: CDF=%v, reference %v (diff %.3g)", lambda, k, got, want, d)
			}
		}
	}
}

// The median of a Poisson law sits within one of its mean, so CDF(lambda) is
// near one half. Before the mode-relative window this failed from lambda ~ 745
// (the CDF was identically zero), while the monotonicity property still passed.
func TestPoissonCDFAtMeanNearHalf(t *testing.T) {
	for lambda := 708.0; lambda <= 5000; lambda += 73.7 {
		if c := (Poisson{Lambda: lambda}).CDF(lambda); c <= 0.45 || c >= 0.55 {
			t.Errorf("lambda=%v: CDF(lambda)=%v, want in (0.45, 0.55)", lambda, c)
		}
	}
}

// Across the 5000 switchover the exact sum and the normal approximation with
// continuity correction differ only by the approximation error, O(1/sqrt(lambda)).
func TestPoissonCDFContinuousAcrossRegimes(t *testing.T) {
	exact, approx := Poisson{Lambda: 4999.9}, Poisson{Lambda: 5000.1}
	s := math.Sqrt(5000.0)
	for z := -4.0; z <= 4; z += 0.25 {
		k := math.Floor(5000 + z*s)
		if d := math.Abs(exact.CDF(k) - approx.CDF(k)); d > 1/s {
			t.Errorf("k=%v: exact %v vs normal %v (diff %v > 1/sqrt(lambda)=%v)",
				k, exact.CDF(k), approx.CDF(k), d, 1/s)
		}
	}
}
