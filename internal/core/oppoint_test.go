package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
)

// TestSelectOperatingPoint runs the operating-point search on a real
// framework: every probe's error rate must be nondecreasing in the ratio,
// the slow end almost error-free, the risk measure in [0, 1], and the chosen
// point the fastest probe meeting the target, summarized from its report.
func TestSelectOperatingPoint(t *testing.T) {
	f := testFramework(t)
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}
	reports := make(map[float64]*Report)
	analyze := func(ctx context.Context, ratio float64) (*Report, error) {
		rep, err := f.AnalyzeAtRatio(ctx, "sumloop", spec, ratio, AnalyzeOpts{})
		if err == nil {
			reports[ratio] = rep
		}
		return rep, err
	}
	const lo, hi, target = 1.05, 1.22, 1e-3
	baseFreq := f.Machine.Opts.BaseFreqMHz
	pt, err := SearchOperatingPoint(context.Background(), lo, hi, 8, target, baseFreq, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Evals != len(reports) || pt.Evals < 3 {
		t.Fatalf("%d evals for %d distinct probes; want a bisection (>= 3)", pt.Evals, len(reports))
	}
	ratios := make([]float64, 0, len(reports))
	for r := range reports {
		ratios = append(ratios, r)
	}
	sort.Float64s(ratios)
	// Error rate must be nondecreasing in frequency along the probes.
	for i := 1; i < len(ratios); i++ {
		if reports[ratios[i]].Estimate.MeanErrorRate() < reports[ratios[i-1]].Estimate.MeanErrorRate()-1e-12 {
			t.Errorf("error rate fell with frequency between ratios %v and %v", ratios[i-1], ratios[i])
		}
	}
	// At the lowest ratio, nearly no errors: speedup ~= ratio.
	pm := cpu.PerfModel{FreqRatio: lo, BaseCPI: 1, Scheme: cpu.ReplayHalfFrequency}
	if s := pm.Speedup(reports[lo].Estimate.MeanErrorRate()); s < lo*0.99 {
		t.Errorf("low ratio should be almost error-free: speedup %v", s)
	}
	// The chosen point is the fastest probe meeting the target.
	if !pt.Feasible {
		t.Fatalf("want a feasible point, got %+v", pt)
	}
	for _, r := range ratios {
		if r > pt.Ratio && reports[r].Estimate.MeanErrorRate() <= target {
			t.Errorf("probe %v meets the target but is faster than the chosen %v", r, pt.Ratio)
		}
	}
	rep := reports[pt.Ratio]
	if rep == nil || math.Float64bits(pt.ErrorRate) != math.Float64bits(rep.Estimate.MeanErrorRate()) {
		t.Fatalf("chosen point %+v is not summarized from its probe's report", pt)
	}
	// Risk measure in [0,1]; period and frequency follow the ratio.
	if pt.CDFBelowBreakEven < 0 || pt.CDFBelowBreakEven > 1 {
		t.Errorf("risk out of range: %+v", pt)
	}
	if math.Abs(pt.FreqMHz-baseFreq*pt.Ratio) > 1e-9 || math.Abs(pt.PeriodPs*pt.FreqMHz-1e6) > 1e-6 {
		t.Errorf("period/frequency inconsistent with ratio: %+v", pt)
	}
}

// TestSelectOperatingPointValidation checks that a search that cannot run
// fails before any analysis, and that analysis errors and report-less
// answers surface instead of yielding a point.
func TestSelectOperatingPointValidation(t *testing.T) {
	ctx := context.Background()
	calls := 0
	analyze := func(context.Context, float64) (*Report, error) {
		calls++
		return nil, nil
	}
	for _, bad := range []struct {
		lo, hi float64
		steps  int
		target float64
	}{
		{0, 1.2, 4, 0.01},
		{1.2, 1.1, 4, 0.01},
		{1, 1.2, 0, 0.01},
		{1, 1.2, 4, 2},
	} {
		if _, err := SearchOperatingPoint(ctx, bad.lo, bad.hi, bad.steps, bad.target, 718, analyze); err == nil {
			t.Errorf("SearchOperatingPoint(%+v) should fail", bad)
		}
		if err := CheckBisect(bad.lo, bad.hi, bad.steps, bad.target); err == nil {
			t.Errorf("CheckBisect(%+v) should fail", bad)
		}
	}
	if calls != 0 {
		t.Errorf("invalid searches ran %d analyses", calls)
	}
	if _, err := SearchOperatingPoint(ctx, 1, 1.2, 4, 0.01, 718, analyze); err == nil {
		t.Error("a report-less analysis should fail the search")
	}
	boom := errors.New("boom")
	_, err := SearchOperatingPoint(ctx, 1, 1.2, 4, 0.01, 718,
		func(context.Context, float64) (*Report, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("analysis error not surfaced: %v", err)
	}
	f := testFramework(t)
	prog := isa.MustAssemble("h", "halt\n")
	if _, err := f.AnalyzeAtRatio(ctx, "h", ProgramSpec{Prog: prog, Scenarios: 1}, -1, AnalyzeOpts{}); err == nil {
		t.Error("negative ratio should fail")
	}
}

// stableReportJSON marshals a report with the wall-clock timing fields
// zeroed, leaving only the deterministic analysis outputs — the byte string
// two runs of the same deterministic pipeline must agree on exactly.
func stableReportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Training, c.Simulation = 0, 0
	buf, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestSweepRestoreBitIdentical is the regression test for a ratio sweep
// leaving the machine re-targeted at the last evaluated ratio: an Analyze
// after AnalyzeAtRatio calls at other ratios must be bit-identical to one on
// a framework that never swept.
func TestSweepRestoreBitIdentical(t *testing.T) {
	f := testFramework(t)
	ctx := context.Background()
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}

	before, err := f.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := stableReportJSON(t, before)
	wantPeriod := math.Float64bits(f.Machine.WorkingPeriodPs)
	wantDP := f.Datapath

	for _, ratio := range []float64{1.05, 1.22} {
		if _, err := f.AnalyzeAtRatio(ctx, "sumloop", spec, ratio, AnalyzeOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	if got := math.Float64bits(f.Machine.WorkingPeriodPs); got != wantPeriod {
		t.Fatalf("working period not restored: bits %x != %x", got, wantPeriod)
	}
	if f.Datapath != wantDP {
		t.Fatal("datapath model not restored to the pre-sweep instance")
	}
	after, err := f.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := stableReportJSON(t, after); got != wantJSON {
		t.Errorf("post-sweep report differs from pre-sweep:\n pre: %s\npost: %s", wantJSON, got)
	}
}

// TestAnalyzeAtRatioRestoresOnError pins the restore on the failure path: a
// scenario that fails at the re-targeted ratio must still leave the original
// working period and datapath in place.
func TestAnalyzeAtRatioRestoresOnError(t *testing.T) {
	f := testFramework(t)
	prog := isa.MustAssemble("sumloop", fwProg)
	wantPeriod := math.Float64bits(f.Machine.WorkingPeriodPs)
	wantDP := f.Datapath
	spec := ProgramSpec{
		Prog:      prog,
		Setup:     func(*cpu.CPU, int) error { return errors.New("boom") },
		Scenarios: 1,
	}
	if _, err := f.AnalyzeAtRatio(context.Background(), "sumloop", spec, 1.22, AnalyzeOpts{}); err == nil {
		t.Fatal("want setup failure")
	}
	if got := math.Float64bits(f.Machine.WorkingPeriodPs); got != wantPeriod {
		t.Fatalf("working period not restored after error: bits %x != %x", got, wantPeriod)
	}
	if f.Datapath != wantDP {
		t.Fatal("datapath not restored after error")
	}
}

var (
	droopOnce sync.Once
	droopFW   *Framework
	droopErr  error
)

// droopFramework builds (once) a framework at a drooped, hot operating
// condition; periods and calibration match testFramework's, only the V/T
// delay/sigma factors differ.
func droopFramework(t *testing.T) *Framework {
	t.Helper()
	droopOnce.Do(func() {
		opts := errormodel.DefaultOptions()
		opts.Cond = cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
		droopFW, droopErr = NewFramework(opts)
	})
	if droopErr != nil {
		t.Fatal(droopErr)
	}
	return droopFW
}

// TestErrorRateMonotoneInDroop is the voltage-axis property: at a fixed
// working period, dropping the supply (and heating the die) inflates every
// delay distribution, so the estimated error rate must not decrease.
func TestErrorRateMonotoneInDroop(t *testing.T) {
	nom := testFramework(t)
	droop := droopFramework(t)
	if math.Float64bits(nom.Machine.WorkingPeriodPs) != math.Float64bits(droop.Machine.WorkingPeriodPs) {
		t.Fatalf("working periods differ: %v vs %v",
			nom.Machine.WorkingPeriodPs, droop.Machine.WorkingPeriodPs)
	}
	ctx := context.Background()
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}
	nomRep, err := nom.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	droopRep, err := droop.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	nomRate, droopRate := nomRep.Estimate.MeanErrorRate(), droopRep.Estimate.MeanErrorRate()
	if droopRate < nomRate-1e-12 {
		t.Errorf("error rate fell under droop: nominal %v, drooped %v", nomRate, droopRate)
	}
	// The engines must actually have shifted: mean gate delays inflate by
	// exactly the condition's delay factor (calibration is
	// condition-independent, so the scales match and the factor multiplies
	// on top).
	df := droop.Machine.Opts.Cond.DelayFactor()
	if !(df > 1) {
		t.Fatalf("DelayFactor = %v, want > 1 for droop+heat", df)
	}
	nomD := nom.Machine.AdderEngine.GateDelay(0)
	droopD := droop.Machine.AdderEngine.GateDelay(0)
	if math.Float64bits(droopD.Mean) != math.Float64bits(nomD.Mean*df) {
		t.Errorf("gate delay mean %v != nominal %v * factor %v", droopD.Mean, nomD.Mean, df)
	}
}

// TestBisectRatio checks the quantized-grid search against a brute-force
// scan of the same grid, plus the infeasible and validation paths.
func TestBisectRatio(t *testing.T) {
	ctx := context.Background()
	// A smooth monotone rate curve with a knee.
	rate := func(r float64) float64 { return math.Min(1, math.Pow(math.Max(0, r-1), 3)*2) }
	eval := func(_ context.Context, r float64) (float64, error) { return rate(r), nil }

	// lo and hi are runtime variables so the brute-force grid below folds
	// floats exactly the way BisectRatio's runtime arithmetic does (typed
	// constants would be subtracted in exact precision at compile time).
	lo, hi := 1.0, 1.4
	const steps = 64
	for _, target := range []float64{0, 1e-6, 1e-3, 0.01, 0.1, 1} {
		res, err := BisectRatio(ctx, lo, hi, steps, target, eval)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("target %v: infeasible, but rate(lo) = %v", target, rate(lo))
		}
		// Brute force: the largest grid ratio meeting the target.
		want := lo
		for i := 0; i <= steps; i++ {
			r := lo + (hi-lo)*float64(i)/float64(steps)
			if i == steps {
				r = hi
			}
			if rate(r) <= target {
				want = r
			}
		}
		if math.Float64bits(res.Ratio) != math.Float64bits(want) {
			t.Errorf("target %v: ratio %v, brute force %v", target, res.Ratio, want)
		}
		if res.Evals > 10 { // 2 endpoints + ceil(log2(64)) probes
			t.Errorf("target %v: %d evals for %d steps", target, res.Evals, steps)
		}
	}

	// Infeasible: even the slow end misses the target.
	res, err := BisectRatio(ctx, 2, 3, 8, 0.5, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("want infeasible, got %+v", res)
	}
	if res.Evals != 1 {
		t.Errorf("infeasible should cost exactly one eval, got %d", res.Evals)
	}

	for _, bad := range []struct {
		lo, hi float64
		steps  int
		target float64
	}{
		{0, 1, 4, 0.5},
		{1.2, 1.1, 4, 0.5},
		{1, 1.4, 0, 0.5},
		{1, 1.4, MaxBisectSteps + 1, 0.5},
		{1, 1.4, 4, -0.1},
		{1, 1.4, 4, 1.1},
		{1, 1.4, 4, math.NaN()},
	} {
		if _, err := BisectRatio(ctx, bad.lo, bad.hi, bad.steps, bad.target, eval); err == nil {
			t.Errorf("BisectRatio(%+v) should fail", bad)
		}
	}
}

// TestBisectRatioDeterministic pins the cache-state invariance argument: the
// probe sequence depends only on eval outcomes, so a cold run and a run
// against a pre-warmed memo produce bit-identical results and probes.
func TestBisectRatioDeterministic(t *testing.T) {
	ctx := context.Background()
	rate := func(r float64) float64 { return math.Min(1, math.Pow(math.Max(0, r-1), 3)*2) }

	run := func(warm map[uint64]float64) (BisectResult, []float64, map[uint64]float64) {
		memo := make(map[uint64]float64, len(warm))
		for k, v := range warm {
			memo[k] = v
		}
		var probes []float64
		eval := func(_ context.Context, r float64) (float64, error) {
			probes = append(probes, r)
			k := math.Float64bits(r)
			if v, ok := memo[k]; ok {
				return v, nil
			}
			v := rate(r)
			memo[k] = v
			return v, nil
		}
		res, err := BisectRatio(ctx, 1.0, 1.4, 128, 0.01, eval)
		if err != nil {
			t.Fatal(err)
		}
		return res, probes, memo
	}

	cold, coldProbes, memo := run(nil)
	warm, warmProbes, _ := run(memo)
	if cold != warm {
		t.Errorf("warm result %+v != cold %+v", warm, cold)
	}
	if fmt.Sprint(coldProbes) != fmt.Sprint(warmProbes) {
		t.Errorf("probe sequences differ:\ncold: %v\nwarm: %v", coldProbes, warmProbes)
	}
}

// TestBisectRatioCancel checks context errors surface instead of spinning.
func TestBisectRatioCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BisectRatio(ctx, 1, 1.4, 8, 0.5,
		func(context.Context, float64) (float64, error) { return 0, nil })
	if err == nil {
		t.Fatal("cancelled bisection should fail")
	}
}
