package core

import (
	"context"
	"fmt"
	"math"

	"tsperr/internal/cpu"
)

// AnalyzeAtRatio analyzes the program with the machine re-targeted at the
// given frequency ratio (speculative over baseline) and the datapath model
// re-trained for that period, then restores the original working period and
// datapath before returning — on success, failure, and cancellation alike —
// so a follow-up Analyze is bit-identical to one on a framework that never
// retargeted. When the requested period is bit-identical to the current
// working period the retarget is skipped entirely (preserving the stimulus
// memo and the exact plain-Analyze path). Not safe for concurrent use with
// other analyses on the same framework: the retarget mutates shared machine
// state.
func (f *Framework) AnalyzeAtRatio(ctx context.Context, name string, spec ProgramSpec, ratio float64, opts AnalyzeOpts) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ratio <= 0 || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("core: non-positive ratio %v", ratio)
	}
	target := f.Machine.BasePeriodPs / ratio
	if math.Float64bits(target) == math.Float64bits(f.Machine.WorkingPeriodPs) {
		return f.AnalyzeWithOpts(ctx, name, spec, opts)
	}
	origPeriod := f.Machine.WorkingPeriodPs
	origDP := f.Datapath
	defer func() {
		f.Machine.SetWorkingPeriod(origPeriod)
		f.Datapath = origDP
	}()
	f.Machine.SetWorkingPeriod(target)
	dp, err := f.Machine.TrainDatapath(ctx)
	if err != nil {
		return nil, err
	}
	f.Datapath = dp
	return f.AnalyzeWithOpts(ctx, name, spec, opts)
}

// MaxBisectSteps bounds the quantized ratio grid of BisectRatio; 2^20 grid
// intervals resolve a frequency ratio to ~1e-6, far below model fidelity.
const MaxBisectSteps = 1 << 20

// BisectResult is the outcome of one BisectRatio search.
type BisectResult struct {
	// Feasible reports whether any grid ratio met the target; when false
	// Ratio/ErrorRate describe the infeasible low end of the grid.
	Feasible bool
	// Ratio is the fastest (largest) grid ratio whose error rate meets the
	// target; ErrorRate is the evaluated rate there.
	Ratio     float64
	ErrorRate float64
	// Evals is how many times eval ran (grid endpoints + bisection probes).
	Evals int
}

// CheckBisect rejects a BisectRatio search that could not run: a range that
// is not 0 < lo <= hi < Inf, a step count outside [1, MaxBisectSteps], or a
// target error rate outside [0, 1]. Callers validating user input up front
// use it to report the same errors before any evaluation.
func CheckBisect(lo, hi float64, steps int, target float64) error {
	if !(lo > 0) || !(hi >= lo) || math.IsInf(hi, 0) {
		return fmt.Errorf("core: bad bisection range [%v, %v]", lo, hi)
	}
	if steps < 1 || steps > MaxBisectSteps {
		return fmt.Errorf("core: bisection steps %d outside [1, %d]", steps, MaxBisectSteps)
	}
	if !(target >= 0 && target <= 1) {
		return fmt.Errorf("core: target error rate %v outside [0, 1]", target)
	}
	return nil
}

// BisectRatio finds the fastest frequency ratio meeting a target error rate
// on the quantized grid {lo + i*(hi-lo)/steps : i = 0..steps}, assuming the
// evaluated error rate is monotone non-decreasing in the ratio (physically:
// a shorter clock period can only add timing errors). The search is index
// bisection, so it is deterministic — the probe sequence depends only on
// eval outcomes, which makes the result invariant to caller-side concerns
// like cache warmth or the order a surrounding grid is walked in. eval must
// be deterministic for a given ratio.
func BisectRatio(ctx context.Context, lo, hi float64, steps int, target float64, eval func(context.Context, float64) (float64, error)) (BisectResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := CheckBisect(lo, hi, steps, target); err != nil {
		return BisectResult{}, err
	}
	ratioAt := func(i int) float64 {
		if i == steps {
			return hi
		}
		return lo + (hi-lo)*float64(i)/float64(steps)
	}
	res := BisectResult{}
	evalAt := func(i int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("core: bisection aborted at ratio %v: %w", ratioAt(i), err)
		}
		res.Evals++
		return eval(ctx, ratioAt(i))
	}
	// The slow end must be feasible for the search to mean anything.
	loRate, err := evalAt(0)
	if err != nil {
		return BisectResult{}, err
	}
	if loRate > target {
		res.Ratio, res.ErrorRate = ratioAt(0), loRate
		return res, nil
	}
	res.Feasible = true
	res.Ratio, res.ErrorRate = ratioAt(0), loRate
	// Fast path: the whole range may be feasible.
	hiRate, err := evalAt(steps)
	if err != nil {
		return BisectResult{}, err
	}
	if hiRate <= target {
		res.Ratio, res.ErrorRate = ratioAt(steps), hiRate
		return res, nil
	}
	// Invariant: grid index good is feasible, bad is not; good < bad.
	good, bad := 0, steps
	for bad-good > 1 {
		mid := good + (bad-good)/2
		rate, err := evalAt(mid)
		if err != nil {
			return BisectResult{}, err
		}
		if rate <= target {
			good = mid
			res.Ratio, res.ErrorRate = ratioAt(mid), rate
		} else {
			bad = mid
		}
	}
	return res, nil
}

// OppointResult is the outcome of one operating-point search: the fastest
// grid ratio meeting the target (or the infeasible low end), the period and
// frequency it implies, and the speedup/risk summary at that ratio. Its JSON
// encoding is embedded by tsperrd's /v1/oppoint points and `tsperr oppoint
// -json`.
type OppointResult struct {
	// Feasible is false when even the slowest grid ratio exceeds the
	// target; Ratio and ErrorRate then describe that infeasible low end.
	Feasible  bool    `json:"feasible"`
	Ratio     float64 `json:"ratio"`
	PeriodPs  float64 `json:"period_ps"`
	FreqMHz   float64 `json:"freq_mhz"`
	ErrorRate float64 `json:"error_rate"`
	// Speedup is the expected performance relative to baseline under the
	// replay-at-half-frequency model; CDFBelowBreakEven is the probability
	// speculation stays profitable across chips and inputs (risk measure).
	Speedup           float64 `json:"speedup"`
	CDFBelowBreakEven float64 `json:"cdf_below_break_even"`
	// Evals counts the bisection probes the search spent.
	Evals int `json:"evals"`
}

// SearchOperatingPoint runs BisectRatio over the ratio grid [lo, hi] in
// steps, evaluating each probe with analyze (which must be deterministic
// for a given ratio), and summarizes the deciding probe as an OppointResult
// against the baseline frequency baseFreqMHz. Every probe's report is kept,
// so the chosen point's risk summary comes from the same computation that
// decided the bisection — no extra analysis at the end.
func SearchOperatingPoint(ctx context.Context, lo, hi float64, steps int, target, baseFreqMHz float64,
	analyze func(context.Context, float64) (*Report, error)) (OppointResult, error) {
	reports := make(map[uint64]*Report)
	eval := func(ctx context.Context, ratio float64) (float64, error) {
		rep, err := analyze(ctx, ratio)
		if err != nil {
			return 0, err
		}
		if rep == nil || rep.Estimate == nil {
			return 0, fmt.Errorf("core: analysis at ratio %g returned no estimate", ratio)
		}
		reports[math.Float64bits(ratio)] = rep
		return rep.Estimate.MeanErrorRate(), nil
	}
	res, err := BisectRatio(ctx, lo, hi, steps, target, eval)
	if err != nil {
		return OppointResult{}, err
	}
	// res.Ratio is always a probed ratio, so its report is in the map.
	pm := cpu.PerfModel{FreqRatio: res.Ratio, BaseCPI: 1, Scheme: cpu.ReplayHalfFrequency}
	return OppointResult{
		Feasible:          res.Feasible,
		Ratio:             res.Ratio,
		PeriodPs:          1e6 / baseFreqMHz / res.Ratio,
		FreqMHz:           baseFreqMHz * res.Ratio,
		ErrorRate:         res.ErrorRate,
		Speedup:           pm.Speedup(res.ErrorRate),
		CDFBelowBreakEven: reports[math.Float64bits(res.Ratio)].Estimate.ErrorRateCDF(pm.BreakEvenErrorRate()),
		Evals:             res.Evals,
	}, nil
}
