package main

import (
	"context"
	"fmt"
	"os"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
)

// oppointJSON is the oppoint -json document: the search outcome at one
// operating condition, mirroring one point of tsperrd's /v1/oppoint response.
type oppointJSON struct {
	Benchmark       string  `json:"benchmark"`
	VoltageV        float64 `json:"voltage"`
	TempC           float64 `json:"temp_c"`
	TargetErrorRate float64 `json:"target_error_rate"`
	BaseFreqMHz     float64 `json:"base_freq_mhz"`
	core.OppointResult
}

// runOppoint bisects the fastest frequency ratio meeting the target error
// rate at one operating condition (tsperr oppoint). Exit status follows the
// command contract: 2 for usage errors — including a search grid or target
// BisectRatio would reject, caught before any framework is built — and 1
// for analysis failures; an infeasible target is a result, not a failure.
func runOppoint(args []string) {
	fs := newFlagSet("oppoint", "[-target F] [-min-ratio R] [-max-ratio R] [-steps N] [-voltage V] [-temp C] [-json] <benchmark>")
	scenarios := fs.Int("scenarios", harness.DefaultScenarios, "input datasets per probe")
	jsonOut := fs.Bool("json", false, "emit the operating point as JSON instead of text")
	timeout := fs.Duration("timeout", 0, "abort the search after this duration (0 = none)")
	target := fs.Float64("target", 0.01, "target error rate (fraction, not percent)")
	minRatio := fs.Float64("min-ratio", 1.0, "lower frequency-ratio bound")
	maxRatio := fs.Float64("max-ratio", 1.3, "upper frequency-ratio bound")
	steps := fs.Int("steps", 16, "bisection grid steps")
	condition := conditionFlags(fs)
	modelCache := modelCacheFlags(fs)
	_ = fs.Parse(args)
	modelCache()
	cond := condition()
	if fs.NArg() != 1 {
		usageExit(fs)
	}
	if err := core.CheckBisect(*minRatio, *maxRatio, *steps, *target); err != nil {
		fmt.Fprintf(os.Stderr, "tsperr oppoint: %v\n", err)
		os.Exit(cliutil.ExitUsage)
	}
	// Unknown benchmark is an analysis failure (exit 1), matching the plain
	// single-benchmark mode; checking upfront avoids building a framework
	// just to discover the name is bad.
	name := fs.Arg(0)
	if _, err := mibench.ByName(name); err != nil {
		fmt.Fprintf(os.Stderr, "tsperr oppoint: %v\n", err)
		os.Exit(cliutil.ExitFailure)
	}
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	baseFreq := errormodel.DefaultOptions().BaseFreqMHz
	analyze := func(ctx context.Context, ratio float64) (*core.Report, error) {
		return harness.AnalyzeAtPoint(ctx, name, *scenarios, core.AnalyzeOpts{}, cond, ratio)
	}
	pt, err := core.SearchOperatingPoint(ctx, *minRatio, *maxRatio, *steps, *target, baseFreq, analyze)
	if err != nil {
		exitFailed(name+": oppoint search", err)
	}

	if *jsonOut {
		printJSON(oppointJSON{
			Benchmark:       name,
			VoltageV:        cond.Norm().VoltageV,
			TempC:           cond.Norm().TempC,
			TargetErrorRate: *target,
			BaseFreqMHz:     baseFreq,
			OppointResult:   pt,
		})
		return
	}
	fmt.Printf("%s: operating-point search at %s (base %.0f MHz)\n", name, cond, baseFreq)
	fmt.Printf("target error rate: %.3g over ratios [%.4g, %.4g] in %d steps (%d evals)\n",
		*target, *minRatio, *maxRatio, *steps, pt.Evals)
	if !pt.Feasible {
		fmt.Printf("INFEASIBLE: even ratio %.4f has error rate %.3g > target\n",
			pt.Ratio, pt.ErrorRate)
		return
	}
	fmt.Printf("fastest feasible ratio: %.4f (%.0f MHz, period %.1f ps)\n",
		pt.Ratio, pt.FreqMHz, pt.PeriodPs)
	fmt.Printf("error rate there: %.3g; expected speedup %.4f; P(profitable) %.3f\n",
		pt.ErrorRate, pt.Speedup, pt.CDFBelowBreakEven)
}
