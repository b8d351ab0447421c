package main

import (
	"fmt"
	"log"

	"tsperr/internal/cliutil"
	"tsperr/internal/harness"
)

// runFigure3 regenerates Figure 3 of the paper (tsperr figure3): the
// cumulative probability distribution of each program's error rate together
// with its lower and upper bound curves, and the performance-improvement
// labels of the top axis (speedup = 1.15 / (1 + 24 * error rate)).
func runFigure3(args []string) {
	fs := newFlagSet("figure3", "[-scenarios N] [-bench name] [-points N] [-max maxRatePct] [-csv] [-timeout D]")
	scenarios := fs.Int("scenarios", harness.DefaultScenarios, "input datasets per benchmark")
	bench := fs.String("bench", "", "single benchmark (default: all twelve)")
	points := fs.Int("points", 25, "CDF sample points")
	maxRate := fs.Float64("max", 1.6, "largest error rate (percent) on the axis")
	csv := fs.Bool("csv", false, "emit CSV series instead of text panels")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	modelCache := modelCacheFlags(fs)
	_ = fs.Parse(args)
	modelCache()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	f, err := harness.SharedFramework()
	if err != nil {
		log.Fatal(err)
	}
	pm := f.PerfModel()
	if *csv {
		fmt.Println("benchmark,rate_pct,perf_improvement_pct,cdf_lower,cdf,cdf_upper")
	}
	for _, name := range benchmarkNames(*bench) {
		rep, err := harness.Analyze(ctx, name, *scenarios)
		if err != nil {
			exitFailed(name+": analysis", err)
		}
		if *csv {
			for _, p := range harness.Figure3Series(rep, pm, *maxRate, *points) {
				fmt.Printf("%s,%.4f,%.3f,%.4f,%.4f,%.4f\n",
					name, p.RatePct, p.ImprovementPct, p.Lo, p.CDF, p.Hi)
			}
		} else {
			fmt.Println(harness.RenderFigure3(rep, pm, *maxRate, *points))
		}
	}
}
