package main

import (
	"fmt"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
)

// runTable2 regenerates Table 2 of the paper (tsperr table2): per-benchmark
// program size, framework runtime split into training and simulation,
// error-rate mean and standard deviation, and the two approximation-error
// bounds.
func runTable2(args []string) {
	fs := newFlagSet("table2", "[-scenarios N] [-bench name] [-timeout D] [-retries N] [-min-scenarios N]")
	scenarios := fs.Int("scenarios", harness.DefaultScenarios,
		"input datasets per benchmark (data variation)")
	bench := fs.String("bench", "", "run a single benchmark instead of all twelve")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	var opts core.AnalyzeOpts
	fs.IntVar(&opts.Retries, "retries", 0, "per-scenario retries for transient failures")
	fs.IntVar(&opts.MinScenarios, "min-scenarios", 0,
		"proceed degraded if at least this many scenarios survive (0 = all must succeed)")
	modelCache := modelCacheFlags(fs)
	_ = fs.Parse(args)
	modelCache()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	fmt.Println("Table 2: Results, Performance, and Accuracy of Our Framework")
	fmt.Println(harness.Table2Header())
	var totalInsts, totalBlocks int64
	var totalTrain, totalSim float64
	for _, name := range benchmarkNames(*bench) {
		rep, err := harness.AnalyzeWithOpts(ctx, name, *scenarios, opts)
		if err != nil {
			exitFailed(name+": analysis", err)
		}
		fmt.Println(harness.Table2Row(rep))
		totalInsts += rep.Instructions
		totalBlocks += int64(rep.BasicBlocks)
		totalTrain += rep.Training.Seconds()
		totalSim += rep.Simulation.Seconds()
	}
	fmt.Printf("%-13s %15d %7d %10.2f %10.2f\n",
		"Total", totalInsts, totalBlocks, totalTrain, totalSim)
}
