// Command tsperr runs the error-rate estimation framework: by default on one
// benchmark, reporting the Table 2 row, the headline distribution numbers,
// and the resulting timing-speculation verdict; its subcommands regenerate
// the paper's evaluation and run the operating-point search.
//
// Usage:
//
//	tsperr [-scenarios N] [-timeout D] [-retries N] [-min-scenarios N]
//	       [-mc-trials N] [-mc-seed S] [-voltage V] [-temp C] [-json] <benchmark>
//	tsperr batch [flags] suite.json
//	tsperr oppoint [-target F] [-min-ratio R] [-max-ratio R] [-steps N]
//	       [-scenarios N] [-voltage V] [-temp C] [-json] <benchmark>
//	tsperr surrogate-eval [-surrogate-holdout F] [-surrogate-seed S] [-json]
//	tsperr explain
//	tsperr table2 [-scenarios N] [-bench name] [-retries N] [-min-scenarios N]
//	tsperr figure3 [-scenarios N] [-bench name] [-points N] [-max pct] [-csv]
//	tsperr report [-scenarios N] [-o file.md] [-retries N] [-min-scenarios N] [-json]
//	tsperr dtadump [-unit adder|control] [-cycles N] [-vcd file]
//
// Every subcommand takes -timeout D, and all but explain and dtadump take
// -model-cache/-model-cache-dir. Run with no arguments to list the available
// benchmarks.
//
//   - batch runs a suite file ({"entries":[{"benchmark":...,"scenarios":...}]})
//     through the shared framework with identical entries computed once;
//     results stream as text rows, or -json emits one document reusing the
//     shared core.Report encoding per entry.
//   - oppoint bisects the fastest frequency ratio whose error rate stays at or
//     below -target at the -voltage/-temp condition and prints the resulting
//     operating point (or -json, one document mirroring a point of tsperrd's
//     /v1/oppoint response).
//   - surrogate-eval labels the suite exactly, trains the ML surrogate fast
//     tier on a split, and prints its coverage-vs-accuracy curve.
//   - explain prints the estimation-flow walkthrough (Figures 1 and 2).
//   - table2 and figure3 regenerate Table 2 and the Figure 3 CDFs; report
//     writes the whole evaluation as one markdown (or -json) document.
//   - dtadump simulates a stimulus on a generated netlist and prints each
//     cycle's dynamic timing slack (the Figure 1 DTA flow).
//
// -mc-trials appends a sharded Monte Carlo validation of the analytic
// distribution to the report. -voltage/-temp evaluate at an explicit
// operating condition (the cell-delay scaling law inflates delays and
// variability as the supply droops or the die heats); zero means the nominal
// 1.1 V / 25 C corner.
//
// Exit status is 2 for usage errors and 1 for analysis failures (in batch
// mode: if any entry failed); on failure every failing scenario is reported
// with its pipeline phase, not just the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
)

// subcommands maps each subcommand name to its entry point, which receives
// the arguments after the name. Benchmark names never collide with these.
var subcommands = map[string]func(args []string){
	"batch":          runBatch,
	"dtadump":        runDTADump,
	"explain":        runExplain,
	"figure3":        runFigure3,
	"oppoint":        runOppoint,
	"report":         runReport,
	"surrogate-eval": runSurrogateEval,
	"table2":         runTable2,
}

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			log.SetPrefix("tsperr " + os.Args[1] + ": ")
			run(os.Args[2:])
			return
		}
	}
	log.SetPrefix("tsperr: ")
	runEstimate(os.Args[1:])
}

// newFlagSet returns the flag set of one subcommand ("" for the default
// estimate); -h prints the synopsis and the flag defaults.
func newFlagSet(sub, synopsis string) *flag.FlagSet {
	name := strings.TrimSpace("tsperr " + sub)
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s %s\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// usageExit prints fs's usage and exits with the usage status.
func usageExit(fs *flag.FlagSet) {
	fs.Usage()
	os.Exit(cliutil.ExitUsage)
}

// modelCacheFlags registers -model-cache/-model-cache-dir on fs; the returned
// function, called after parsing, configures the harness's model cache.
func modelCacheFlags(fs *flag.FlagSet) func() {
	dir := cliutil.ModelCacheFlags(fs)
	return func() {
		d := dir()
		harness.SetModelCache(d != "", d)
	}
}

// conditionFlags registers -voltage/-temp on fs; the returned function,
// called after parsing, sets the harness's operating condition and exits
// with the usage status when it is out of range.
func conditionFlags(fs *flag.FlagSet) func() cell.OperatingCondition {
	voltage := fs.Float64("voltage", 0, "supply voltage in volts (0 = nominal 1.1)")
	temp := fs.Float64("temp", 0, "die temperature in C (0 = nominal 25)")
	return func() cell.OperatingCondition {
		cond := cell.OperatingCondition{VoltageV: *voltage, TempC: *temp}
		if err := harness.SetOperatingCondition(cond); err != nil {
			log.Print(err)
			os.Exit(cliutil.ExitUsage)
		}
		return cond
	}
}

// benchmarkNames returns the single -bench name, or all twelve benchmarks.
func benchmarkNames(bench string) []string {
	if bench != "" {
		return []string{bench}
	}
	var names []string
	for _, b := range mibench.All() {
		names = append(names, b.Name)
	}
	return names
}

// splitLines breaks a FailureDetail block into lines for indentation.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// exitFailed reports a failed step with its per-scenario breakdown on
// stderr and exits with the failure status.
func exitFailed(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s%s failed:\n", log.Prefix(), what)
	for _, line := range splitLines(harness.FailureDetail(err)) {
		fmt.Fprintf(os.Stderr, "  %s\n", line)
	}
	os.Exit(cliutil.ExitFailure)
}

// printJSON writes v as one indented JSON document on stdout.
func printJSON(v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(buf))
}

// analysisFlags are the flags of the plain estimate and of batch.
type analysisFlags struct {
	fs         *flag.FlagSet
	scenarios  int
	jsonOut    bool
	timeout    time.Duration
	opts       core.AnalyzeOpts
	modelCache func()
	condition  func() cell.OperatingCondition
}

func newAnalysisFlags(sub, synopsis string) *analysisFlags {
	a := &analysisFlags{fs: newFlagSet(sub, synopsis)}
	fs := a.fs
	fs.IntVar(&a.scenarios, "scenarios", harness.DefaultScenarios, "input datasets")
	fs.BoolVar(&a.jsonOut, "json", false, "emit the report as JSON instead of the text summary")
	fs.DurationVar(&a.timeout, "timeout", 0, "abort the analysis after this duration (0 = none)")
	fs.IntVar(&a.opts.Retries, "retries", 0, "per-scenario retries for transient failures")
	fs.IntVar(&a.opts.MinScenarios, "min-scenarios", 0,
		"proceed degraded if at least this many scenarios survive (0 = all must succeed)")
	fs.IntVar(&a.opts.MCTrials, "mc-trials", 0,
		"validate the analytic distribution with this many sharded Monte Carlo trials (0 = off)")
	fs.Uint64Var(&a.opts.MCSeed, "mc-seed", 0, "Monte Carlo seed (0 = the pipeline default)")
	a.condition = conditionFlags(fs)
	a.modelCache = modelCacheFlags(fs)
	return a
}

// parse parses args and configures the harness from the flags.
func (a *analysisFlags) parse(args []string) {
	_ = a.fs.Parse(args) // ExitOnError: a bad flag has already exited 2
	a.modelCache()
	a.condition()
}

// runEstimate is the default mode: analyze one benchmark.
func runEstimate(args []string) {
	a := newAnalysisFlags("", "[flags] <benchmark>\n       tsperr <subcommand> [flags] [args]")
	usage := a.fs.Usage
	a.fs.Usage = func() {
		usage()
		names := make([]string, 0, len(subcommands))
		for name := range subcommands {
			names = append(names, name)
		}
		sort.Strings(names)
		w := a.fs.Output()
		fmt.Fprintf(w, "subcommands: %s\n", strings.Join(names, ", "))
		fmt.Fprintln(w, "available benchmarks:")
		for _, b := range mibench.All() {
			fmt.Fprintf(w, "  %-13s (%s)\n", b.Name, b.Category)
		}
	}
	a.parse(args)
	if a.fs.NArg() != 1 {
		usageExit(a.fs)
	}
	name := a.fs.Arg(0)
	ctx, cancel := cliutil.Context(a.timeout)
	defer cancel()
	rep, err := harness.AnalyzeWithOpts(ctx, name, a.scenarios, a.opts)
	if err != nil {
		exitFailed(name+": analysis", err)
	}
	if rep.Degraded {
		fmt.Fprintf(os.Stderr, "tsperr: warning: degraded run, %d scenario(s) dropped:\n", rep.FailedScenarios)
		for _, line := range splitLines(harness.FailureDetail(rep.Failures)) {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
	}
	if a.jsonOut {
		// The shared core.Report encoding — the same document tsperrd serves
		// — so scripted consumers parse one schema regardless of entry point.
		printJSON(rep)
		return
	}
	f, _ := harness.SharedFramework()
	pm := f.PerfModel()
	e := rep.Estimate

	fmt.Println(harness.Table2Header())
	fmt.Println(harness.Table2Row(rep))
	fmt.Println()
	mean := e.MeanErrorRate()
	fmt.Printf("error rate: mean %.3f%%  sd %.3f%%  (lambda %.1f over %.3g instructions)\n",
		100*mean, 100*e.StdErrorRate(), e.LambdaMean, e.TotalInsts)
	p50, p95, p99 := e.Quantiles()
	fmt.Printf("quantiles: P50 %.3f%%  P95 %.3f%%  P99 %.3f%%\n", 100*p50, 100*p95, 100*p99)
	fmt.Printf("bounds: d_K(lambda) <= %.3f, d_K(R_E) <= %.3f\n", e.DKLambda, e.DKCount)
	if mc := rep.MC; mc != nil {
		verdict := "within"
		if !mc.Within {
			verdict = "OUTSIDE"
		}
		fmt.Printf("monte carlo (%d trials, %d chunks): mean %.2f vs lambda %.2f; max CDF distance %.4f %s bound %.4f\n",
			mc.Trials, mc.Chunks, mc.Mean, mc.LambdaRef, mc.MaxCDFDistance, verdict, mc.Bound)
	}
	imp := pm.ImprovementPct(mean)
	verdict := "benefits from timing speculation"
	if imp < 0 {
		verdict = "is hurt by timing speculation"
	}
	fmt.Printf("performance at 1.15x frequency with replay-at-half-frequency: %+.2f%% — %s %s\n",
		imp, name, verdict)
	fmt.Printf("break-even error rate: %.3f%%\n", 100*pm.BreakEvenErrorRate())
}

const explainText = `The framework follows the flow of Figures 1 and 2 of the paper:

 1. Netlist generation & calibration — a 6-stage control network (decoder
    derived from the TS-V8 opcode table) and gate-level datapath units are
    generated and delay-calibrated so the point of first failure sits at
    1.13x the STA frequency; the working point is 1.15x.
 2. Datapath model training — Algorithm 1 measures the DTS of the data
    endpoints while targeted vectors activate carry chains and shifter
    layers of known depth.
 3. Control characterization — per basic block, per incoming edge, the
    control network is simulated at gate level and Algorithm 2 extracts each
    instruction's control DTS; a nop-instrumented pass yields the
    error-conditioned probabilities (Section 4.1).
 4. Instrumented simulation — the program runs once per input scenario; the
    trained datapath model converts operand-dependent activation depths into
    conditional error probabilities.
 5. Marginal probabilities — Equations (1) and (2) plus one linear system per
    CFG strongly connected component (Section 4.2).
 6. Statistics — the error count is approximated Poisson(lambda) with lambda
    approximately Normal; Chen-Stein and Stein bounds quantify the
    approximation error (Section 5); Equation (14) gives the CDF.`

// runExplain prints the estimation-flow walkthrough.
func runExplain(args []string) {
	fs := newFlagSet("explain", "")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		usageExit(fs)
	}
	fmt.Println(explainText)
}
