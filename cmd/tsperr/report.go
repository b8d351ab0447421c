package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/montecarlo"
)

// runReport produces a single markdown report reproducing the paper's full
// evaluation (tsperr report): Table 2, a Figure 3 CDF table per benchmark,
// the operating-point anchors, and a Monte Carlo validation section — the
// one-shot "regenerate everything" entry point. With -json the evaluation is
// emitted as one machine-readable document (operating point + every
// benchmark's core.Report in the shared JSON schema) instead of markdown;
// the Monte Carlo section is markdown-only.
func runReport(args []string) {
	fs := newFlagSet("report", "[-scenarios N] [-o file.md] [-timeout D] [-retries N] [-min-scenarios N] [-json]")
	scenarios := fs.Int("scenarios", harness.DefaultScenarios, "input datasets per benchmark")
	out := fs.String("o", "", "output file (default stdout)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	var opts core.AnalyzeOpts
	fs.IntVar(&opts.Retries, "retries", 0, "per-scenario retries for transient failures")
	fs.IntVar(&opts.MinScenarios, "min-scenarios", 0,
		"proceed degraded if at least this many scenarios survive per benchmark (0 = all must succeed)")
	jsonOut := fs.Bool("json", false, "emit the evaluation as JSON instead of markdown")
	modelCache := modelCacheFlags(fs)
	_ = fs.Parse(args)
	modelCache()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	var sb strings.Builder
	f, err := harness.SharedFramework()
	if err != nil {
		log.Fatal(err)
	}
	pm := f.PerfModel()

	if *jsonOut {
		if err := emitJSON(ctx, f, *scenarios, opts, *out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Fprintf(&sb, "# tsperr evaluation report\n\n")
	fmt.Fprintf(&sb, "Machine: base %.0f MHz, PoFF %.2fx, working %.2fx (%.0f MHz), %s.\n\n",
		f.Machine.Opts.BaseFreqMHz, f.Machine.Opts.PoFFRatio,
		f.Machine.Opts.WorkingRatio, f.Machine.WorkingFreqMHz(),
		"replay-at-half-frequency correction")

	// ---- Table 2. ----
	fmt.Fprintf(&sb, "## Table 2\n\n")
	fmt.Fprintf(&sb, "| Benchmark | Instructions | Blocks | Mean(%%) | SD(%%) | dK(λ) | dK(R) | P95 rate(%%) | Perf(%%) |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|\n")
	reports := map[string]*core.Report{}
	var degraded []*core.Report
	for _, b := range mibench.All() {
		rep, err := harness.AnalyzeWithOpts(ctx, b.Name, *scenarios, opts)
		if err != nil {
			exitFailed(b.Name+": analysis", err)
		}
		reports[b.Name] = rep
		if rep.Degraded {
			degraded = append(degraded, rep)
		}
		e := rep.Estimate
		mark := ""
		if rep.Degraded {
			mark = " †"
		}
		fmt.Fprintf(&sb, "| %s%s | %d | %d | %.3f | %.3f | %.3f | %.3f | %.3f | %+.2f |\n",
			rep.Name, mark, rep.Instructions, rep.BasicBlocks,
			100*e.MeanErrorRate(), 100*e.StdErrorRate(),
			e.DKLambda, e.DKCount,
			100*e.ErrorRateQuantile(0.95),
			pm.ImprovementPct(e.MeanErrorRate()))
	}
	for _, rep := range degraded {
		fmt.Fprintf(&sb, "\n† %s: degraded run, %d scenario(s) dropped:\n\n", rep.Name, rep.FailedScenarios)
		for _, line := range strings.Split(harness.FailureDetail(rep.Failures), "\n") {
			fmt.Fprintf(&sb, "  - %s\n", line)
		}
	}
	fmt.Fprintf(&sb, "\nBreak-even error rate at this operating point: %.3f%%.\n\n",
		100*pm.BreakEvenErrorRate())

	// ---- Figure 3. ----
	fmt.Fprintf(&sb, "## Figure 3 (CDFs with Section 6.4 bounds)\n\n")
	for _, b := range mibench.All() {
		rep := reports[b.Name]
		fmt.Fprintf(&sb, "### %s\n\n", b.Name)
		fmt.Fprintf(&sb, "| rate(%%) | perf(%%) | lower | cdf | upper |\n|---|---|---|---|---|\n")
		for _, p := range harness.Figure3Series(rep, pm, 1.2, 13) {
			fmt.Fprintf(&sb, "| %.2f | %+.2f | %.3f | %.3f | %.3f |\n",
				p.RatePct, p.ImprovementPct, p.Lo, p.CDF, p.Hi)
		}
		fmt.Fprintf(&sb, "\n")
	}

	// ---- Monte Carlo validation on the smallest benchmark. ----
	fmt.Fprintf(&sb, "## Monte Carlo validation\n\n")
	bm, _ := mibench.ByName("typeset")
	unscaled, err := f.Analyze(ctx, bm.Name, core.ProgramSpec{
		Prog: bm.Prog, Setup: bm.Setup, Scenarios: *scenarios,
	})
	if err != nil {
		log.Fatal(err)
	}
	var conds []*errormodel.Conditionals
	for _, sc := range unscaled.Scenarios {
		conds = append(conds, sc.Cond)
	}
	mc, err := montecarlo.Run(montecarlo.Spec{
		Prog: bm.Prog, Setup: bm.Setup, Cond: conds, Trials: 1500, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	ecdf := mc.CDF()
	worst := 0.0
	for k := 0.0; k < unscaled.Estimate.LambdaMean*4+10; k++ {
		if d := math.Abs(ecdf(k) - unscaled.Estimate.ErrorCountCDF(k)); d > worst {
			worst = d
		}
	}
	fmt.Fprintf(&sb, "typeset (unscaled): analytic λ = %.2f, Monte Carlo mean = %.2f; "+
		"max CDF distance %.4f vs bound %.4f.\n",
		unscaled.Estimate.LambdaMean, mc.Mean(), worst,
		unscaled.Estimate.DKLambda+unscaled.Estimate.DKCount)

	if *out == "" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// emitJSON writes the machine-readable evaluation: the operating point and
// every benchmark's report in the shared core.Report JSON schema (the same
// document tsperr -json prints and tsperrd serves).
func emitJSON(ctx context.Context, f *core.Framework, scenarios int, opts core.AnalyzeOpts, out string) error {
	pm := f.PerfModel()
	doc := struct {
		BaseFreqMHz      float64        `json:"base_freq_mhz"`
		WorkingFreqMHz   float64        `json:"working_freq_mhz"`
		WorkingRatio     float64        `json:"working_ratio"`
		BreakEvenRatePct float64        `json:"break_even_error_rate_pct"`
		Scenarios        int            `json:"scenarios"`
		Reports          []*core.Report `json:"reports"`
	}{
		BaseFreqMHz:      f.Machine.Opts.BaseFreqMHz,
		WorkingFreqMHz:   f.Machine.WorkingFreqMHz(),
		WorkingRatio:     f.Machine.Opts.WorkingRatio,
		BreakEvenRatePct: 100 * pm.BreakEvenErrorRate(),
		Scenarios:        scenarios,
	}
	for _, b := range mibench.All() {
		rep, err := harness.AnalyzeWithOpts(ctx, b.Name, scenarios, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		doc.Reports = append(doc.Reports, rep)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
