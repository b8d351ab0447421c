package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
)

// table2Scenarios is the paper's per-kernel scenario count.
const table2Scenarios = harness.DefaultScenarios

func kernelNames() []string {
	var names []string
	for _, b := range mibench.All() {
		names = append(names, b.Name)
	}
	return names
}

// suiteDigest fingerprints one pass's estimates in kernel-name order.
func suiteDigest(digests map[string]string) string {
	s := ""
	for _, n := range kernelNames() {
		s += digests[n] + ","
	}
	return s
}

// childTable2 measures a cold start (shared framework from an empty model
// cache) and the first suite pass on it.
func childTable2(c *childEnv) error {
	t0 := time.Now()
	harness.SetModelCache(true, c.dir)
	if _, err := harness.SharedFramework(); err != nil {
		return err
	}
	c.res.SetupS = time.Since(t0).Seconds()
	t1 := time.Now()
	digests := make(map[string]string)
	for _, n := range kernelNames() {
		rep, err := harness.AnalyzeWithOpts(context.Background(), n, table2Scenarios, core.AnalyzeOpts{})
		if err != nil {
			return err
		}
		digests[n] = reportDigest(rep)
	}
	c.res.ColdS = time.Since(t1).Seconds()
	c.res.Digest = suiteDigest(digests)
	return nil
}

// runTable2 is the paper's own experiment: one closed-loop caller runs
// harness.AnalyzeWithOpts over the 12 kernels at 8 scenarios on a warm
// framework, pass after pass, in a seed-shuffled kernel order.
func runTable2(e *env) error {
	ctx := context.Background()
	var tr *Tracer
	vals := make(map[string]float64)
	if e.trace {
		tr = newTracer()
		if err := setupReplica(ctx, tr, nominalCond, vals); err != nil {
			return err
		}
	}
	kids, _, err := coldRuns(e, coldChildren, false, false)
	if err != nil {
		return err
	}

	dir, err := tempDir("table2-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	harness.SetModelCache(true, dir)
	fw, err := harness.SharedFramework()
	if err != nil {
		return err
	}
	// The reference: every kernel once with a single scenario worker,
	// computed before timing. Parallel passes must reproduce it bit for bit.
	names := kernelNames()
	ref := make(map[string]string)
	for _, n := range names {
		rep, err := harness.AnalyzeWithOpts(ctx, n, table2Scenarios, core.AnalyzeOpts{Workers: 1})
		if err != nil {
			return err
		}
		ref[n] = reportDigest(rep)
	}
	childPeak := reportCold(e, kids, suiteDigest(ref), "first-pass estimates")

	// pass runs one suite pass through analyze and checks every estimate.
	pass := func(analyze func(name string) (*core.Report, error)) time.Duration {
		order := append([]string(nil), names...)
		e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		start := time.Now()
		for _, n := range order {
			e.out.Attempted++
			rep, err := analyze(n)
			if err != nil {
				e.fail("%s: %v", n, err)
				continue
			}
			if d := reportDigest(rep); d != ref[n] {
				e.fail("%s: estimate differs from the Workers:1 reference", n)
			}
		}
		return time.Since(start)
	}
	harnessAnalyze := func(n string) (*core.Report, error) {
		return harness.AnalyzeWithOpts(ctx, n, table2Scenarios, core.AnalyzeOpts{})
	}
	loop := func(budget time.Duration, analyze func(string) (*core.Report, error)) []float64 {
		var ms []float64
		deadline := time.Now().Add(budget)
		for time.Now().Before(deadline) {
			ms = append(ms, float64(pass(analyze))/1e6)
		}
		return ms
	}
	budget := time.Duration(e.seconds * float64(time.Second))

	if !e.trace {
		start := time.Now()
		ms := loop(budget, harnessAnalyze)
		elapsed := time.Since(start).Seconds()
		t := summarize(ms, 95)
		fmt.Fprintf(os.Stderr, "perfbench: table2 passes n=%d p50=%.2fms p%g=%.2fms\n", t.N, t.P50, t.TailP, t.Tail)
		e.set("op_p50_ms", t.P50, "ms")
		e.set("op_tail_ms", t.Tail, "ms")
		e.set("throughput_per_s", float64(len(ms)*len(names))/elapsed, "1/s")
		e.set("rss_peak_mb", max(rssPeakMB(), childPeak), "MB")
		return nil
	}

	// Traced run: half the budget untraced through the harness, half
	// through the traced stage replica, each replica estimate checked
	// against the reference and against a traced harness call.
	untraced := loop(budget/2, harnessAnalyze)
	var req int64
	var replicaTime time.Duration // the traced pass time excludes the checking harness calls
	replicaAnalyze := func(n string) (*core.Report, error) {
		req++
		t0 := time.Now()
		rep, err := analyzeReplica(ctx, tr, fw, n, table2Scenarios, req, 0)
		replicaTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		var hrep *core.Report
		var herr error
		start := time.Now()
		hrep, herr = harnessAnalyze(n)
		tr.Record(Span{Req: req, Name: "core.analyze", Start: tr.At(start), End: tr.Now()})
		if herr != nil {
			return nil, herr
		}
		if reportDigest(hrep) != reportDigest(rep) {
			e.markInvalid("%s: stage replica estimate differs from harness.AnalyzeWithOpts", n)
		}
		return rep, nil
	}
	var traced []float64
	deadline := time.Now().Add(budget / 2)
	for time.Now().Before(deadline) {
		before := replicaTime
		pass(replicaAnalyze)
		traced = append(traced, float64(replicaTime-before)/1e6)
	}
	spans := tr.Spans()
	agg := aggregate(spans)
	stageLayers(vals, agg)
	vals["core.analyze_ms"] = agg["core.analyze"].meanSelf(1e-3)
	pu, pt := median(untraced), median(traced)
	vals["trace.overhead_ms"] = pt - pu
	vals["trace.overhead_pct"] = 100 * (pt - pu) / pu
	fmt.Fprintf(os.Stderr, "perfbench: table2 traced pass p50 %.2fms (untraced %.2fms, n=%d/%d); trace %s\n",
		pt, pu, len(traced), len(untraced), writeTrace(e, tr, ""))
	emitLayers(e, vals)
	return nil
}
