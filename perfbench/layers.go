package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/modelcache"
)

// layerMetrics lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer the workload does not exercise reads 0
// (README.md gives, per metric, the workload where it does most work).
var layerMetrics = []struct{ name, unit string }{
	{"errormodel.new_machine_s", "s"},
	{"errormodel.train_datapath_first_s", "s"},
	{"errormodel.train_datapath_retrain_ms", "ms"},
	{"modelcache.warm_build_ms", "ms"},
	{"cpu.run_self_ms", "ms"},
	{"cpu.minst_per_s", "Minst/s"},
	{"cfg.build_us", "us"},
	{"cfg.profile_ms", "ms"},
	{"cfg.scc_ms", "ms"},
	{"errormodel.features_ms", "ms"},
	{"errormodel.control_ms", "ms"},
	{"errormodel.conditionals_ms", "ms"},
	{"errormodel.marginals_ms", "ms"},
	{"core.estimate_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"trace.replica_analyses", "count"},
	{"server.latency_us.cache", "us"},
	{"server.latency_us.surrogate", "us"},
	{"server.latency_ms.exact", "ms"},
	{"server.self_us", "us"},
	{"server.wait_ms", "ms"},
	{"server.requests", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.dedup_join_ratio", "ratio"},
	{"server.queue_reject_ratio", "ratio"},
	{"surrogate.decide_us", "us"},
	{"surrogate.observe_us", "us"},
	{"surrogate.eligible", "count"},
	{"surrogate.serve_ratio", "ratio"},
	{"surrogate.escalations.untrained", "count"},
	{"surrogate.escalations.uncertain", "count"},
	{"surrogate.escalations.near_threshold", "count"},
	{"surrogate.trainings", "count"},
	{"montecarlo.trials_per_s", "1/s"},
	{"harness.analyze_at_ms", "ms"},
	{"harness.corner_first_probe_s", "s"},
	{"server.oppoint_subrequests", "count"},
	{"server.oppoint_sub_hit_ratio", "ratio"},
	{"oppoint.probes_per_grid", "count"},
	{"serve.gen_lag_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// emitLayers reports every per-layer metric, taking values from vals and 0
// for layers this workload does not exercise.
func emitLayers(e *env, vals map[string]float64) {
	known := make(map[string]bool, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = true
		e.set(m.name, vals[m.name], m.unit)
	}
	for k := range vals {
		if !known[k] {
			panic("perfbench: unlisted layer metric " + k)
		}
	}
}

// stageLayers turns the stage-replica spans into per-analysis mean self
// times (ms unless the unit says otherwise).
func stageLayers(vals map[string]float64, agg map[string]*layerStat) {
	n := 0
	if st := agg["replica.analyze"]; st != nil {
		n = st.N
	}
	vals["trace.replica_analyses"] = float64(n)
	if n == 0 {
		return
	}
	vals["cpu.run_self_ms"] = agg["cpu.run"].selfPer(n, 1e-3) + agg["cpu.setup"].selfPer(n, 1e-3)
	if st := agg["cpu.run"]; st != nil && st.Self > 0 {
		vals["cpu.minst_per_s"] = float64(st.Count) / 1e6 / (float64(st.Self) / 1e9)
	}
	vals["cfg.build_us"] = agg["cfg.build"].selfPer(n, 1e-6)
	vals["cfg.profile_ms"] = agg["cfg.profile"].selfPer(n, 1e-3)
	vals["cfg.scc_ms"] = agg["cfg.scc"].selfPer(n, 1e-3)
	vals["errormodel.features_ms"] = agg["errormodel.features"].selfPer(n, 1e-3)
	vals["errormodel.control_ms"] = agg["errormodel.control"].selfPer(n, 1e-3)
	vals["errormodel.conditionals_ms"] = agg["errormodel.conditionals"].selfPer(n, 1e-3)
	vals["errormodel.marginals_ms"] = agg["errormodel.marginals"].selfPer(n, 1e-3)
	vals["core.estimate_ms"] = agg["core.estimate"].selfPer(n, 1e-3)
}

// nominalCond is the corner table2 and serve-mix run at.
var nominalCond = []cell.OperatingCondition{{}}

// retrainRatios are the frequency ratios the set-up replica retrains the
// datapath at after SetWorkingPeriod, as every oppoint probe does.
var retrainRatios = []float64{1.0, 1.1, 1.2, 1.3}

// setupReplica rebuilds the framework at each condition through the same
// public calls core.NewFrameworkContext makes, with a span around each:
// SSTA calibration (errormodel.NewMachineContext: gen, sta, variation), the
// first datapath training (dta, errormodel), retraining after
// SetWorkingPeriod, and a warm core.NewFrameworkCached from the snapshot it
// saved. It writes its own temporary model cache and leaves nothing behind.
func setupReplica(ctx context.Context, tr *Tracer, conds []cell.OperatingCondition, vals map[string]float64) error {
	dir, err := tempDir("setup-replica-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var retrains []float64
	var warm []float64
	for _, cond := range conds {
		opts := errormodel.DefaultOptions()
		opts.Cond = cond
		tag := "@" + cond.Norm().String()
		var m *errormodel.Machine
		var dp *errormodel.DatapathModel
		var err error
		id := tr.Do("errormodel.new_machine"+tag, 0, 0, func() { m, err = errormodel.NewMachineContext(ctx, opts) })
		if err != nil {
			return fmt.Errorf("setup replica %s: %w", cond, err)
		}
		calib := spanDur(tr, id)
		id = tr.Do("errormodel.train_datapath_first"+tag, 0, 0, func() { dp, err = m.TrainDatapath(ctx) })
		if err != nil {
			return fmt.Errorf("setup replica %s: %w", cond, err)
		}
		train := spanDur(tr, id)
		vals["errormodel.new_machine_s"] += calib
		vals["errormodel.train_datapath_first_s"] += train
		fmt.Fprintf(os.Stderr, "perfbench: corner %s: new_machine %.3fs, first datapath training %.3fs\n", cond.Norm(), calib, train)
		working := m.WorkingPeriodPs
		for _, r := range retrainRatios {
			m.SetWorkingPeriod(m.BasePeriodPs / r)
			id = tr.Do("errormodel.train_datapath_retrain", 0, 0, func() { _, err = m.TrainDatapath(ctx) })
			if err != nil {
				return fmt.Errorf("setup replica %s: %w", cond, err)
			}
			retrains = append(retrains, spanDur(tr, id)*1e3)
		}
		m.SetWorkingPeriod(working)
		key := modelcache.Key(opts, cell.Fingerprint())
		if err := modelcache.Save(dir, key, &modelcache.Snapshot{Scales: m.Scales(), Datapath: dp}); err != nil {
			return err
		}
		var hit bool
		id = tr.Do("modelcache.warm_build"+tag, 0, 0, func() { _, hit, err = core.NewFrameworkCachedContext(ctx, opts, dir) })
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("setup replica %s: saved snapshot did not load", cond)
		}
		warm = append(warm, spanDur(tr, id)*1e3)
	}
	vals["errormodel.train_datapath_retrain_ms"] = mean(retrains)
	vals["modelcache.warm_build_ms"] = mean(warm)
	return nil
}

// spanDur returns the duration in seconds of the span with the given ID.
func spanDur(tr *Tracer, id int64) float64 {
	spans := tr.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].ID == id {
			return float64(spans[i].dur()) / 1e9
		}
	}
	return 0
}

// serverLayers derives the server-side ratios from a /metrics delta; every
// ratio's base is reported beside it.
func serverLayers(vals map[string]float64, d scrape) {
	reqs := d[`tsperrd_requests_total{endpoint="estimate"}`]
	vals["server.requests"] = reqs
	vals["server.cache_hit_ratio"] = ratio(d["tsperrd_cache_hits_total"], reqs)
	vals["server.dedup_join_ratio"] = ratio(d["tsperrd_dedup_joins_total"], reqs)
	vals["server.queue_reject_ratio"] = ratio(d["tsperrd_queue_rejects_total"], reqs)
	hits := d["tsperrd_surrogate_hits_total"]
	var esc float64
	for _, r := range []string{"untrained", "uncertain", "near_threshold"} {
		n := d[`tsperrd_surrogate_escalations_total{reason="`+r+`"}`]
		vals["surrogate.escalations."+r] = n
		esc += n
	}
	vals["surrogate.eligible"] = hits + esc
	vals["surrogate.serve_ratio"] = ratio(hits, hits+esc)
	vals["surrogate.trainings"] = d["tsperrd_surrogate_trainings_total"]
	subs := d["tsperrd_oppoint_subrequests_total"]
	vals["server.oppoint_subrequests"] = subs
	vals["server.oppoint_sub_hit_ratio"] = ratio(d["tsperrd_oppoint_subrequest_cache_hits_total"], subs)
}

// cornerFirstProbes returns the mean duration in seconds of the first
// AnalyzeAt span at each operating condition.
func cornerFirstProbes(spans []Span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	seen := make(map[string]bool)
	var firsts []float64
	for _, s := range spans {
		if c, ok := strings.CutPrefix(s.Name, "harness.analyze_at@"); ok && !seen[c] {
			seen[c] = true
			firsts = append(firsts, float64(s.dur())/1e9)
		}
	}
	return mean(firsts)
}
