package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tsperr/internal/cfg"
	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/pool"
)

// analyzeReplica drives one strict (no retries, no Monte Carlo) analysis
// through the same public calls core.(*Framework).AnalyzeWithOpts makes,
// recording a span around each so the per-layer self times describe the
// program being benchmarked. Scenarios run on a GOMAXPROCS-wide pool, as in
// the framework. The caller checks the estimate against
// harness.AnalyzeWithOpts; a replica that drifts from the framework fails
// the traced run instead of reporting numbers for a different program.
func analyzeReplica(ctx context.Context, tr *Tracer, fw *core.Framework, name string, scenarios int, req, parent int64) (*core.Report, error) {
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	spec := harness.SpecFor(b, scenarios)
	root := tr.NewID()
	start := tr.Now()
	defer func() {
		tr.Record(Span{ID: root, Parent: parent, Req: req, Name: "replica.analyze", Start: start, End: tr.Now()})
	}()

	var g *cfg.Graph
	tr.Do("cfg.build", root, req, func() { g, err = cfg.Build(spec.Prog) })
	if err != nil {
		return nil, err
	}

	type raw struct {
		pr    *cfg.Profile
		feats *errormodel.ScenarioFeatures
	}
	raws := make([]raw, spec.Scenarios)
	errs := make([]error, spec.Scenarios)
	cfgCPU := cpu.DefaultConfig()
	cfgCPU.SkipToggles = true
	pool.Run(ctx, spec.Scenarios, 0, true, errs, func(ctx context.Context, s int) error {
		var m *cpu.CPU
		var err error
		tr.Do("cpu.setup", root, req, func() {
			if m, err = cpu.New(spec.Prog, cfgCPU); err == nil {
				err = spec.Setup(m, s)
			}
		})
		if err != nil {
			return err
		}
		defer m.Release()
		pr := cfg.NewProfile(g)
		feats, _ := errormodel.NewFeatureCollector(len(spec.Prog.Insts), fw.Datapath)
		var st cpu.Stats
		var profNS, featNS int64
		runID := tr.NewID()
		runStart := tr.Now()
		st, err = m.RunBatched(ctx, func(ds []cpu.DynInst) {
			t0 := time.Now()
			pr.ObserveBatch(ds)
			t1 := time.Now()
			feats.ObserveBatch(ds)
			profNS += int64(t1.Sub(t0))
			featNS += int64(time.Since(t1))
		})
		runEnd := tr.Now()
		tr.Record(Span{ID: runID, Parent: root, Req: req, Name: "cpu.run", Start: runStart, End: runEnd, Count: st.Instructions})
		// The observer callbacks run thousands of times per scenario; each is
		// recorded as one aggregate child span of the run, laid end to end
		// from the run's start, so the run's self time excludes them.
		tr.Record(Span{Parent: runID, Req: req, Name: "cfg.profile", Start: runStart, End: runStart + profNS})
		tr.Record(Span{Parent: runID, Req: req, Name: "errormodel.features", Start: runStart + profNS, End: runStart + profNS + featNS})
		if err != nil {
			return err
		}
		pr.InstCount = st.Instructions
		if spec.ScaleToInsts > 0 && pr.InstCount > 0 {
			if k := spec.ScaleToInsts / pr.InstCount; k > 1 {
				pr.Scale(k)
			}
		}
		raws[s] = raw{pr: pr, feats: feats}
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("replica %s: simulation: %w", name, err)
	}

	var cc *errormodel.ControlChar
	tr.Do("errormodel.control", root, req, func() {
		cc, err = fw.Machine.CharacterizeControl(ctx, g, raws[0].pr, raws[0].feats.Results)
	})
	if err != nil {
		return nil, fmt.Errorf("replica %s: control: %w", name, err)
	}

	scs := make([]core.Scenario, spec.Scenarios)
	pool.Run(ctx, spec.Scenarios, 0, true, errs, func(ctx context.Context, s int) error {
		var cond *errormodel.Conditionals
		var scc *cfg.SCC
		var marg *errormodel.Marginals
		var err error
		tr.Do("errormodel.conditionals", root, req, func() { cond = errormodel.BuildConditionals(g, cc, raws[s].feats) })
		tr.Do("cfg.scc", root, req, func() { scc = cfg.ComputeSCC(g, raws[s].pr) })
		tr.Do("errormodel.marginals", root, req, func() { marg, err = errormodel.ComputeMarginals(g, raws[s].pr, scc, cond) })
		if err != nil {
			return err
		}
		scs[s] = core.Scenario{Profile: raws[s].pr, Marginals: marg, Cond: cond, Features: raws[s].feats}
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("replica %s: marginals: %w", name, err)
	}

	var est *core.Estimate
	tr.Do("core.estimate", root, req, func() { est, err = core.NewEstimate(ctx, g, scs) })
	if err != nil {
		return nil, fmt.Errorf("replica %s: estimate: %w", name, err)
	}
	var insts int64
	for _, r := range raws {
		insts += r.pr.InstCount
	}
	return &core.Report{
		Name:         b.Name,
		Instructions: insts / int64(len(raws)),
		BasicBlocks:  len(g.Blocks),
		Estimate:     est,
		Graph:        g,
		Scenarios:    scs,
	}, nil
}
