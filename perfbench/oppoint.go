package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"tsperr/internal/cell"
)

// oppoint-grid: one closed-loop caller sends POST /v1/oppoint over a V/T
// grid with an off-nominal voltage. The first search runs from an empty
// model cache and pays calibration and first datapath training at every
// corner; later searches reuse the grid, cycling through benchmarks and
// target error rates.

var (
	oppointVoltages = []float64{1.05, 1.1}
	oppointTemps    = []float64{25}
	oppointTargets  = []float64{5e-4, 1e-3, 2e-3, 4e-3, 8e-3}
)

// oppointScenarios and oppointSteps size each search: one scenario per probe
// and an 8-step ratio grid (5 probes per corner). One scenario keeps a probe
// to the retrain, control characterization and single simulation this
// workload is about; the cost of reporting multi-scenario estimates is
// serve-mix's to show. Three searches in four are fresh: each moves its
// grid's low end to a ratio never used before, so its probes compute,
// retraining the datapath at each, and warm-search latency is the latency of
// computed searches. Every repeatEvery-th search repeats the first grid,
// which the result cache answers. The cache (oppointCache, tsperrd -cache)
// is sized well beyond the probes a round of fresh searches adds, so the
// probes searches share (the grid's fast end, 1.3) stay cached and cache
// state never decides which probes compute.
const (
	oppointScenarios = 1
	oppointSteps     = 8
	oppointCache     = 512
	repeatEvery      = 4
	// oppointTailP caps the tail percentile at p90: a 25 s run holds about
	// 250 searches, too close to the 200 that p95 needs for the percentile
	// to stay put from run to run.
	oppointTailP = 90
)

// oppointConds is the grid as operating conditions, for the set-up replica.
func oppointConds() []cell.OperatingCondition {
	var out []cell.OperatingCondition
	for _, v := range oppointVoltages {
		for _, t := range oppointTemps {
			out = append(out, cell.OperatingCondition{VoltageV: v, TempC: t})
		}
	}
	return out
}

type oppointBody struct {
	Benchmark       string    `json:"benchmark"`
	Scenarios       int       `json:"scenarios"`
	Steps           int       `json:"steps"`
	MinRatio        float64   `json:"min_ratio,omitempty"`
	TargetErrorRate float64   `json:"target_error_rate"`
	Voltages        []float64 `json:"voltages"`
	Temps           []float64 `json:"temps_c"`
}

type oppointWire struct {
	Points      json.RawMessage `json:"points"`
	Frontier    json.RawMessage `json:"frontier"`
	Subrequests int             `json:"subrequests"`
	CacheHits   int             `json:"cache_hits"`
}

// searches yields the workload's requests from the seed. Fresh searches go
// round the kernels in a seeded order and take the target error rates in
// turn; every repeatEvery-th search repeats the first grid.
type searches struct {
	pairs []oppointBody
	next  int
}

func newSearches(e *env) *searches {
	s := &searches{}
	for i, b := range kernelNames() {
		s.pairs = append(s.pairs, oppointBody{Benchmark: b, Scenarios: oppointScenarios, Steps: oppointSteps,
			TargetErrorRate: oppointTargets[i%len(oppointTargets)], Voltages: oppointVoltages, Temps: oppointTemps})
	}
	e.rng.Shuffle(len(s.pairs), func(i, j int) { s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i] })
	return s
}

func (s *searches) first() oppointBody { return s.pairs[0] }

// take returns the next search and whether it repeats the first grid.
func (s *searches) take() (oppointBody, bool) {
	i := s.next
	s.next++
	if i%repeatEvery == 0 {
		return s.first(), true
	}
	k := i - i/repeatEvery // fresh searches so far
	b := s.pairs[k%len(s.pairs)]
	b.MinRatio = 0.95 - 0.0005*float64(k)
	b.TargetErrorRate = oppointTargets[k%len(oppointTargets)]
	return b, false
}

// search sends one request and returns its latency, the decoded response
// and a digest of its points and frontier.
func search(d *daemon, b oppointBody, req int64) (time.Duration, oppointWire, string, error) {
	raw, _ := json.Marshal(b)
	start := time.Now()
	status, body, err := d.post(context.Background(), "/v1/oppoint", raw, req)
	lat := time.Since(start)
	var w oppointWire
	if err != nil {
		return lat, w, "", err
	}
	if status != 200 {
		return lat, w, "", errStatus(status, body)
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return lat, w, "", err
	}
	if len(w.Points) == 0 || string(w.Points) == "null" {
		return lat, w, "", fmt.Errorf("oppoint %s: no points", b.Benchmark)
	}
	h := sha256.New()
	h.Write(w.Points)
	h.Write([]byte{0})
	h.Write(w.Frontier)
	return lat, w, hex.EncodeToString(h.Sum(nil))[:16], nil
}

// childOppoint measures a cold daemon start and the first grid search from
// an empty model cache.
func childOppoint(c *childEnv) error {
	e := &env{rng: rand.New(rand.NewSource(c.seed))}
	s := newSearches(e)
	if c.trace {
		c.tr = newTracer()
	}
	t0 := time.Now()
	d, err := startDaemon(daemonOpts{dir: c.dir, cache: oppointCache, traced: c.trace})
	if err != nil {
		return err
	}
	defer d.close()
	c.res.SetupS = time.Since(t0).Seconds()
	d.setTracer(c.tr)
	lat, _, digest, err := search(d, s.first(), c.tr.NewID())
	d.setTracer(nil)
	if err != nil {
		return err
	}
	c.res.ColdS = lat.Seconds()
	c.res.Digest = digest
	return nil
}

func runOppoint(e *env) error {
	vals := make(map[string]float64)
	var tr *Tracer
	n := coldChildrenOppoint
	if e.trace {
		tr = newTracer()
		if err := setupReplica(context.Background(), tr, oppointConds(), vals); err != nil {
			return err
		}
		n = 1
	}
	kids, dir, err := coldRuns(e, n, e.trace, true)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The warm process starts from the last child's model cache: every grid
	// corner restores from its snapshot instead of calibrating again.
	d, err := startDaemon(daemonOpts{dir: dir, cache: oppointCache, traced: e.trace})
	if err != nil {
		return err
	}
	defer d.close()
	s := newSearches(e)
	first := s.first()
	_, _, want, err := search(d, first, 0)
	if err != nil {
		return err
	}
	childPeak := reportCold(e, kids, want, "first grid's points and frontier")

	// Every repeated first grid must answer the same points and frontier.
	// With a tracer, loop attaches it for half of the blocks of repeatEvery
	// searches, so traced and untraced searches come from one mix (fresh
	// grids drift toward lower ratios through a run). A block's fresh
	// searches take the next three kernels, so the traced half swaps every
	// four blocks to give every kernel both halves.
	var req int64
	loop := func(budget time.Duration, tr *Tracer) (untraced, traced, probes []float64) {
		deadline := time.Now().Add(budget)
		for n := 0; time.Now().Before(deadline); n++ {
			m := n / repeatEvery
			on := tr != nil && (m+m/4)%2 == 1
			if on {
				d.setTracer(tr)
			} else {
				d.setTracer(nil)
			}
			b, repeat := s.take()
			req++
			e.out.Attempted++
			lat, w, digest, err := search(d, b, req)
			if err != nil {
				e.fail("oppoint %s@%g: %v", b.Benchmark, b.TargetErrorRate, err)
				continue
			}
			if repeat && digest != want {
				e.fail("oppoint %s@%g: points or frontier differ from the first answer", b.Benchmark, b.TargetErrorRate)
			}
			if on {
				traced = append(traced, float64(lat)/1e6)
			} else {
				untraced = append(untraced, float64(lat)/1e6)
			}
			probes = append(probes, float64(w.Subrequests))
		}
		d.setTracer(nil)
		return untraced, traced, probes
	}
	budget := time.Duration(e.seconds * float64(time.Second))

	if !e.trace {
		start := time.Now()
		ms, _, _ := loop(budget, nil)
		elapsed := time.Since(start).Seconds()
		t := summarize(ms, oppointTailP)
		fmt.Fprintf(os.Stderr, "perfbench: oppoint searches n=%d p50=%.2fms p%g=%.2fms\n", t.N, t.P50, t.TailP, t.Tail)
		e.set("op_p50_ms", t.P50, "ms")
		e.set("op_tail_ms", t.Tail, "ms")
		e.set("throughput_per_s", float64(len(ms))/elapsed, "1/s")
		e.set("rss_peak_mb", max(rssPeakMB(), childPeak), "MB")
		return nil
	}

	before, err := d.metrics()
	if err != nil {
		return err
	}
	untraced, traced, probes := loop(budget, tr)
	after, err := d.metrics()
	if err != nil {
		return err
	}
	serverLayers(vals, delta(before, after))
	vals["oppoint.probes_per_grid"] = mean(probes)
	var at []float64
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, "harness.analyze_at@") {
			at = append(at, float64(sp.dur())/1e6)
		}
	}
	vals["harness.analyze_at_ms"] = mean(at)
	vals["harness.corner_first_probe_s"] = cornerFirstProbes(kids[0].Spans)
	pu, pt := median(untraced), median(traced)
	vals["trace.overhead_ms"] = pt - pu
	vals["trace.overhead_pct"] = 100 * (pt - pu) / pu
	cold := newTracer()
	for _, sp := range kids[0].Spans {
		cold.Record(sp)
	}
	fmt.Fprintf(os.Stderr, "perfbench: oppoint traced search p50 %.2fms (untraced %.2fms, n=%d/%d); traces %s %s\n",
		pt, pu, len(traced), len(untraced), writeTrace(e, tr, ""), writeTrace(e, cold, "-cold"))
	emitLayers(e, vals)
	return nil
}
