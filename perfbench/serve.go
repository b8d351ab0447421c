package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// serve-mix: an open-loop schedule of POST /v1/estimate requests against an
// in-process tsperrd in surrogate serve mode. Arrivals are evenly spaced at
// a fixed rate; each request's latency runs from when it was due.

// Request classes.
const (
	classCache     = iota // repeat keys the warm-up cached
	classSurrogate        // keys the surrogate never saw
	classEscalate         // error_rate_threshold at the key's exact rate
	classFreq             // freq_ratio overrides, served through AnalyzeAt
	classMC               // Monte Carlo validations
	numClasses
)

var classNames = [numClasses]string{"cache", "surrogate", "escalate", "freq", "mc"}

// classBlock fixes how many of every block of 100 consecutive arrivals
// belong to each class. Each block holds the same multiset of
// cache and surrogate keys, and rotating escalate, freq and mc keys; the
// seed shuffles the surrogate-class requests inside each block.
// Fixing the content keeps the rare, heavy requests (and keys whose
// responses are costly to encode) from swinging a run's load with the seed.
// The shares, like zipfS and nominalRPS, are assumptions with no measured
// source (README.md).
var classBlock = [numClasses]int{60, 26, 7, 6, 1}

var (
	// trainScenarios are the scenario counts the warm-up runs exactly (and
	// so trains the surrogate on); unseenScenarios never reach the exact
	// tier unless the gate escalates them.
	trainScenarios  = []int{1, 2, 4, 8}
	unseenScenarios = []int{3, 5, 6, 7}
	serveRatios     = []float64{1.0, 1.05, 1.1, 1.2, 1.25, 1.3}
)

const (
	// zipfS skews key popularity: rank r gets weight 1/r^zipfS.
	zipfS = 1.1
	// serveMCTrials is the Monte Carlo budget of an mc request.
	serveMCTrials = 8
	// nominalRPS is the workload's nominal arrival rate; the ladder rates
	// multiply it. sloMS is the latency limit on the sloP percentile.
	nominalRPS = 40.0
	sloMS      = 250.0
	// lagLimitMS: when the median lateness of a phase's arrivals exceeds
	// it, the generator has fallen behind its schedule. Timer wake-up alone
	// makes arrivals 0.6-0.8 ms late on a 2-CPU host at every rate.
	lagLimitMS = 2.0
	// sloP is the percentile the latency limit applies to; a phase must
	// hold enough samples to support it (ten beyond).
	sloP = 95.0
)

// ladder multiplies nominalRPS for the max_rps_at_slo search.
var ladder = []float64{2}

type estimateBody struct {
	Benchmark          string  `json:"benchmark"`
	Scenarios          int     `json:"scenarios,omitempty"`
	Retries            int     `json:"retries,omitempty"`
	MCTrials           int     `json:"mc_trials,omitempty"`
	ErrorRateThreshold float64 `json:"error_rate_threshold,omitempty"`
	FreqRatio          float64 `json:"freq_ratio,omitempty"`
}

// checkKey identifies the result a request must return: retries and the
// threshold do not change a clean run's report.
func (b estimateBody) checkKey() string {
	return fmt.Sprintf("%s|%d|%g|%d", b.Benchmark, b.Scenarios, b.FreqRatio, b.MCTrials)
}

type baseKey struct {
	bench string
	scen  int
}

// zipfCounts apportions total draws over n ranks with weight 1/(r+1)^s by
// largest remainders.
func zipfCounts(n, total int, s float64) []int {
	w := make([]float64, n)
	var sum float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := total
	for r := range w {
		exact := w[r] / sum * float64(total)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, r := range rem[:left] {
		counts[r]++
	}
	return counts
}

// spread repeats keys[i] counts[i] times, ordered so each key's repeats are
// evenly spaced through the result (stride order), not bunched together.
func spread(keys []baseKey, counts []int) []baseKey {
	type slot struct {
		at  float64
		key baseKey
	}
	var slots []slot
	for i, c := range counts {
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(c), keys[i]})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([]baseKey, len(slots))
	for i, sl := range slots {
		out[i] = sl.key
	}
	return out
}

// popularitySeed fixes the popularity ranking of the key space, so every
// run weighs the same keys as hot.
const popularitySeed = 1

// mix builds the request stream block by block.
type mix struct {
	rng     *rand.Rand
	rates   map[baseKey]float64 // exact mean error rate per trained key
	trained []baseKey           // popularity order
	benches []string
	// cacheKeys and surrogateKeys are each block's Zipf-apportioned keys.
	cacheKeys, surrogateKeys []baseKey
	pending                  []arrival
	block                    int
}

func newMix(rng *rand.Rand, rates map[baseKey]float64) *mix {
	m := &mix{rng: rng, rates: rates, benches: kernelNames()}
	var unseen []baseKey
	for _, b := range m.benches {
		for _, s := range trainScenarios {
			m.trained = append(m.trained, baseKey{b, s})
		}
		for _, s := range unseenScenarios {
			unseen = append(unseen, baseKey{b, s})
		}
	}
	rank := rand.New(rand.NewSource(popularitySeed))
	rank.Shuffle(len(m.trained), func(i, j int) { m.trained[i], m.trained[j] = m.trained[j], m.trained[i] })
	rank.Shuffle(len(unseen), func(i, j int) { unseen[i], unseen[j] = unseen[j], unseen[i] })
	m.cacheKeys = spread(m.trained, zipfCounts(len(m.trained), classBlock[classCache], zipfS))
	m.surrogateKeys = spread(unseen, zipfCounts(len(unseen), classBlock[classSurrogate], zipfS))
	return m
}

// fill appends the next block. Every request that can be costly sits at a
// fixed slot: the heavy requests (escalate, freq, mc) evenly spread in a
// fixed order, and the repeat keys in a fixed order between them (a cached
// report can be costly to encode). The seed shuffles only the requests for
// keys the surrogate never saw, which take evenly spread slots of their own.
func (m *mix) fill() {
	var heavy []arrival
	cache := make([]arrival, len(m.cacheKeys))
	for i, k := range m.cacheKeys {
		cache[i] = arrival{class: classCache, body: estimateBody{Benchmark: k.bench, Scenarios: k.scen}}
	}
	unseen := make([]arrival, len(m.surrogateKeys))
	for i, k := range m.surrogateKeys {
		unseen[i] = arrival{class: classSurrogate, body: estimateBody{Benchmark: k.bench, Scenarios: k.scen}}
	}
	m.rng.Shuffle(len(unseen), func(i, j int) { unseen[i], unseen[j] = unseen[j], unseen[i] })
	cheap := interleave(unseen, cache)
	nt := len(m.trained)
	for j := 0; j < classBlock[classEscalate] || j < classBlock[classFreq]; j++ {
		if j < classBlock[classEscalate] {
			// Misses rotate over the trained keys; the retry count makes a
			// fresh request key without changing the report.
			i := m.block*classBlock[classEscalate] + j
			k := m.trained[i%nt]
			heavy = append(heavy, arrival{class: classEscalate, body: estimateBody{Benchmark: k.bench, Scenarios: k.scen,
				Retries: 1 + (i/nt)%8, ErrorRateThreshold: m.rates[k]}})
		}
		if j < classBlock[classFreq] {
			i := m.block*classBlock[classFreq] + j
			k := m.trained[i%nt]
			heavy = append(heavy, arrival{class: classFreq, body: estimateBody{Benchmark: k.bench, Scenarios: k.scen,
				FreqRatio: serveRatios[(i/nt)%len(serveRatios)]}})
		}
	}
	for j := 0; j < classBlock[classMC]; j++ {
		i := m.block*classBlock[classMC] + j
		heavy = append(heavy, arrival{class: classMC, body: estimateBody{Benchmark: m.benches[i%len(m.benches)], Scenarios: 1, MCTrials: serveMCTrials}})
	}
	m.pending = append(m.pending, interleave(heavy, cheap)...)
	m.block++
}

// interleave spreads the few evenly through the many: few[h] takes slot
// (h+0.5)·n/len(few) of the n = len(few)+len(many) slots.
func interleave(few, many []arrival) []arrival {
	n := len(few) + len(many)
	out := make([]arrival, 0, n)
	for h, c := 0, 0; h+c < n; {
		if h < len(few) && (c == len(many) || (h*2+1)*n <= 2*len(few)*(h+c)) {
			out = append(out, few[h])
			h++
		} else {
			out = append(out, many[c])
			c++
		}
	}
	return out
}

func (m *mix) next() arrival {
	if len(m.pending) == 0 {
		m.fill()
	}
	a := m.pending[0]
	m.pending = m.pending[1:]
	a.raw, _ = json.Marshal(a.body)
	return a
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // due offset from the phase start
	class int
	body  estimateBody
	raw   []byte
}

// schedule spaces one phase's arrivals evenly at rps. Even spacing keeps
// bursts of heavy requests, which queue on the serialized operating-point
// lane and the two CPUs, from swinging the tail with the seed; the seed
// still orders the requests inside each block.
func (m *mix) schedule(rps float64, dur time.Duration) []arrival {
	n := int(math.Round(rps * dur.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i] = m.next()
		out[i].at = time.Duration(float64(i) / rps * float64(time.Second))
	}
	return out
}

// outcome is one request's result.
type outcome struct {
	lat    time.Duration // from due to full response
	lag    time.Duration // from due to send
	status int
	body   []byte
	err    error
	done   time.Time
}

// phase is one fixed-rate stretch of the schedule.
type phase struct {
	rps      float64
	dur      time.Duration
	arrivals []arrival
	out      []outcome
	start    time.Time
	reqBase  int64
}

// runPhase sends every arrival at its due time, each on its own stream, and
// waits for all responses.
func runPhase(d *daemon, p *phase, tr *Tracer, dues map[int64]int64) {
	p.out = make([]outcome, len(p.arrivals))
	var wg sync.WaitGroup
	ctx := context.Background()
	p.start = time.Now()
	for i := range p.arrivals {
		a := &p.arrivals[i]
		due := p.start.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		lag := time.Since(due)
		req := p.reqBase + int64(i) + 1
		if dues != nil {
			dues[req] = tr.At(due)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := d.post(ctx, "/v1/estimate", a.raw, req)
			now := time.Now()
			p.out[i] = outcome{lat: now.Sub(due), lag: lag, status: status, body: body, err: err, done: now}
		}(i)
	}
	wg.Wait()
}

// phaseStats summarizes a finished phase.
type phaseStats struct {
	n, failed int
	lat       timing
	byTier    map[string][]float64 // ms, by answering tier
	lagP99    float64              // ms
	lagP50    float64              // ms
	growing   bool                 // a backlog outlived the schedule
	sloLat    float64              // ms, latency at the limit's percentile
	achieved  float64              // completed requests per second
	meetsSLO  bool
	behind    bool
}

// maxRateAtSLO returns the throughput the server sustained at the highest
// rate whose phase met the limit; phases run in increasing rate order and
// stop at the first miss. When even the first missed, its throughput is
// scaled down by how far its tail overshot, so the metric stays continuous.
func maxRateAtSLO(phases []phaseStats) float64 {
	best := 0.0
	for _, st := range phases {
		if !st.meetsSLO {
			break
		}
		best = st.achieved
	}
	if best == 0 && len(phases) > 0 {
		// A miss for another reason than latency (failures, too few samples,
		// a growing backlog, a late generator) counts as twice the limit.
		st := phases[0]
		over := st.sloLat
		if over <= sloMS {
			over = 2 * sloMS
		}
		best = st.achieved * sloMS / over
	}
	return best
}

// checker holds the first exact report per result key and checks every
// later exact answer against it.
type checker struct {
	first map[string]string
	rates map[baseKey]float64
}

type wireReport struct {
	Instructions int64           `json:"instructions"`
	Scenarios    int             `json:"scenarios"`
	Estimate     json.RawMessage `json:"estimate"`
	MC           json.RawMessage `json:"montecarlo"`
	Surrogate    *struct {
		PredictedErrorRate float64 `json:"predicted_error_rate"`
	} `json:"surrogate"`
}

type wireEstimate struct {
	Cached bool       `json:"cached"`
	Tier   string     `json:"tier"`
	Report wireReport `json:"report"`
}

// check validates one 200 response and returns its answering tier
// ("cache", "surrogate" or "exact").
func (c *checker) check(body estimateBody, raw []byte) (string, error) {
	var w wireEstimate
	if err := json.Unmarshal(raw, &w); err != nil {
		return "", fmt.Errorf("bad response: %w", err)
	}
	if w.Tier == "surrogate" {
		s := w.Report.Surrogate
		if s == nil || !(s.PredictedErrorRate > 0 && s.PredictedErrorRate < 1) {
			return "", fmt.Errorf("surrogate answer without a usable prediction")
		}
		return "surrogate", nil
	}
	if len(w.Report.Estimate) == 0 || w.Report.Scenarios != body.Scenarios {
		return "", fmt.Errorf("exact answer without an estimate for %d scenarios", body.Scenarios)
	}
	digest := fmt.Sprintf("%d|%s|%s", w.Report.Instructions, w.Report.Estimate, w.Report.MC)
	k := body.checkKey()
	if want, ok := c.first[k]; !ok {
		c.first[k] = digest
	} else if want != digest {
		return "", fmt.Errorf("%s: answer differs from the first exact report", k)
	}
	if w.Cached {
		return "cache", nil
	}
	return "exact", nil
}

func (c *checker) summarize(e *env, p *phase) phaseStats {
	st := phaseStats{n: len(p.out), byTier: make(map[string][]float64)}
	var lats, lags []float64
	inPhase := 0 // answered before the schedule ended
	end := p.start.Add(p.dur)
	lastIn := p.start
	for i, o := range p.out {
		e.out.Attempted++
		lats = append(lats, float64(o.lat)/1e6)
		lags = append(lags, float64(o.lag)/1e6)
		if !o.done.After(end) {
			inPhase++
			if o.done.After(lastIn) {
				lastIn = o.done
			}
		}
		if o.err != nil || o.status != 200 {
			st.failed++
			if o.err != nil {
				e.fail("request %s: %v", p.arrivals[i].raw, o.err)
			} else {
				e.fail("request %s: %v", p.arrivals[i].raw, errStatus(o.status, o.body))
			}
			continue
		}
		tier, err := c.check(p.arrivals[i].body, o.body)
		if err != nil {
			st.failed++
			e.fail("request %s: %v", p.arrivals[i].raw, err)
			continue
		}
		st.byTier[tier] = append(st.byTier[tier], float64(o.lat)/1e6)
	}
	st.lat = summarize(lats, 99)
	st.lagP99 = percentile(lags, 99)
	st.lagP50 = median(lags)
	// Requests answered within the phase over the time it took to answer
	// them: the rate the server actually sustained.
	if inPhase > 0 {
		st.achieved = float64(inPhase) / lastIn.Sub(p.start).Seconds()
	}
	st.behind = st.lagP50 > lagLimitMS
	// A backlog that grew through the phase leaves requests outstanding when
	// the schedule ends.
	outstanding := len(p.out) - inPhase
	st.growing = outstanding > len(p.out)/10
	st.sloLat = percentile(lats, sloP)
	supported, _ := tailPercentile(len(lats), sloP)
	st.meetsSLO = st.failed == 0 && supported >= sloP && st.sloLat <= sloMS && !st.growing && !st.behind
	byClass := make([][]float64, numClasses)
	for i, o := range p.out {
		byClass[p.arrivals[i].class] = append(byClass[p.arrivals[i].class], float64(o.lat)/1e6)
	}
	for c, xs := range byClass {
		if len(xs) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench:   class %-9s n=%4d p50=%8.2fms p90=%8.2fms max=%8.2fms\n", classNames[c], len(xs), median(xs), percentile(xs, 90), percentile(xs, 100))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %5.0f rps n=%d p50=%.2fms p%g=%.2fms p95=%.2fms lag p50=%.2fms p99=%.2fms backlog=%v tiers=%s slo=%v\n",
		p.rps, st.n, st.lat.P50, st.lat.TailP, st.lat.Tail, st.sloLat, st.lagP50, st.lagP99, st.growing, tierCounts(st.byTier), st.meetsSLO)
	return st
}

func tierCounts(m map[string][]float64) string {
	s := ""
	for _, t := range []string{"cache", "surrogate", "exact"} {
		s += fmt.Sprintf("%s:%d ", t, len(m[t]))
	}
	return s
}

// serveWarmup runs every trained key exactly (two at a time, as a
// closed-loop client would), warms the nominal operating-point framework,
// and waits until the surrogate has trained on the results. It returns the
// exact rates and a checker seeded with the first exact reports.
func serveWarmup(d *daemon) (*checker, error) {
	c := &checker{first: make(map[string]string), rates: make(map[baseKey]float64)}
	var keys []estimateBody
	for _, b := range kernelNames() {
		for _, s := range trainScenarios {
			keys = append(keys, estimateBody{Benchmark: b, Scenarios: s})
		}
	}
	keys = append(keys, estimateBody{Benchmark: keys[0].Benchmark, Scenarios: keys[0].Scenarios, FreqRatio: serveRatios[0]})
	type res struct {
		status int
		body   []byte
		err    error
	}
	results := make([]res, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				raw, _ := json.Marshal(keys[i])
				st, b, err := d.post(context.Background(), "/v1/estimate", raw, 0)
				results[i] = res{st, b, err}
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.status != 200 {
			return nil, errStatus(r.status, r.body)
		}
		if _, err := c.check(keys[i], r.body); err != nil {
			return nil, err
		}
		var w struct {
			Report struct {
				Estimate struct {
					Mean float64 `json:"mean_error_rate"`
				} `json:"estimate"`
			} `json:"report"`
		}
		if err := json.Unmarshal(r.body, &w); err != nil {
			return nil, err
		}
		c.rates[baseKey{keys[i].Benchmark, keys[i].Scenarios}] = w.Report.Estimate.Mean
	}
	a := d.tier.adapter.Load()
	a.Tier().Quiesce()
	if st := a.Stats(); st.ModelVersion < 1 {
		return nil, fmt.Errorf("surrogate untrained after warm-up (%d observations buffered)", st.Buffered)
	}
	return c, nil
}

// childServe measures a cold daemon start and the warm-up that trains the
// surrogate.
func childServe(c *childEnv) error {
	t0 := time.Now()
	d, err := startDaemon(daemonOpts{dir: c.dir, surrogate: true, queue: serveQueue})
	if err != nil {
		return err
	}
	defer d.close()
	c.res.SetupS = time.Since(t0).Seconds()
	t1 := time.Now()
	if _, err := serveWarmup(d); err != nil {
		return err
	}
	c.res.ColdS = time.Since(t1).Seconds()
	return nil
}

// serveQueue is the daemon's compute backlog (tsperrd -queue): deep enough
// that overload shows as latency and backlog rather than 503s.
const serveQueue = 4096

func runServe(e *env) error {
	var tr *Tracer
	vals := make(map[string]float64)
	if e.trace {
		tr = newTracer()
		if err := setupReplica(context.Background(), tr, nominalCond, vals); err != nil {
			return err
		}
	}
	kids, _, err := coldRuns(e, coldChildren, false, false)
	if err != nil {
		return err
	}
	childPeak := reportCold(e, kids, "", "")
	dir, err := tempDir("serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(daemonOpts{dir: dir, surrogate: true, queue: serveQueue, traced: e.trace})
	if err != nil {
		return err
	}
	defer d.close()
	chk, err := serveWarmup(d)
	if err != nil {
		return err
	}
	m := newMix(e.rng, chk.rates)
	budget := time.Duration(e.seconds * float64(time.Second))
	var reqBase int64
	newPhase := func(rps float64, dur time.Duration) *phase {
		p := &phase{rps: rps, dur: dur, arrivals: m.schedule(rps, dur), reqBase: reqBase}
		reqBase += int64(len(p.arrivals))
		return p
	}

	if e.trace {
		return traceServe(e, d, chk, newPhase, budget, tr, vals)
	}

	// Each ladder rung runs long enough to support the limit's percentile;
	// the nominal phase gets the rest of the budget. The ladder stops at the
	// first rung that misses the limit.
	rungs := make([]time.Duration, len(ladder))
	nominalDur := budget
	for i, k := range ladder {
		rungs[i] = max(time.Duration(1.1*minBeyond/(1-sloP/100)/(nominalRPS*k)*float64(time.Second)), 2*time.Second)
		nominalDur -= rungs[i]
	}
	if nominalDur < budget/2 {
		return fmt.Errorf("serve-mix needs more than %v to fit the rate ladder", budget)
	}
	nominal := newPhase(nominalRPS, nominalDur)
	runPhase(d, nominal, nil, nil)
	st := chk.summarize(e, nominal)
	if st.behind {
		e.markInvalid("generator fell behind its schedule at the nominal rate (median %.2fms late)", st.lagP50)
	}
	e.set("op_p50_ms", st.lat.P50, "ms")
	e.set("op_tail_ms", st.lat.Tail, "ms")
	phases := []phaseStats{st}
	for i, k := range ladder {
		if !st.meetsSLO {
			break
		}
		time.Sleep(200 * time.Millisecond)
		p := newPhase(nominalRPS*k, rungs[i])
		runPhase(d, p, nil, nil)
		st = chk.summarize(e, p)
		phases = append(phases, st)
	}
	best := maxRateAtSLO(phases)
	e.set("throughput_per_s", best, "1/s")
	e.set("rss_peak_mb", max(rssPeakMB(), childPeak), "MB")
	return nil
}

// traceServe runs the nominal rate untraced, then traced: request spans
// around the server's handler, spans around every hook, the stage replica
// answering plain exact requests, and /metrics scrapes around the traced
// phase.
func traceServe(e *env, d *daemon, chk *checker, newPhase func(float64, time.Duration) *phase, budget time.Duration, tr *Tracer, vals map[string]float64) error {
	plain := newPhase(nominalRPS, budget/2)
	runPhase(d, plain, nil, nil)
	ps := chk.summarize(e, plain)
	vals["server.latency_us.cache"] = median(ps.byTier["cache"]) * 1e3
	vals["server.latency_us.surrogate"] = median(ps.byTier["surrogate"]) * 1e3
	vals["server.latency_ms.exact"] = median(ps.byTier["exact"])

	before, err := d.metrics()
	if err != nil {
		return err
	}
	traced := newPhase(nominalRPS, budget/2)
	dues := make(map[int64]int64, len(traced.arrivals))
	d.setTracer(tr)
	runPhase(d, traced, tr, dues)
	d.setTracer(nil)
	after, err := d.metrics()
	if err != nil {
		return err
	}
	ts := chk.summarize(e, traced)
	vals["serve.gen_lag_ms"] = ts.lagP99
	vals["trace.overhead_ms"] = ts.lat.P50 - ps.lat.P50
	vals["trace.overhead_pct"] = 100 * (ts.lat.P50 - ps.lat.P50) / ps.lat.P50
	serverLayers(vals, delta(before, after))

	spans := tr.Spans()
	agg := aggregate(spans)
	stageLayers(vals, agg)
	self := selfTimes(spans)
	var reqSelf, waits, plainAnalyze []float64
	var trials, mcNS float64
	for _, s := range spans {
		switch s.Name {
		case "server.request/v1/estimate":
			reqSelf = append(reqSelf, float64(self[s.ID])/1e3)
		case "core.analyze":
			if due, ok := dues[s.Req]; ok {
				waits = append(waits, float64(s.Start-due)/1e6)
			}
			if s.Count > 0 {
				trials += float64(s.Count)
				mcNS += float64(s.dur())
			} else {
				plainAnalyze = append(plainAnalyze, float64(s.dur())/1e6)
			}
		}
	}
	vals["server.self_us"] = median(reqSelf)
	vals["server.wait_ms"] = median(waits)
	vals["core.analyze_ms"] = mean(plainAnalyze)
	if mcNS > 0 {
		vals["montecarlo.trials_per_s"] = trials / (mcNS / 1e9)
	}
	vals["surrogate.decide_us"] = agg["surrogate.decide"].meanSelf(1e-6)
	vals["surrogate.observe_us"] = agg["surrogate.observe"].meanSelf(1e-6)
	fmt.Fprintf(os.Stderr, "perfbench: serve traced p50 %.3fms (untraced %.3fms); trace %s\n",
		ts.lat.P50, ps.lat.P50, writeTrace(e, tr, ""))
	emitLayers(e, vals)
	return nil
}
