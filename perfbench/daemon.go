package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/modelcache"
	"tsperr/internal/server"
	"tsperr/internal/surrogate"
)

// headerReq carries the generator's request ID so traced hook spans can be
// tied to the request that caused them.
const headerReq = "X-Perfbench-Req"

// daemonOpts selects how the in-process tsperrd is wired.
type daemonOpts struct {
	// dir is the model-cache directory (fresh per process for cold runs).
	dir string
	// surrogate enables the fast tier in serve mode.
	surrogate bool
	// queue is the compute backlog before 503s (tsperrd -queue); cache is
	// the result-cache capacity (tsperrd -cache). Zero selects the default.
	queue, cache int
	// traced installs span-recording wrappers around the handler and every
	// hook; they record only while a tracer is attached (setTracer). While
	// one is, plain exact requests run through the traced stage replica.
	traced bool
}

// daemon is an in-process tsperrd: server.New wired with the same hooks,
// limits and surrogate adapter cmd/tsperrd uses, served over loopback with
// HTTP/2 so an open-loop generator needs no more than nproc connections.
type daemon struct {
	srv      *server.Server
	hs       *http.Server
	base     string
	client   *http.Client
	tier     *lazyTier
	trp      atomic.Pointer[Tracer]
	active   *activeSet
	serveErr chan error
}

// startDaemon builds the shared framework from opts.dir, attaches the
// surrogate tier, marks the server ready and waits until /healthz answers
// 200 — the cold-start-to-ready interval setup_s measures.
func startDaemon(opts daemonOpts) (*daemon, error) {
	harness.SetModelCache(true, opts.dir)
	fingerprint := modelcache.Key(harness.SharedOptions(), cell.Fingerprint())
	d := &daemon{active: newActiveSet(), serveErr: make(chan error, 1)}
	cfg := server.Config{
		Analyze:     harness.AnalyzeWithOpts,
		AnalyzeAt:   harness.AnalyzeAtPoint,
		Fingerprint: fingerprint,
		Workers:     2,
		QueueDepth:  opts.queue,
		CacheSize:   opts.cache,
		Limits: server.Limits{
			DefaultScenarios: harness.DefaultScenarios,
			MaxScenarios:     64,
			MaxMCTrials:      5000,
			Lookup: func(name string) error {
				_, err := mibench.ByName(name)
				return err
			},
		},
		DefaultTimeout: 2 * time.Minute,
		MaxTimeout:     10 * time.Minute,
		MaxBatch:       32,
	}
	if opts.traced {
		cfg.Analyze = d.tracedAnalyze
		cfg.AnalyzeAt = d.tracedAnalyzeAt
	}
	if opts.surrogate {
		d.tier = &lazyTier{d: d}
		cfg.Surrogate = d.tier
		cfg.SurrogateMode = server.SurrogateServe
	}
	srv, err := server.New(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	handler := srv.Handler()
	if opts.traced {
		handler = d.traceHandler(handler)
	}
	d.hs = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		Protocols:         &protos,
		HTTP2:             &http.HTTP2Config{MaxConcurrentStreams: 4096},
	}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()

	var clientProtos http.Protocols
	clientProtos.SetUnencryptedHTTP2(true)
	d.client = &http.Client{Transport: &http.Transport{
		Protocols:       &clientProtos,
		MaxConnsPerHost: runtime.NumCPU(),
		HTTP2:           &http.HTTP2Config{MaxConcurrentStreams: 4096},
	}}

	fw, err := harness.SharedFramework()
	if err != nil {
		d.close()
		return nil, fmt.Errorf("model warm-up: %w", err)
	}
	if opts.surrogate {
		tier, err := surrogate.New(surrogate.Config{Fingerprint: fingerprint, Dir: opts.dir})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("surrogate tier: %w", err)
		}
		d.tier.adapter.Store(harness.NewSurrogateAdapter(fw, tier))
	}
	srv.SetReady()
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz after ready: %s", resp.Status)
	}
	return d, nil
}

// close drains the daemon the way tsperrd does on SIGTERM: stop the
// listener, let in-flight work finish, then quiesce surrogate retraining.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.srv.Abort()
		d.hs.Close()
	} else {
		d.srv.Close()
	}
	<-d.serveErr
	if d.tier != nil {
		if a := d.tier.adapter.Load(); a != nil {
			a.Tier().Quiesce()
		}
	}
	if t, ok := d.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// post sends one JSON request and returns the status and full body.
func (d *daemon) post(ctx context.Context, path string, body []byte, req int64) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != 0 {
		hr.Header.Set(headerReq, strconv.FormatInt(req, 10))
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) metrics() (scrape, error) { return fetchMetrics(d.client, d.base) }

// lazyTier is the daemon's surrogate handle: until warm-up publishes the
// adapter every request escalates as untrained, as in cmd/tsperrd. While a
// tracer is attached Decide and Observe are wrapped in spans.
type lazyTier struct {
	adapter atomic.Pointer[harness.SurrogateAdapter]
	d       *daemon
}

func (l *lazyTier) Decide(benchmark string, scenarios int, threshold float64) server.SurrogateDecision {
	a := l.adapter.Load()
	if a == nil {
		return server.SurrogateDecision{Reason: surrogate.ReasonUntrained}
	}
	tr := l.d.tracer()
	if tr == nil {
		return a.Decide(benchmark, scenarios, threshold)
	}
	var out server.SurrogateDecision
	req, parent := l.d.active.lookup(benchmark, scenarios)
	tr.Do("surrogate.decide", parent, req, func() { out = a.Decide(benchmark, scenarios, threshold) })
	return out
}

func (l *lazyTier) Observe(benchmark string, scenarios int, rep *core.Report) (float64, bool) {
	a := l.adapter.Load()
	if a == nil {
		return 0, false
	}
	tr := l.d.tracer()
	if tr == nil {
		return a.Observe(benchmark, scenarios, rep)
	}
	var r float64
	var ok bool
	req, parent := l.d.active.lookup(benchmark, scenarios)
	tr.Do("surrogate.observe", parent, req, func() { r, ok = a.Observe(benchmark, scenarios, rep) })
	return r, ok
}

func (l *lazyTier) Stats() server.SurrogateStats {
	if a := l.adapter.Load(); a != nil {
		return a.Stats()
	}
	return server.SurrogateStats{}
}

// setTracer attaches (or, with nil, detaches) the tracer the wrappers
// record into.
func (d *daemon) setTracer(tr *Tracer) { d.trp.Store(tr) }

func (d *daemon) tracer() *Tracer { return d.trp.Load() }

// tracedAnalyze wraps the Analyze hook in a core.analyze span whose Count
// carries the Monte Carlo trials. Strict plain requests run through the
// traced stage replica instead; the workload checks every answer against
// harness-computed references.
func (d *daemon) tracedAnalyze(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	tr := d.tracer()
	if tr == nil {
		return harness.AnalyzeWithOpts(ctx, benchmark, scenarios, opts)
	}
	req, parent := d.active.lookup(benchmark, scenarios)
	id := tr.NewID()
	start := tr.Now()
	var rep *core.Report
	var err error
	strict := opts.MCTrials == 0 && opts.MinScenarios == 0 && !opts.FailFast && opts.Inject == nil && opts.MCRun == nil
	if strict {
		var fw *core.Framework
		if fw, err = harness.SharedFramework(); err == nil {
			rep, err = analyzeReplica(ctx, tr, fw, benchmark, scenarios, req, id)
		}
	} else {
		rep, err = harness.AnalyzeWithOpts(ctx, benchmark, scenarios, opts)
	}
	tr.Record(Span{ID: id, Parent: parent, Req: req, Name: "core.analyze", Start: start, End: tr.Now(), Count: int64(opts.MCTrials)})
	return rep, err
}

// tracedAnalyzeAt wraps the AnalyzeAt hook (operating-point requests and
// oppoint probes); the span name carries the condition so the first probe
// per corner can be picked out.
func (d *daemon) tracedAnalyzeAt(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	tr := d.tracer()
	if tr == nil {
		return harness.AnalyzeAtPoint(ctx, benchmark, scenarios, opts, cond, ratio)
	}
	req, parent := d.active.lookup(benchmark, scenarios)
	start := tr.Now()
	rep, err := harness.AnalyzeAtPoint(ctx, benchmark, scenarios, opts, cond, ratio)
	tr.Record(Span{Parent: parent, Req: req, Name: "harness.analyze_at@" + cond.Norm().String(), Start: start, End: tr.Now()})
	return rep, err
}

// traceHandler records a server.request span around every call into the
// server's handler and registers the request so hook spans find it.
func (d *daemon) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tracer()
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		if tr == nil || req == 0 || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var k struct {
			Benchmark string `json:"benchmark"`
			Scenarios int    `json:"scenarios"`
		}
		_ = json.Unmarshal(body, &k) // a bad body is the server's to reject
		if k.Scenarios == 0 {
			k.Scenarios = harness.DefaultScenarios
		}
		id := tr.NewID()
		start := tr.Now()
		d.active.add(k.Benchmark, k.Scenarios, req, id)
		next.ServeHTTP(w, r)
		d.active.remove(k.Benchmark, k.Scenarios, id)
		tr.Record(Span{ID: id, Req: req, Name: "server.request" + r.URL.Path, Start: start, End: tr.Now()})
	})
}

// activeSet maps (benchmark, scenarios) to the requests in the server
// right now, so a hook span is attached to the earliest active request with
// its key (the one whose computation a dedup join rides on).
type activeSet struct {
	mu sync.Mutex
	m  map[string][][2]int64 // guarded by mu; entries are (req, span)
}

func newActiveSet() *activeSet { return &activeSet{m: make(map[string][][2]int64)} }

func activeKey(benchmark string, scenarios int) string {
	return benchmark + "|" + strconv.Itoa(scenarios)
}

func (a *activeSet) add(benchmark string, scenarios int, req, span int64) {
	k := activeKey(benchmark, scenarios)
	a.mu.Lock()
	a.m[k] = append(a.m[k], [2]int64{req, span})
	a.mu.Unlock()
}

func (a *activeSet) remove(benchmark string, scenarios int, span int64) {
	k := activeKey(benchmark, scenarios)
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.m[k]
	for i, e := range l {
		if e[1] == span {
			l = append(l[:i:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(a.m, k)
	} else {
		a.m[k] = l
	}
}

func (a *activeSet) lookup(benchmark string, scenarios int) (req, span int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if l := a.m[activeKey(benchmark, scenarios)]; len(l) > 0 {
		return l[0][0], l[0][1]
	}
	return 0, 0
}

// errStatus reports a non-200 answer.
func errStatus(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &e)
	return errors.New(strconv.Itoa(code) + ": " + e.Error)
}
