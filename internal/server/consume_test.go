package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/core"
)

// fetch performs one request and returns the status code and raw body.
func fetch(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// pollUntil GETs url until its JSON body satisfies ok, returning the final
// raw body and how many GETs it took.
func pollUntil(t *testing.T, url string, ok func(map[string]any) bool) ([]byte, int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := 1; ; n++ {
		code, raw := fetch(t, http.MethodGet, url, "")
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil || code != http.StatusOK {
			t.Fatalf("poll %s: code %d body %s", url, code, raw)
		}
		if ok(m) {
			return raw, n
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s never settled: %s", url, raw)
		}
		time.Sleep(time.Millisecond)
	}
}

var (
	jobIDRe   = regexp.MustCompile(`job-[0-9a-f]{16}`)
	batchIDRe = regexp.MustCompile(`batch-[0-9a-f]{16}`)
	// timingLineRe matches the exposition lines that depend on wall-clock
	// time: uptime and the latency histograms' buckets and sums.
	timingLineRe = regexp.MustCompile(`^(tsperrd_uptime_seconds|tsperrd_(request|batch)_seconds_(bucket\{[^}]*\}|sum)) `)
)

// TestServeGolden pins the response bodies and the /metrics exposition of a
// fixed request sequence — sync miss, cache hit, failure, async miss, async
// cache hit, and a batch with a duplicate entry — in shadow surrogate mode,
// so the residual histogram renders too. Ids, uptime, and latency sums and
// buckets are masked; request counters for polled endpoints are checked
// against the test's own poll counts and then masked.
// TSPERR_UPDATE_GOLDEN=1 rewrites testdata/serve_golden.txt.
func TestServeGolden(t *testing.T) {
	gates := map[string]chan struct{}{
		"dijkstra": make(chan struct{}),
		"qsort":    make(chan struct{}),
	}
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		if benchmark == "fail" {
			return nil, errors.New("analyze fail: injected failure")
		}
		if g := gates[benchmark]; g != nil {
			select {
			case <-g:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeReport(benchmark), nil
	}
	sg := &stubSurrogate{residual: 0.03, residOK: true}
	s, ts := newTestServer(t, context.Background(), Config{
		Analyze: analyze, Workers: 2, Surrogate: sg, SurrogateMode: SurrogateShadow,
	})

	var out bytes.Buffer
	record := func(step string, code int, raw []byte) {
		fmt.Fprintf(&out, "== %s\n%d\n%s\n", step, code, raw)
	}
	post := func(step, path, body string) []byte {
		code, raw := fetch(t, http.MethodPost, ts.URL+path, body)
		record(step, code, raw)
		return raw
	}
	idOf := func(raw []byte, field string) string {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		id, _ := m[field].(string)
		if id == "" {
			t.Fatalf("no %s in %s", field, raw)
		}
		return id
	}

	post("sync miss", "/v1/estimate", `{"benchmark":"basicmath"}`)
	post("sync cache hit", "/v1/estimate", `{"benchmark":"basicmath"}`)
	post("sync failure", "/v1/estimate", `{"benchmark":"fail"}`)

	jobPolls := 0
	id := idOf(post("async miss", "/v1/estimate", `{"benchmark":"dijkstra","async":true}`), "job_id")
	close(gates["dijkstra"])
	raw, n := pollUntil(t, ts.URL+"/v1/jobs/"+id, func(m map[string]any) bool { return m["status"] == "done" })
	jobPolls += n
	record("async miss result", http.StatusOK, raw)
	id = idOf(post("async cache hit", "/v1/estimate", `{"benchmark":"dijkstra","async":true}`), "job_id")
	code, raw := fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	jobPolls++
	record("async cache hit result", code, raw)

	batchPolls := 0
	id = idOf(post("batch", "/v1/batch", `{"scenarios":[{"benchmark":"qsort"},{"benchmark":"qsort"}]}`), "batch_id")
	// Hold the computation until the duplicate has joined it, so the second
	// entry is a dedup join rather than a cache hit.
	_, n = pollUntil(t, ts.URL+"/v1/batches/"+id, func(m map[string]any) bool {
		es, _ := m["scenarios"].([]any)
		e, _ := es[1].(map[string]any)
		return e["status"] == "running"
	})
	batchPolls += n
	close(gates["qsort"])
	raw, n = pollUntil(t, ts.URL+"/v1/batches/"+id, func(m map[string]any) bool { return m["status"] == "done" })
	batchPolls += n
	record("batch result", http.StatusOK, raw)

	// The queue worker finishes its bookkeeping just after releasing the
	// flight; wait for it so the depth gauge reads 0.
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	code, raw = fetch(t, http.MethodGet, ts.URL+"/metrics", "")
	fmt.Fprintf(&out, "== metrics\n%d\n", code)
	polled := map[string]int{
		`tsperrd_requests_total{endpoint="jobs"} `:    jobPolls,
		`tsperrd_requests_total{endpoint="batches"} `: batchPolls,
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if m := timingLineRe.FindString(line); m != "" {
			line = m + "MASKED\n"
		}
		for prefix, want := range polled {
			if strings.HasPrefix(line, prefix) {
				if got := strings.TrimSpace(strings.TrimPrefix(line, prefix)); got != fmt.Sprint(want) {
					t.Errorf("%s%s, want %d (the test's own polls)", prefix, got, want)
				}
				line = prefix + "POLLS\n"
			}
		}
		out.WriteString(line)
	}

	got := batchIDRe.ReplaceAll(jobIDRe.ReplaceAll(out.Bytes(), []byte("job-ID")), []byte("batch-ID"))
	const goldenPath = "testdata/serve_golden.txt"
	if os.Getenv("TSPERR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (set TSPERR_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bodies or exposition drifted from %s (TSPERR_UPDATE_GOLDEN=1 regenerates):\n%s", goldenPath, got)
	}
}

// TestDetachedConsumersOutliveSyncWaiter: an async job and a batch entry
// join a flight whose only sync waiter then disconnects. The computation
// must not be cancelled — the job and the entry still consume it — and both
// end done, the entry marked as a dedup join.
func TestDetachedConsumersOutliveSyncWaiter(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var cancelled atomic.Bool
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		close(started)
		select {
		case <-release:
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			cancelled.Store(true)
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	reqCtx, hangUp := context.WithCancel(context.Background())
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		_, _, _ = postEstimate(reqCtx, ts.URL, `{"benchmark":"susan"}`)
	}()
	<-started

	code, raw := fetch(t, http.MethodPost, ts.URL+"/v1/estimate", `{"benchmark":"susan","async":true}`)
	var ack asyncResponse
	if err := json.Unmarshal(raw, &ack); err != nil || code != http.StatusAccepted || ack.Status != "pending" {
		t.Fatalf("async join: code %d body %s", code, raw)
	}
	code, raw = fetch(t, http.MethodPost, ts.URL+"/v1/batch", `{"scenarios":[{"benchmark":"susan"}]}`)
	var bAck batchAcceptedResponse
	if err := json.Unmarshal(raw, &bAck); err != nil || code != http.StatusAccepted {
		t.Fatalf("batch submit: code %d body %s", code, raw)
	}
	pollUntil(t, ts.URL+bAck.Poll, func(m map[string]any) bool {
		es, _ := m["scenarios"].([]any)
		e, _ := es[0].(map[string]any)
		return e["status"] == "running" && e["dedup"] == true
	})

	hangUp()
	<-syncDone
	deadline := time.Now().Add(5 * time.Second)
	for s.met.clientCancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sync waiter's departure was never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if cancelled.Load() {
		t.Fatal("Analyze was cancelled although a job and a batch entry consume the flight")
	}
	close(release)

	pollUntil(t, ts.URL+"/v1/jobs/"+ack.JobID, func(m map[string]any) bool { return m["status"] == "done" })
	raw, _ = pollUntil(t, ts.URL+bAck.Poll, func(m map[string]any) bool { return m["status"] == "done" })
	var b batchResponse
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if e := b.Scenarios[0]; e.Status != "done" || !e.Dedup || e.Cached || e.Report == nil {
		t.Errorf("batch entry = %+v, want done, dedup, not cached, with a report", e)
	}
	if cancelled.Load() {
		t.Error("Analyze saw a cancelled context")
	}
}
