package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tsperr/internal/numeric"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully populated degraded report with hand-set fields, so
// the golden bytes pin the wire schema itself rather than any pipeline
// output.
func goldenReport() *Report {
	return &Report{
		Name:            "golden",
		Instructions:    120000,
		BasicBlocks:     14,
		Training:        1502300 * time.Microsecond,
		Simulation:      250750 * time.Microsecond,
		Scenarios:       make([]Scenario, 3),
		Degraded:        true,
		FailedScenarios: 1,
		Failures: &ScenarioError{
			Benchmark: "golden", Scenario: 2, Phase: PhaseSimulation,
			Attempts: 2, Err: os.ErrDeadlineExceeded,
		},
		Estimate: &Estimate{
			LambdaMean: 40,
			LambdaStd:  4,
			TotalInsts: 1e6,
			DKLambda:   0.0125,
			DKCount:    0.03,
			B1:         0.5,
			B2:         0.25,
		},
		MC: &MCValidation{
			Trials: 1500, Chunks: 6, Seed: 11,
			Mean: 39.5, Std: 7.1, LambdaRef: 40,
			MaxCDFDistance: 0.031, Bound: 0.107, Within: true,
			UnscaledReference: true,
		},
	}
}

// The report wire schema is shared verbatim by tsperrd, `tsperr -json`, and
// `report -json`; this golden pins it. Regenerate deliberately with
// `go test ./internal/core -run TestReportJSONGolden -update` after a schema
// change, and treat the diff as an API change for every service client.
func TestReportJSONGolden(t *testing.T) {
	raw, err := json.Marshal(goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// A clean report omits the degradation fields entirely, and failure trees
// flatten to one line per scenario.
func TestReportJSONDegradationFields(t *testing.T) {
	rep := goldenReport()
	rep.Degraded = false
	rep.FailedScenarios = 0
	rep.Failures = nil
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"degraded", "failed_scenarios", "failures"} {
		if _, ok := m[field]; ok {
			t.Errorf("clean report must omit %q", field)
		}
	}

	deg := goldenReport()
	raw, err = json.Marshal(deg)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	failures, ok := m["failures"].([]any)
	if !ok || len(failures) != 1 {
		t.Fatalf("failures = %v, want one phase-tagged line", m["failures"])
	}
	line, _ := failures[0].(string)
	for _, frag := range []string{"golden", "scenario 2", "simulation", "2 attempts"} {
		if !bytes.Contains([]byte(line), []byte(frag)) {
			t.Errorf("failure line %q missing %q", line, frag)
		}
	}
}

// TestReportJSONRoundTrip pins the proxy invariant the cluster layer leans
// on: decode a report's wire bytes into a Report, re-marshal, and the bytes
// are identical — scenario count, failure lines, durations, estimate, and
// Monte Carlo block all survive even though the decoded Report has no
// Scenario values or error tree.
func TestReportJSONRoundTrip(t *testing.T) {
	for _, rep := range []*Report{goldenReport(), func() *Report {
		r := goldenReport()
		r.Degraded = false
		r.FailedScenarios = 0
		r.Failures = nil
		r.MC = nil
		return r
	}()} {
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Report
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatal(err)
		}
		if len(decoded.Scenarios) != 0 {
			t.Fatalf("decode fabricated %d Scenario values", len(decoded.Scenarios))
		}
		second, err := json.Marshal(&decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("round trip drifted.\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	}
}

// A decoded estimate must answer the derived queries identically to the
// original: the wire schema carries the complete inputs of the Equation (14)
// quadrature.
func TestEstimateJSONRoundTripQueries(t *testing.T) {
	orig := goldenReport().Estimate
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Estimate
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	//tsperrlint:ignore floatcmp the decoded estimate must be bit-identical, not approximate
	if dec.MeanErrorRate() != orig.MeanErrorRate() {
		t.Errorf("decoded mean error rate diverged from original")
	}
	//tsperrlint:ignore floatcmp the decoded estimate must be bit-identical, not approximate
	if dec.ErrorRateQuantile(0.95) != orig.ErrorRateQuantile(0.95) {
		t.Errorf("decoded quantile diverged from original")
	}
	//tsperrlint:ignore floatcmp the decoded estimate must be bit-identical, not approximate
	if dec.ErrorCountCDF(42) != orig.ErrorCountCDF(42) {
		t.Errorf("decoded count CDF diverged from original")
	}
}

// The estimate encoding must agree with the computed accessors, so service
// clients can trust the flattened numbers.
func TestEstimateJSONMatchesAccessors(t *testing.T) {
	e := goldenReport().Estimate
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"lambda_mean":     e.LambdaMean,
		"mean_error_rate": e.MeanErrorRate(),
		"std_error_rate":  e.StdErrorRate(),
		"p95_error_rate":  e.ErrorRateQuantile(0.95),
		"dk_lambda":       e.DKLambda,
	}
	for field, want := range checks {
		if !numeric.ApproxEq(m[field], want, 1e-15) {
			t.Errorf("%s = %v, want %v", field, m[field], want)
		}
	}
	if m["p50_error_rate"] >= m["p95_error_rate"] || m["p95_error_rate"] >= m["p99_error_rate"] {
		t.Errorf("quantiles not increasing: %v / %v / %v",
			m["p50_error_rate"], m["p95_error_rate"], m["p99_error_rate"])
	}
}

// exactRegimeReport is a report whose estimate lives in the exact Poisson
// regime (lambda <= 5000, nonzero spread), so encoding it runs the
// Equation (14) quantile bisections.
func exactRegimeReport() *Report {
	r := goldenReport()
	r.Estimate = &Estimate{
		LambdaMean: 2400,
		LambdaStd:  45,
		TotalInsts: 1.16e6,
		DKLambda:   0.034,
		DKCount:    0.032,
		B1:         0.5,
		B2:         0.25,
	}
	return r
}

// Concurrent encodes of one shared report (a cache hit, a dedup join and a
// proxy re-marshal can all land at once) race on the quantile memo's first
// fill. Every encoder must see the same bytes as a serial encode of an
// identical report, and those bytes must survive a decode/re-encode.
func TestReportMarshalJSONConcurrent(t *testing.T) {
	want, err := json.Marshal(exactRegimeReport())
	if err != nil {
		t.Fatal(err)
	}
	shared := exactRegimeReport()
	const n = 16
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = shared.MarshalJSON()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("encoder %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("encoder %d drifted from the serial encode:\n got: %s\nwant: %s", i, got[i], want)
		}
	}
	var dec Report
	if err := json.Unmarshal(want, &dec); err != nil {
		t.Fatal(err)
	}
	again, err := dec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("round trip drifted:\n got: %s\nwant: %s", again, want)
	}
}

// The headline quantiles share one k-memo across p50/p95/p99 and are then
// memoized per estimate: the shared memo must give bit-for-bit the values of
// independent ErrorRateQuantile calls, and a repeat query must not recompute
// (shown by changing an input after the first query, which the memo ignores).
func TestQuantilesMemo(t *testing.T) {
	e := exactRegimeReport().Estimate
	p50, p95, p99 := e.Quantiles()
	for _, c := range []struct{ p, got float64 }{{0.50, p50}, {0.95, p95}, {0.99, p99}} {
		if want := e.ErrorRateQuantile(c.p); math.Float64bits(c.got) != math.Float64bits(want) {
			t.Errorf("Quantiles p%v = %v, ErrorRateQuantile = %v", 100*c.p, c.got, want)
		}
	}
	e.TotalInsts = 0 // ErrorRateQuantile would now answer 0
	q50, q95, q99 := e.Quantiles()
	if math.Float64bits(q50) != math.Float64bits(p50) ||
		math.Float64bits(q95) != math.Float64bits(p95) ||
		math.Float64bits(q99) != math.Float64bits(p99) {
		t.Errorf("repeat Quantiles recomputed: %v %v %v, first %v %v %v", q50, q95, q99, p50, p95, p99)
	}
}
