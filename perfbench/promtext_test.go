package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP tsperrd_requests_total HTTP requests by endpoint.
# TYPE tsperrd_requests_total counter
tsperrd_requests_total{endpoint="estimate"} 10
tsperrd_cache_hits_total 4
tsperrd_surrogate_escalations_total{reason="uncertain"} 1

tsperrd_uptime_seconds 1.5
`

const scrapeAfter = `tsperrd_requests_total{endpoint="estimate"} 30
tsperrd_cache_hits_total 12
tsperrd_surrogate_escalations_total{reason="uncertain"} 3
tsperrd_surrogate_escalations_total{reason="near_threshold"} 2
tsperrd_uptime_seconds 4.25
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	want := map[string]float64{
		`tsperrd_requests_total{endpoint="estimate"}`:                  20,
		"tsperrd_cache_hits_total":                                     8,
		`tsperrd_surrogate_escalations_total{reason="uncertain"}`:      2,
		`tsperrd_surrogate_escalations_total{reason="near_threshold"}`: 2, // absent before
		"tsperrd_uptime_seconds":                                       2.75,
	}
	for k, w := range want {
		if math.Abs(d[k]-w) > 1e-9 {
			t.Errorf("delta[%s] = %g, want %g", k, d[k], w)
		}
	}
	vals := make(map[string]float64)
	serverLayers(vals, d)
	if vals["server.requests"] != 20 || vals["server.cache_hit_ratio"] != 0.4 {
		t.Errorf("server layers: requests=%g hit ratio=%g", vals["server.requests"], vals["server.cache_hit_ratio"])
	}
	if vals["surrogate.eligible"] != 4 || vals["surrogate.serve_ratio"] != 0 {
		t.Errorf("surrogate layers: eligible=%g serve ratio=%g", vals["surrogate.eligible"], vals["surrogate.serve_ratio"])
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics(strings.NewReader("tsperrd_x notanumber\n")); err == nil {
		t.Fatal("accepted a non-numeric sample")
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("accepted a sample without a value")
	}
}
