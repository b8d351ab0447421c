package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		max  float64
		want float64
		ok   bool
	}{
		{19, 99, 0, false}, // even the median has only 9 beyond
		{20, 99, 50, true},
		{99, 99, 50, true}, // p90 would leave 9
		{100, 99, 90, true},
		{199, 99, 90, true},
		{200, 99, 95, true},
		{999, 99, 95, true},
		{1000, 99, 99, true},
		{10000, 99, 99, true}, // capped by max
		{10000, 99.9, 99.9, true},
		{5000, 95, 95, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n, c.max)
		if math.Abs(got-c.want) > 1e-9 || ok != c.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.max, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs, 99)
	if s.N != 250 || s.TailP != 95 {
		t.Fatalf("summarize: n=%d tail p%g; want n=250 tail p95", s.N, s.TailP)
	}
	if math.Abs(s.P50-125.5) > 1e-9 || math.Abs(s.Tail-percentile(xs, 95)) > 1e-9 {
		t.Fatalf("summarize: p50=%g tail=%g", s.P50, s.Tail)
	}
	if few := summarize(xs[:12], 99); few.TailP != 50 || math.Float64bits(few.Tail) != math.Float64bits(few.P50) {
		t.Fatalf("too few samples must fall back to the median, got p%g", few.TailP)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := percentile(xs, 50); got != 2.5 {
		t.Fatalf("p50 = %g, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Fatal("percentile modified its input")
	}
}

func TestMaxRateAtSLO(t *testing.T) {
	ok := func(rate float64) phaseStats { return phaseStats{achieved: rate, meetsSLO: true} }
	miss := func(rate, lat float64) phaseStats { return phaseStats{achieved: rate, sloLat: lat} }
	cases := []struct {
		phases []phaseStats
		want   float64
	}{
		{[]phaseStats{ok(20), ok(40), miss(60, 900)}, 40},
		{[]phaseStats{ok(20), ok(40)}, 40},
		// The ladder stops at the first miss.
		{[]phaseStats{ok(20), miss(40, 900), ok(100)}, 20},
		// Even the nominal rate missed: scale by the overshoot...
		{[]phaseStats{miss(20, 2*sloMS)}, 10},
		// ...counting a miss within the latency limit as twice the limit.
		{[]phaseStats{miss(20, sloMS/2)}, 10},
	}
	for i, c := range cases {
		if got := maxRateAtSLO(c.phases); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: maxRateAtSLO = %g, want %g", i, got, c.want)
		}
	}
}

func TestZipfCountsApportionExactly(t *testing.T) {
	c := zipfCounts(48, 55, zipfS)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("counts not non-increasing at rank %d: %v", i, c)
		}
	}
	if sum != 55 {
		t.Fatalf("counts sum to %d, want 55", sum)
	}
}

func TestInterleaveSpreadsTheFew(t *testing.T) {
	few := make([]arrival, 4)
	many := make([]arrival, 12)
	for i := range few {
		few[i].class = classFreq
	}
	out := interleave(few, many)
	if len(out) != 16 {
		t.Fatalf("len = %d, want 16", len(out))
	}
	var at []int
	for i, a := range out {
		if a.class == classFreq {
			at = append(at, i)
		}
	}
	// Slot (h+0.5)·16/4 rounds up to 2, 6, 10, 14.
	want := []int{2, 6, 10, 14}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("few at %v, want %v", at, want)
		}
	}
}

func TestSpreadKeepsCountsApart(t *testing.T) {
	keys := []baseKey{{"a", 1}, {"b", 1}}
	out := spread(keys, []int{3, 1})
	// a's repeats fall at 1/6, 1/2, 5/6 of the block and b's at 1/2.
	if len(out) != 4 || out[0] != keys[0] || out[1] != keys[0] || out[2] != keys[1] || out[3] != keys[0] {
		t.Fatalf("spread = %v", out)
	}
}
