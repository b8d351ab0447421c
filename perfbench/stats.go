package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported at;
// tailPercentile picks the highest one the sample count supports.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile, capped at max, that
// has at least minBeyond of n samples beyond it; ok is false when even the
// median lacks that support.
func tailPercentile(n int, max float64) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if q > max {
			break
		}
		// Samples strictly beyond the q-th percentile: the top (1-q/100)
		// share of n, rounded down (a partial sample does not count).
		beyond := int(math.Floor(float64(n)*(1-q/100) + 1e-9))
		if beyond < minBeyond {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timing summarizes one latency sample set under the percentile rule.
type timing struct {
	N     int
	P50   float64
	TailP float64 // percentile the tail was reported at
	Tail  float64
}

// summarize reports the median and the highest supported percentile up to
// maxTail. With too few samples for any tail the median stands in for it.
func summarize(xs []float64, maxTail float64) timing {
	t := timing{N: len(xs), P50: median(xs)}
	if p, ok := tailPercentile(len(xs), maxTail); ok && p > 50 {
		t.TailP, t.Tail = p, percentile(xs, p)
	} else {
		t.TailP, t.Tail = 50, t.P50
	}
	return t
}
