package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch; Parent is the ID of the span that caused it (0 for a
// root) and Req groups the spans of one request or analysis.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count carries a work count for the span (instructions, trials, ...).
	Count int64 `json:"count,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer holds spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so timed code paths call it
// unconditionally.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span // guarded by mu
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span or request identifier.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Now returns the tracer clock.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// At converts a wall-clock instant to the tracer clock.
func (t *Tracer) At(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

// Record stores a finished span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Do runs fn inside a span named name and returns the span's ID.
func (t *Tracer) Do(name string, parent, req int64, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	id := t.NewID()
	start := t.Now()
	fn()
	t.Record(Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.Now()})
	return id
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and child time outside the parent's interval does not count).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, iv := range c {
		switch {
		case !started:
			curLo, curHi, started = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	N     int
	Dur   int64 // summed durations, ns
	Self  int64 // summed self times, ns
	Count int64 // summed work counts
}

// aggregate groups spans by name with their self times.
func aggregate(spans []Span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.N++
		st.Dur += s.dur()
		st.Self += self[s.ID]
		st.Count += s.Count
	}
	return out
}

// selfPer returns the layer's summed self time divided by ops, in the given
// unit (seconds per unit, e.g. 1e-3 for ms); no spans or ops == 0 yield 0.
func (st *layerStat) selfPer(ops int, unit float64) float64 {
	if st == nil || ops <= 0 {
		return 0
	}
	return float64(st.Self) / 1e9 / unit / float64(ops)
}

// meanSelf is the layer's mean self time per span in the given unit.
func (st *layerStat) meanSelf(unit float64) float64 {
	if st == nil {
		return 0
	}
	return st.selfPer(st.N, unit)
}
