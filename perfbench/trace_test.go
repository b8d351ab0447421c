package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children count once: [10,40] ∪ [30,50] = 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child running past its parent counts only inside it: [90,100].
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// A grandchild reduces its own parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestAggregateSumsByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 10, Count: 100},
		{ID: 2, Name: "run", Start: 20, End: 40, Count: 50},
		{ID: 3, Parent: 2, Name: "obs", Start: 20, End: 25},
	}
	agg := aggregate(spans)
	run := agg["run"]
	if run.N != 2 || run.Dur != 30 || run.Self != 25 || run.Count != 150 {
		t.Fatalf("run = %+v", *run)
	}
	if got := run.meanSelf(1e-9); math.Abs(got-12.5) > 1e-9 {
		t.Fatalf("meanSelf = %g, want 12.5", got)
	}
	if got := agg["missing"].meanSelf(1); got != 0 {
		t.Fatalf("missing layer meanSelf = %g, want 0", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ran := false
	if id := tr.Do("x", 0, 0, func() { ran = true }); id != 0 || !ran {
		t.Fatalf("nil tracer: id=%d ran=%v", id, ran)
	}
	tr.Record(Span{Name: "x"})
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
