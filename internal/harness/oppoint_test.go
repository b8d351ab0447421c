package harness

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
)

func TestAnalyzeAtPointValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := AnalyzeAtPoint(ctx, "patricia", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 9}, 0); err == nil {
		t.Error("absurd voltage accepted")
	}
	for _, ratio := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := AnalyzeAtPoint(ctx, "patricia", 2, core.AnalyzeOpts{},
			cell.OperatingCondition{}, ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
	// Unknown benchmarks fail before any framework is built.
	if _, err := AnalyzeAtPoint(ctx, "nonesuch", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 0.9}, 1.1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestConditionRegistryLRU pins the registry bound: at most
// maxConditionFrameworks entries live at once, the coldest is evicted, and
// re-access refreshes recency.
func TestConditionRegistryLRU(t *testing.T) {
	condMu.Lock()
	savedFWs, savedLRU := condFWs, condLRU
	condFWs, condLRU = nil, nil
	condMu.Unlock()
	t.Cleanup(func() {
		condMu.Lock()
		condFWs, condLRU = savedFWs, savedLRU
		condMu.Unlock()
	})

	keys := []string{"a", "b", "c", "d"}
	entries := make(map[string]*condEntry)
	for _, k := range keys {
		entries[k] = conditionEntry(k)
	}
	// Touch "a" so "b" becomes the coldest, then overflow the bound.
	if got := conditionEntry("a"); got != entries["a"] {
		t.Fatal("re-access did not return the existing entry")
	}
	conditionEntry("e")
	condMu.Lock()
	_, aLives := condFWs["a"]
	_, bLives := condFWs["b"]
	n := len(condFWs)
	condMu.Unlock()
	if n != maxConditionFrameworks {
		t.Errorf("registry holds %d entries, bound is %d", n, maxConditionFrameworks)
	}
	if !aLives {
		t.Error("recently used entry was evicted")
	}
	if bLives {
		t.Error("coldest entry survived the overflow")
	}
	// An evicted condition transparently gets a fresh entry on next use.
	if got := conditionEntry("b"); got == entries["b"] {
		t.Error("evicted entry was resurrected instead of rebuilt")
	}
}

// TestAnalyzeAtPointDelegatesAtDefaultPoint pins the fast path: the default
// condition at the default working ratio is the plain analysis — bit-for-bit,
// via the shared framework, with no registry machine built.
func TestAnalyzeAtPointDelegatesAtDefaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := AnalyzeWithOpts(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	condMu.Lock()
	before := len(condFWs)
	condMu.Unlock()
	for _, tc := range []struct {
		name  string
		cond  cell.OperatingCondition
		ratio float64
	}{
		{"zero condition, zero ratio", cell.OperatingCondition{}, 0},
		{"explicit nominal, default ratio",
			cell.Nominal(), errormodel.DefaultOptions().WorkingRatio},
	} {
		at, err := AnalyzeAtPoint(ctx, "patricia", 2, core.AnalyzeOpts{}, tc.cond, tc.ratio)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Training/Simulation are wall-clock measurements; everything else
		// must agree to the byte.
		a, b := *plain, *at
		a.Training, a.Simulation = 0, 0
		b.Training, b.Simulation = 0, 0
		aj, _ := json.Marshal(&a)
		bj, _ := json.Marshal(&b)
		if string(aj) != string(bj) {
			t.Errorf("%s: report differs from the plain path\nplain: %s\nat:    %s",
				tc.name, aj, bj)
		}
	}
	condMu.Lock()
	after := len(condFWs)
	condMu.Unlock()
	if after != before {
		t.Errorf("default-point analysis built %d registry frameworks", after-before)
	}
}

// TestAnalyzeAtPointDroopRaisesErrorRate runs the registry path end to end:
// a droop-and-heat corner at the same ratio must not lower the error rate
// (the scaling law only inflates delays), and repeated calls reuse the
// registry entry.
func TestAnalyzeAtPointDroopRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := AnalyzeWithOpts(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	rep, err := AnalyzeAtPoint(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := rep.Estimate.MeanErrorRate(), plain.Estimate.MeanErrorRate(); got < base {
		t.Errorf("droop corner lowered the error rate: %v < %v", got, base)
	}
	condMu.Lock()
	entry := condFWs[droop.String()]
	condMu.Unlock()
	if entry == nil || entry.fw == nil {
		t.Fatal("droop analysis did not populate the registry")
	}
	// A second call must reuse the same framework, not rebuild.
	if _, err := AnalyzeAtPoint(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 1.1); err != nil {
		t.Fatal(err)
	}
	condMu.Lock()
	same := condFWs[droop.String()] == entry
	condMu.Unlock()
	if !same {
		t.Error("second analysis at the same condition rebuilt the registry entry")
	}
}

// TestAnalyzeAtPointResolvesZeroFieldsAgainstSharedCondition pins the
// override contract: a zero voltage or temperature means the daemon's
// configured condition, not nominal. On a daemon set to 1.05 V, a ratio-only
// override must build its framework at 1.05 V/25 C, a temperature-only
// override at 1.05 V, and no registry entry may appear at nominal voltage.
func TestAnalyzeAtPointResolvesZeroFieldsAgainstSharedCondition(t *testing.T) {
	swapBuildHooks(t)
	fwMu.Lock()
	savedCond, savedEnabled := sharedCond, cacheEnabled
	sharedCond, cacheEnabled = cell.OperatingCondition{VoltageV: 1.05}, false
	fwMu.Unlock()
	condMu.Lock()
	savedFWs, savedLRU := condFWs, condLRU
	condFWs, condLRU = nil, nil
	condMu.Unlock()
	t.Cleanup(func() {
		fwMu.Lock()
		sharedCond, cacheEnabled = savedCond, savedEnabled
		fwMu.Unlock()
		condMu.Lock()
		condFWs, condLRU = savedFWs, savedLRU
		condMu.Unlock()
	})

	var built []cell.OperatingCondition
	buildFramework = func(o errormodel.Options) (*core.Framework, error) {
		built = append(built, o.Cond)
		return nil, errors.New("build recorded")
	}
	for _, tc := range []struct {
		name  string
		cond  cell.OperatingCondition
		ratio float64
		want  cell.OperatingCondition
	}{
		{"ratio only", cell.OperatingCondition{}, 1.2, cell.OperatingCondition{VoltageV: 1.05}},
		{"temperature only", cell.OperatingCondition{TempC: 85}, 1.2, cell.OperatingCondition{VoltageV: 1.05, TempC: 85}},
		{"no override", cell.OperatingCondition{}, 0, cell.OperatingCondition{VoltageV: 1.05}},
	} {
		built = nil
		if _, err := AnalyzeAtPoint(context.Background(), "patricia", 2, core.AnalyzeOpts{}, tc.cond, tc.ratio); err == nil {
			t.Fatalf("%s: the recording build hook should fail the analysis", tc.name)
		}
		if len(built) != 1 || !built[0].Equal(tc.want) {
			t.Errorf("%s: built at %v, want one build at %s", tc.name, built, tc.want)
		}
	}
	condMu.Lock()
	_, nominal := condFWs[cell.Nominal().String()]
	condMu.Unlock()
	if nominal {
		t.Error("an override on a 1.05 V daemon created a nominal-voltage registry entry")
	}
}
