package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/faultinject"
	"tsperr/internal/mibench"
)

func TestAnalyzeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	rep, err := Analyze(context.Background(), "patricia", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "patricia" {
		t.Errorf("name = %q", rep.Name)
	}
	e := rep.Estimate
	if e.MeanErrorRate() <= 0 || e.MeanErrorRate() > 0.05 {
		t.Errorf("mean error rate implausible: %v", e.MeanErrorRate())
	}
	if e.LambdaMean <= 0 {
		t.Error("lambda must be positive")
	}
	// The scaled instruction count should be near the paper's target.
	b, _ := mibench.ByName("patricia")
	if rep.Instructions < b.ScaleTo/2 || rep.Instructions > b.ScaleTo {
		t.Errorf("instructions = %d, target %d", rep.Instructions, b.ScaleTo)
	}
}

func TestAnalyzeUnknown(t *testing.T) {
	if _, err := Analyze(context.Background(), "nonesuch", 2); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestTable2Formatting(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	rep, err := Analyze(context.Background(), "patricia", 2)
	if err != nil {
		t.Fatal(err)
	}
	head := Table2Header()
	row := Table2Row(rep)
	for _, col := range []string{"Benchmark", "Instructions", "dK"} {
		if !strings.Contains(head, col) {
			t.Errorf("header missing %q", col)
		}
	}
	if !strings.Contains(row, "patricia") {
		t.Errorf("row missing name: %q", row)
	}
}

func TestFigure3SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	f, err := SharedFramework()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), "patricia", 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := Figure3Series(rep, f.PerfModel(), 1.6, 17)
	if len(pts) != 17 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RatePct != 0 || pts[len(pts)-1].RatePct != 1.6 {
		t.Error("axis endpoints wrong")
	}
	for i, p := range pts {
		if p.Lo > p.CDF || p.CDF > p.Hi {
			t.Fatalf("bounds do not bracket at %d", i)
		}
		if i > 0 {
			if p.CDF < pts[i-1].CDF-1e-9 {
				t.Fatal("CDF not monotone")
			}
			if p.ImprovementPct > pts[i-1].ImprovementPct {
				t.Fatal("performance should fall as error rate rises")
			}
		}
	}
	text := RenderFigure3(rep, f.PerfModel(), 1.6, 5)
	if !strings.Contains(text, "patricia") || !strings.Contains(text, "rate(%)") {
		t.Errorf("render missing content:\n%s", text)
	}
}

// Suite-level guard on the Equation (14) outputs: for every kernel the
// headline quantiles are strictly ordered and the Figure 3 CDF saturates
// within six standard deviations of the mean. Both fail when the Poisson CDF
// collapses to zero (as it did above lambda ~ 745): the quantiles then all
// land on the bisection's upper bracket and the curve stays flat at 0.
func TestSuiteQuantilesOrderedAndCDFSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	for _, b := range mibench.All() {
		rep, err := Analyze(context.Background(), b.Name, 4)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		e := rep.Estimate
		p50, p95, p99 := e.Quantiles()
		if !(p50 < p95 && p95 < p99) {
			t.Errorf("%s: quantiles not increasing: p50 %v, p95 %v, p99 %v", b.Name, p50, p95, p99)
		}
		at := e.MeanErrorRate() + 6*e.StdErrorRate()
		if c := e.ErrorRateCDF(at); c < 0.99 {
			t.Errorf("%s: CDF at mean + 6 sd (%.4f%%) is %v, want >= 0.99", b.Name, 100*at, c)
		}
	}
}

func TestSpecForDefaults(t *testing.T) {
	b, err := mibench.ByName("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecFor(b, 0)
	if spec.Scenarios != DefaultScenarios {
		t.Errorf("scenarios = %d", spec.Scenarios)
	}
	if spec.ScaleToInsts != b.ScaleTo || spec.Prog != b.Prog {
		t.Error("spec fields wrong")
	}
}

// A degraded report must be visibly flagged in its Table 2 row, and the
// failure detail must name every dropped scenario with its phase tag.
func TestDegradedRowAndFailureDetail(t *testing.T) {
	inj := faultinject.New(1, faultinject.FailAlways(faultinject.Setup, 1))
	rep, err := AnalyzeWithOpts(context.Background(), "stringsearch", 3, core.AnalyzeOpts{
		MinScenarios: 2,
		RetryBackoff: -1,
		Inject: func(ctx context.Context, ph core.Phase, s int) error {
			return inj.Fire(ctx, faultinject.Point(ph), s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("run should be degraded")
	}
	row := Table2Row(rep)
	if !strings.Contains(row, "DEGRADED(1/3 scenarios failed)") {
		t.Errorf("degraded flag missing from row: %q", row)
	}
	detail := FailureDetail(rep.Failures)
	if !strings.Contains(detail, "scenario 1 [setup]") {
		t.Errorf("detail missing scenario tag: %q", detail)
	}
}

// swapBuildHooks snapshots and clears the shared-framework state so a test
// can substitute build hooks, restoring everything on cleanup.
func swapBuildHooks(t *testing.T) {
	t.Helper()
	fwMu.Lock()
	origFw, origEnabled, origDir := fw, cacheEnabled, cacheDir
	fw = nil
	fwMu.Unlock()
	origBuild, origCached := buildFramework, buildFrameworkCached
	t.Cleanup(func() {
		buildFramework, buildFrameworkCached = origBuild, origCached
		fwMu.Lock()
		fw, cacheEnabled, cacheDir = origFw, origEnabled, origDir
		fwMu.Unlock()
	})
}

// Regression: SharedFramework used a sync.Once, so a single failed build
// (e.g. a transient resource problem) was latched and replayed to every
// later caller. A failure must leave the slot empty so the next call
// retries; a success must be latched.
func TestSharedFrameworkRetriesAfterFailure(t *testing.T) {
	swapBuildHooks(t)
	calls := 0
	sentinel := &core.Framework{}
	buildFramework = func(errormodel.Options) (*core.Framework, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient build failure")
		}
		return sentinel, nil
	}
	if _, err := SharedFramework(); err == nil {
		t.Fatal("first build should fail")
	}
	f, err := SharedFramework()
	if err != nil {
		t.Fatalf("second call should retry the build: %v", err)
	}
	if f != sentinel || calls != 2 {
		t.Errorf("framework %p after %d build calls", f, calls)
	}
	if f2, err := SharedFramework(); err != nil || f2 != sentinel || calls != 2 {
		t.Errorf("success should be latched without rebuilding (calls=%d)", calls)
	}
}

func TestSharedFrameworkUsesModelCache(t *testing.T) {
	swapBuildHooks(t)
	dir := t.TempDir()
	sentinel := &core.Framework{}
	var gotDir string
	buildFrameworkCached = func(_ errormodel.Options, d string) (*core.Framework, bool, error) {
		gotDir = d
		return sentinel, true, nil
	}
	buildFramework = func(errormodel.Options) (*core.Framework, error) {
		t.Error("cache-enabled build must go through the cached constructor")
		return nil, errors.New("wrong path")
	}
	SetModelCache(true, dir)
	f, err := SharedFramework()
	if err != nil {
		t.Fatal(err)
	}
	if f != sentinel || gotDir != dir {
		t.Errorf("framework %p via dir %q, want %q", f, gotDir, dir)
	}
}

func TestFailureDetailNilAndPlain(t *testing.T) {
	if FailureDetail(nil) != "" {
		t.Error("nil error should render empty")
	}
	if got := FailureDetail(errors.New("boom")); got != "boom" {
		t.Errorf("plain error should pass through, got %q", got)
	}
}
