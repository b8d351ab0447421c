package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tsperr/internal/mibench"
)

// modelCacheDir is the model cache shared by every run in this package, so
// only the first analysis calibrates and trains cold.
var modelCacheDir string

// The smoke tests re-exec the test binary as the real command: TestMain
// diverts into main() when the marker env var is set, so flag parsing,
// usage text, exit codes and stdout bytes are exercised through the genuine
// entry point without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("TSPERR_SMOKE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "tsperr-model-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	modelCacheDir = dir
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// runSelf invokes the command under test with args and returns its exit
// code plus captured stdout/stderr.
func runSelf(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TSPERR_SMOKE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, out.String(), errb.String()
}

// wantUsage asserts a usage error (exit 2) whose stderr contains want.
func wantUsage(t *testing.T, want string, args ...string) {
	t.Helper()
	code, _, stderr := runSelf(t, args...)
	if code != 2 || !strings.Contains(stderr, want) {
		t.Fatalf("%v: exit = %d, stderr = %s; want exit 2 mentioning %q", args, code, stderr, want)
	}
}

func TestSmokeNoArgsListsBenchmarks(t *testing.T) {
	code, _, stderr := runSelf(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "usage: tsperr") {
		t.Errorf("stderr missing usage line: %s", stderr)
	}
	for _, b := range []string{"dijkstra", "typeset", "pgp.encode", "oppoint", "table2"} {
		if !strings.Contains(stderr, b) {
			t.Errorf("benchmark/subcommand list missing %q: %s", b, stderr)
		}
	}
}

func TestSmokeTooManyArgs(t *testing.T) {
	wantUsage(t, "usage: tsperr", "dijkstra", "typeset")
}

func TestSmokeUnknownFlag(t *testing.T) {
	wantUsage(t, "no-such-flag", "-no-such-flag")
}

func TestSmokeUnknownBenchmarkIsAnalysisFailure(t *testing.T) {
	code, _, stderr := runSelf(t, "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (analysis failure)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the benchmark: %s", stderr)
	}
}

// TestSubcommandsAreNotBenchmarks guards the dispatch: `tsperr <name>` runs a
// subcommand when name is one, so no benchmark may share a subcommand name.
func TestSubcommandsAreNotBenchmarks(t *testing.T) {
	for _, b := range mibench.All() {
		if _, ok := subcommands[b.Name]; ok {
			t.Errorf("benchmark %q is shadowed by the subcommand of the same name", b.Name)
		}
	}
}

func TestSmokeExplain(t *testing.T) {
	code, stdout, stderr := runSelf(t, "explain")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Figures 1 and 2") {
		t.Errorf("explain text missing the flow reference: %s", stdout)
	}
}

func TestSmokeBatchMissingSuiteFile(t *testing.T) {
	code, _, stderr := runSelf(t, "batch", "/no/such/suite.json")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

func TestSmokeBatchRejectsPositionalArg(t *testing.T) {
	wantUsage(t, "no benchmark argument", "batch", "suite.json", "dijkstra")
}

func TestSmokeBatchMalformedSuite(t *testing.T) {
	path := t.TempDir() + "/suite.json"
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runSelf(t, "batch", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

func TestSmokeSurrogateEvalRejectsPositionalArg(t *testing.T) {
	wantUsage(t, "usage: tsperr surrogate-eval", "surrogate-eval", "typeset")
}

func TestSmokeOppointNoArgsIsUsage(t *testing.T) {
	wantUsage(t, "usage: tsperr oppoint", "oppoint")
}

func TestSmokeOppointMissingBenchmarkIsUsage(t *testing.T) {
	wantUsage(t, "usage: tsperr oppoint", "oppoint", "-target", "0.01")
}

func TestSmokeOppointTooManyArgsIsUsage(t *testing.T) {
	wantUsage(t, "usage: tsperr oppoint", "oppoint", "dijkstra", "typeset")
}

func TestSmokeOppointUnknownFlagIsUsage(t *testing.T) {
	wantUsage(t, "no-such-flag", "oppoint", "-no-such-flag", "dijkstra")
}

func TestSmokeOppointBadTargetIsUsage(t *testing.T) {
	wantUsage(t, "outside [0, 1]", "oppoint", "-target", "2", "typeset")
}

// The bisection grid is checked before any framework is built: a bad step
// count or an inverted range is a usage error, not a failed search.
func TestSmokeOppointBadStepsIsUsage(t *testing.T) {
	wantUsage(t, "steps 0", "oppoint", "-steps", "0", "typeset")
}

func TestSmokeOppointBadRangeIsUsage(t *testing.T) {
	wantUsage(t, "bad bisection range", "oppoint", "-min-ratio", "1.3", "-max-ratio", "1.0", "typeset")
}

func TestSmokeOppointBadVoltageIsUsage(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "-voltage", "9", "typeset")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (usage)\nstderr: %s", code, stderr)
	}
}

func TestSmokeOppointUnknownBenchmarkIsAnalysisFailure(t *testing.T) {
	code, _, stderr := runSelf(t, "oppoint", "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (analysis failure)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the benchmark: %s", stderr)
	}
}

// A failed search in -json mode exits 1 with the error on stderr and writes
// no partial document to stdout.
func TestSmokeOppointUnknownBenchmarkIsFailure(t *testing.T) {
	code, stdout, stderr := runSelf(t, "oppoint", "-json", "no-such-benchmark")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (failure)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "tsperr oppoint:") || !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the subcommand and benchmark: %s", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want empty on failure", stdout)
	}
}

func TestSmokeOppointRejectsBatch(t *testing.T) {
	wantUsage(t, "usage: tsperr oppoint", "oppoint", "-batch", "suite.json")
}

func TestSmokeReportUnknownFlag(t *testing.T) {
	wantUsage(t, "no-such-flag", "report", "-no-such-flag")
}

func TestSmokeReportHelpListsFlags(t *testing.T) {
	code, _, stderr := runSelf(t, "report", "-h")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 for -h\nstderr: %s", code, stderr)
	}
	for _, f := range []string{"-scenarios", "-json", "-model-cache"} {
		if !strings.Contains(stderr, f) {
			t.Errorf("help output missing %s: %s", f, stderr)
		}
	}
}

func TestSmokeDTADumpTimeout(t *testing.T) {
	code, _, stderr := runSelf(t, "dtadump", "-unit", "adder", "-timeout", "1ms")
	if code != 1 || !strings.Contains(stderr, "aborted at cycle") {
		t.Fatalf("exit = %d, stderr = %s; want exit 1 with an abort line", code, stderr)
	}
}

// wallClock matches the Train(s) and Sim(s) columns of a Table 2 row (and
// of its Total line), the only bytes of table2 that vary run to run.
var wallClock = regexp.MustCompile(`(?m)^(\S+ +\d+ +\d+) +\d+\.\d\d +\d+\.\d\d`)

// TestGoldenOutput pins the stdout bytes of the paper-evaluation
// subcommands and of oppoint -json. The goldens were captured from the
// standalone commands these subcommands replace; TSPERR_UPDATE_GOLDEN=1
// rewrites them.
func TestGoldenOutput(t *testing.T) {
	cache := []string{"-model-cache-dir", modelCacheDir}
	cases := []struct {
		golden string
		args   []string
		mask   bool
	}{
		{"report.md", append([]string{"report", "-scenarios", "2"}, cache...), false},
		{"figure3.txt", append([]string{"figure3", "-bench", "typeset", "-scenarios", "2"}, cache...), false},
		{"figure3.csv", append([]string{"figure3", "-bench", "typeset", "-scenarios", "2", "-csv"}, cache...), false},
		{"dtadump_adder.txt", []string{"dtadump", "-unit", "adder"}, false},
		{"dtadump_control.txt", []string{"dtadump", "-unit", "control"}, false},
		{"table2.txt", append([]string{"table2", "-bench", "typeset", "-scenarios", "2"}, cache...), true},
		{"oppoint.json", append([]string{"oppoint", "-json", "-target", "0.01", "-scenarios", "2"}, append(cache, "typeset")...), false},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, stdout, stderr := runSelf(t, c.args...)
			if code != 0 {
				t.Fatalf("%v: exit = %d\nstderr: %s", c.args, code, stderr)
			}
			if c.mask {
				stdout = wallClock.ReplaceAllString(stdout, "$1 <train> <sim>")
			}
			path := filepath.Join("testdata", c.golden)
			if os.Getenv("TSPERR_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (set TSPERR_UPDATE_GOLDEN=1 to regenerate): %v", err)
			}
			if stdout != string(want) {
				t.Errorf("%v: stdout drifted from %s:\n got: %s\nwant: %s", c.args, path, stdout, want)
			}
		})
	}
}
