// Command perfbench is the repository benchmark: it runs one workload
// against the estimator built from this checkout, checks every output, and
// prints one JSON result line.
//
// Usage (from the repository root, after perfbench/run.sh has built it):
//
//	perfbench --workload table2|serve-mix|oppoint-grid --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant and prints the per-layer metrics (README.md maps each
// to the end-to-end metric it should move). Every cold measurement runs in
// a fresh child process with its own model-cache directory under
// .bench_build, because the harness keeps the shared framework and the
// per-condition registry in process globals.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"tsperr/internal/core"
)

// workRoot holds every file a run writes: model caches and trace files.
const workRoot = ".bench_build/perfbench"

// coldChildren is how many fresh processes measure set-up and the cold
// first operation per run; their medians are reported. oppoint-grid's cold
// first search takes seconds, so it runs fewer to fit the run budget.
const (
	coldChildren        = 5
	coldChildrenOppoint = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state one workload run shares with its helpers.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rng      *rand.Rand
	out      output
	// invalid collects reasons the run's measurements cannot be trusted
	// (wrong outputs, a generator behind schedule); any makes it incorrect.
	invalid []string
}

func (e *env) set(name string, v float64, unit string) {
	e.out.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed or wrong operation.
func (e *env) fail(format string, args ...any) {
	e.out.Failed++
	if e.out.Failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func (e *env) markInvalid(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.invalid = append(e.invalid, msg)
	fmt.Fprintln(os.Stderr, "perfbench: invalid run:", msg)
}

var workloads = map[string]struct {
	run   func(e *env) error
	child func(c *childEnv) error
}{
	"table2":       {runTable2, childTable2},
	"serve-mix":    {runServe, childServe},
	"oppoint-grid": {runOppoint, childOppoint},
}

func main() {
	workload := flag.String("workload", "", "table2, serve-mix or oppoint-grid")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	child := flag.Bool("child", false, "internal: measure one cold start in this process")
	dir := flag.String("dir", "", "internal: the child's model-cache directory")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload table2|serve-mix|oppoint-grid --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *child {
		c := &childEnv{workload: *workload, seed: *seed, dir: *dir, trace: *trace == 1}
		if err := w.child(c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		c.res.RSSMB = rssPeakMB()
		if c.tr != nil {
			c.res.Spans = c.tr.Spans()
		}
		b, _ := json.Marshal(c.res)
		fmt.Println(string(b))
		return
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rng: rand.New(rand.NewSource(*seed)),
		out: output{Metrics: make(map[string]metric)},
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := w.run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e.out.Correct = e.out.Failed == 0 && len(e.invalid) == 0
	if e.out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	b, err := json.Marshal(e.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// childEnv is a cold-start child process's state.
type childEnv struct {
	workload string
	seed     int64
	dir      string
	trace    bool
	tr       *Tracer
	res      childResult
}

// childResult is what a child reports back on its last stdout line.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	ColdS  float64 `json:"cold_s"`
	RSSMB  float64 `json:"rss_mb"`
	// Digest fingerprints the cold operation's output, so the parent can
	// check cold and warm processes agree bit for bit.
	Digest string `json:"digest"`
	Spans  []Span `json:"spans,omitempty"`
}

// coldRuns starts n fresh child processes in turn, each with its own empty
// model-cache directory, and returns their results. The last child's
// directory is kept (and returned) when keepLast is set, so the parent can
// start warm from it; every other directory is removed.
func coldRuns(e *env, n int, trace, keepLast bool) ([]childResult, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	var out []childResult
	kept := ""
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(workRoot, e.workload+"-cold-")
		if err != nil {
			return nil, "", err
		}
		tr := "0"
		if trace {
			tr = "1"
		}
		cmd := exec.Command(exe, "--child", "--workload", e.workload, "--dir", dir,
			"--seed", strconv.FormatInt(e.seed, 10), "--trace", tr)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if !(keepLast && i == n-1) {
			os.RemoveAll(dir)
		} else {
			kept = dir
		}
		if err != nil {
			if kept != "" {
				os.RemoveAll(kept)
			}
			return nil, "", fmt.Errorf("cold child %d: %w", i, err)
		}
		var r childResult
		if err := json.Unmarshal(lastLine(stdout), &r); err != nil {
			if kept != "" {
				os.RemoveAll(kept)
			}
			return nil, "", fmt.Errorf("cold child %d: bad result: %w", i, err)
		}
		out = append(out, r)
	}
	return out, kept, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// reportCold sets setup_s and cold_s, checks every child's digest against
// want (when want is non-empty), and returns the children's median peak RSS:
// the cold processes' share of rss_peak_mb (a median, because garbage
// collection timing moves a single process's peak).
func reportCold(e *env, rs []childResult, want string, what string) float64 {
	var setups, colds []float64
	var peaks []float64
	for i, r := range rs {
		setups = append(setups, r.SetupS)
		colds = append(colds, r.ColdS)
		peaks = append(peaks, r.RSSMB)
		e.out.Attempted++
		if want != "" && r.Digest != want {
			e.fail("cold child %d: %s differs from the warm process's", i, what)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: cold children setup_s=%v cold_s=%v\n", setups, colds)
	if !e.trace {
		e.set("setup_s", median(setups), "s")
		e.set("cold_s", median(colds), "s")
	}
	return median(peaks)
}

// rssPeakMB reads this process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// reportDigest fingerprints the result-determining content of a report:
// the bits of every stored estimate value (the wire schema's quantiles and
// CDFs are derived from these), the instruction and block counts, and the
// scenario count. Equal digests mean bit-identical estimates.
func reportDigest(rep *core.Report) string {
	if rep == nil || rep.Estimate == nil {
		return ""
	}
	est := rep.Estimate
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|", rep.Name, rep.Instructions, rep.BasicBlocks, len(rep.Scenarios))
	vals := append([]float64{est.LambdaMean, est.LambdaStd, est.TotalInsts, est.DKLambda, est.DKCount, est.B1, est.B2}, est.LambdaSamples...)
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tempDir makes a fresh directory under workRoot.
func tempDir(pattern string) (string, error) { return os.MkdirTemp(workRoot, pattern) }

// writeTrace stores a tracer's spans under workRoot and returns the path.
func writeTrace(e *env, tr *Tracer, suffix string) string {
	path := filepath.Join(workRoot, fmt.Sprintf("trace-%s-%d%s.json", e.workload, e.seed, suffix))
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return ""
	}
	return path
}

func init() {
	// The whole benchmark, load generator included, uses at most nproc
	// threads of Go code.
	runtime.GOMAXPROCS(runtime.NumCPU())
}
