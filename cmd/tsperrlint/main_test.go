package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module and chdirs into it, because
// the standalone driver loads packages relative to the working directory.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixturemod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

// TestJSONGolden pins the -json output schema byte-for-byte: CI consumes
// it, so field renames or ordering changes must be deliberate.
func TestJSONGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	writeModule(t, map[string]string{"a.go": `package fixturemod

func equalDelay(a, b float64) bool {
	return a == b
}
`})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (findings); stderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != string(golden) {
		t.Errorf("-json output diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	// The schema must also round-trip as the documented field set.
	var parsed []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &parsed); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if len(parsed) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(parsed))
	}
	for _, field := range []string{"file", "line", "column", "analyzer", "message"} {
		if _, ok := parsed[0][field]; !ok {
			t.Errorf("diagnostic is missing the %q field", field)
		}
	}
}

// TestJSONCleanTree: a clean run emits an empty JSON array (not null), so
// downstream jq pipelines never branch on output shape.
func TestJSONCleanTree(t *testing.T) {
	writeModule(t, map[string]string{"a.go": "package fixturemod\n\nfunc ok() int { return 1 }\n"})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout.String())
	}
}

const suppressedSrc = `package fixturemod

func tieBreak(a, b float64) bool {
	//tsperrlint:ignore floatcmp exact tie is the documented contract
	return a == b
}

func alsoTied(a, b float64) bool {
	//tsperrlint:ignore floatcmp exact tie is the documented contract
	return a == b
}
`

// TestIgnoresInventory: -ignores lists each directive with its analyzers
// and reason, plus per-analyzer totals, and includes test files without
// needing -tests.
func TestIgnoresInventory(t *testing.T) {
	writeModule(t, map[string]string{
		"a.go": suppressedSrc,
		"a_test.go": `package fixturemod

import "testing"

func TestTie(t *testing.T) {
	//tsperrlint:ignore floatcmp asserted bit-identical in the oracle
	if 1.0 == 2.0 {
		t.Fatal()
	}
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ignores", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "total floatcmp       3") {
		t.Errorf("inventory missing per-analyzer total (want floatcmp 3):\n%s", out)
	}
	if !strings.Contains(out, "a_test.go:6: [floatcmp] asserted bit-identical in the oracle") {
		t.Errorf("inventory missing the test-file directive:\n%s", out)
	}
}

// TestIgnoresBudget: counts at the budget pass; counts above it fail with
// exit 2 and a ratchet message.
func TestIgnoresBudget(t *testing.T) {
	writeModule(t, map[string]string{
		"a.go":         suppressedSrc,
		"under.budget": "# suppression ratchet\nfloatcmp 2\n",
		"over.budget":  "floatcmp 1\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ignores", "-budget", "under.budget", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("within budget: exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-ignores", "-budget", "over.budget", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("over budget: exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "suppression budget exceeded for floatcmp: 2 directive(s), budget 1") {
		t.Errorf("missing budget violation message, got: %s", stderr.String())
	}
}
