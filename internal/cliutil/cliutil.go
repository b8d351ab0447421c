// Package cliutil holds the run-layer plumbing shared by the cmd/ tools:
// a root context wired to the -timeout flag and to SIGINT/SIGTERM, and the
// distinguished exit codes of the estimation CLIs.
package cliutil

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tsperr/internal/modelcache"
)

// Exit codes shared by the cmd/ tools: usage errors are distinguishable
// from analysis failures in scripts and CI.
const (
	// ExitFailure is an analysis (pipeline) failure.
	ExitFailure = 1
	// ExitUsage is a command-line usage error.
	ExitUsage = 2
)

// ModelCacheFlags registers the shared -model-cache and -model-cache-dir
// flags on fs and returns a function to read them after fs.Parse. The reader
// returns the cache directory resolved by modelcache.ResolveDir — "" means
// build uncached. The cache defaults to on for the CLI tools (the library
// keeps it off), so repeated invocations skip the once-per-design
// calibration and training; -model-cache=false forces a cold build.
func ModelCacheFlags(fs *flag.FlagSet) func() (dir string) {
	enabled := fs.Bool("model-cache", true,
		"reuse calibrated+trained models from the on-disk cache")
	dir := fs.String("model-cache-dir", "",
		"model cache directory (default: the user cache dir)")
	return func() string { return modelcache.ResolveDir(*enabled, *dir) }
}

// Context returns the root context of a CLI invocation: cancelled on
// SIGINT/SIGTERM so a Ctrl-C aborts in-flight scenario simulations cleanly,
// and bounded by timeout when positive (the -timeout flag). The returned
// cancel must be deferred.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}
