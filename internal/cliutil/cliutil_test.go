package cliutil

import (
	"context"
	"errors"
	"flag"
	"syscall"
	"testing"
	"time"

	"tsperr/internal/modelcache"
)

func TestContextTimeout(t *testing.T) {
	ctx, cancel := Context(20 * time.Millisecond)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("positive timeout should set a deadline")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestContextNoTimeout(t *testing.T) {
	ctx, cancel := Context(0)
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero timeout should not set a deadline")
	}
	select {
	case <-ctx.Done():
		t.Fatal("context done before cancel")
	default:
	}
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the context")
	}
	// cancel must be safe to call again (it is routinely deferred).
	cancel()
}

func TestContextCancelledBySignal(t *testing.T) {
	ctx, cancel := Context(0)
	defer cancel()
	// The context is registered with NotifyContext, so the signal is
	// intercepted rather than killing the test process.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
}

func TestModelCacheFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	read := ModelCacheFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got, want := read(), modelcache.ResolveDir(true, ""); got != want {
		t.Fatalf("default dir = %q, want the resolved default %q", got, want)
	}
	if err := fs.Parse([]string{"-model-cache-dir", "/tmp/mc"}); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "/tmp/mc" {
		t.Errorf("explicit dir = %q, want /tmp/mc", got)
	}
	if err := fs.Parse([]string{"-model-cache=false"}); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "" {
		t.Errorf("disabled cache resolved to %q, want \"\" (uncached)", got)
	}
}

func TestExitCodesAreDistinct(t *testing.T) {
	// Scripts and CI distinguish usage errors from analysis failures; the
	// constants are wire protocol, not implementation detail.
	if ExitFailure != 1 || ExitUsage != 2 {
		t.Fatalf("exit codes moved: failure=%d usage=%d", ExitFailure, ExitUsage)
	}
}
