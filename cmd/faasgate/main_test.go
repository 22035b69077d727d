package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"faasbatch/internal/platform"
	"faasbatch/internal/slo"
)

func newGatePlatform(t *testing.T) *platform.Platform {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.DispatchInterval = 20_000_000 // 20ms
	cfg.ColdStart = 0
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatalf("platform.New: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	if err := registerDemoFunctions(p); err != nil {
		t.Fatalf("registerDemoFunctions: %v", err)
	}
	return p
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run([]string{"-mode", "nope"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-slo", "fib"}); err == nil {
		t.Fatal("-slo without an objective key accepted")
	}
}

func TestParseSLO(t *testing.T) {
	obj, err := parseSLO("fib:p99_ms=250:max_burn=4")
	if err != nil {
		t.Fatal(err)
	}
	want := slo.Objective{Function: "fib", Quantile: 0.99, Target: 250 * time.Millisecond, MaxBurn: 4}
	if obj != want {
		t.Fatalf("parseSLO = %+v, want %+v", obj, want)
	}
	obj, err = parseSLO("echo:availability=0.999")
	if err != nil {
		t.Fatal(err)
	}
	want = slo.Objective{Function: "echo", Quantile: 0.999, MaxBurn: 2}
	if obj != want {
		t.Fatalf("parseSLO = %+v, want %+v", obj, want)
	}
	for _, bad := range []string{
		"",                          // no function
		"fib",                       // no objective key
		"fib:p99_ms=250:p50_ms=10",  // two objective keys
		"fib:p99_ms=-1",             // non-positive bound
		"fib:availability=1.5",      // quantile out of range
		"fib:p99_ms=250:max_burn=0", // non-positive burn bound
		"fib:p99_ms=abc",            // non-numeric value
		"fib:bogus=1",               // unknown key
	} {
		if _, err := parseSLO(bad); err == nil {
			t.Errorf("parseSLO(%q) succeeded, want error", bad)
		}
	}
}

func TestFibHandler(t *testing.T) {
	p := newGatePlatform(t)
	res, err := p.Invoke(context.Background(), "fib", json.RawMessage(`{"n":10}`))
	if err != nil {
		t.Fatalf("Invoke fib: %v", err)
	}
	m, ok := res.Value.(map[string]int)
	if !ok || m["fib"] != 55 {
		t.Fatalf("fib result = %#v, want fib:55", res.Value)
	}
	// Defaults and bounds.
	if _, err := p.Invoke(context.Background(), "fib", nil); err != nil {
		t.Fatalf("fib default: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fib", json.RawMessage(`{"n":99}`)); err == nil {
		t.Fatal("oversized n accepted")
	}
	if _, err := p.Invoke(context.Background(), "fib", json.RawMessage(`{bad`)); err == nil {
		t.Fatal("bad payload accepted")
	}
}

func TestS3UploadHandlerUsesMultiplexer(t *testing.T) {
	p := newGatePlatform(t)
	first, err := p.Invoke(context.Background(), "s3upload", json.RawMessage(`{"bucket":"b","key":"k"}`))
	if err != nil {
		t.Fatalf("Invoke s3upload: %v", err)
	}
	m, ok := first.Value.(map[string]any)
	if !ok || m["url"] != "s3://b/k" {
		t.Fatalf("s3upload result = %#v", first.Value)
	}
	if m["clientCached"] != false {
		t.Fatal("first call should build the client")
	}
	second, err := p.Invoke(context.Background(), "s3upload", json.RawMessage(`{"bucket":"b","key":"k2"}`))
	if err != nil {
		t.Fatalf("second Invoke: %v", err)
	}
	m2, ok := second.Value.(map[string]any)
	if !ok || m2["clientCached"] != true {
		t.Fatalf("second call should hit the multiplexer: %#v", second.Value)
	}
	// Defaults.
	if _, err := p.Invoke(context.Background(), "s3upload", nil); err != nil {
		t.Fatalf("s3upload defaults: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "s3upload", json.RawMessage(`{bad`)); err == nil {
		t.Fatal("bad payload accepted")
	}
}

// TestS3UploadHandlerHonoursContext: an invocation whose context ends
// while it waits on another invocation's client build returns the
// context's error instead of waiting the build out.
func TestS3UploadHandlerHonoursContext(t *testing.T) {
	p := newGatePlatform(t)
	type result struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	if err := p.Register("s3race", func(ctx context.Context, inv *platform.Invocation) (any, error) {
		// The builder: the first s3upload in this container pays the
		// client construction. It must finish before the handler returns,
		// since the invocation's view is recycled after that.
		built := make(chan error, 1)
		go func() {
			_, err := s3UploadHandler(ctx, inv)
			built <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		start := time.Now()
		_, err := s3UploadHandler(cctx, inv)
		done <- result{err, time.Since(start)}
		return nil, <-built
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "s3race", json.RawMessage(`{"bucket":"race"}`)); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled coalesced call: err = %v, want context.Canceled", r.err)
	}
	if r.elapsed > 30*time.Millisecond {
		t.Fatalf("cancelled coalesced call took %v, want it to skip the ~66ms build", r.elapsed)
	}
}

func TestEchoHandler(t *testing.T) {
	p := newGatePlatform(t)
	res, err := p.Invoke(context.Background(), "echo", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatalf("Invoke echo: %v", err)
	}
	raw, ok := res.Value.(json.RawMessage)
	if !ok || !strings.Contains(string(raw), `"x":1`) {
		t.Fatalf("echo result = %#v", res.Value)
	}
}

func TestServeUntilSignalShutdown(t *testing.T) {
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	p := newGatePlatform(t)
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(srv, p, 10*time.Second) }()
	// Give the listener a moment, then deliver SIGTERM to ourselves.
	time.Sleep(50 * time.Millisecond)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatalf("FindProcess: %v", err)
	}
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("Signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilSignal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful shutdown never completed")
	}
}

func TestServeUntilSignalListenError(t *testing.T) {
	srv := &http.Server{Addr: "256.256.256.256:99999"}
	if err := serveUntilSignal(srv, nil, time.Second); err == nil {
		t.Fatal("bad address accepted")
	}
}
