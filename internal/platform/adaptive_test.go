package platform

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// adaptiveQuickConfig returns a fast adaptive-dispatch config.
func adaptiveQuickConfig() Config {
	cfg := quickConfig(ModeBatch)
	cfg.AdaptiveDispatch = true
	return cfg
}

// TestVanillaKeepAliveEviction is the regression test for the Vanilla
// eviction bug: eviction used to run only from the batch dispatch loop,
// which Vanilla mode never starts, so idle Vanilla containers outlived
// KeepAlive until Close. Eviction now runs on its own timer in every mode.
func TestVanillaKeepAliveEviction(t *testing.T) {
	cfg := quickConfig(ModeVanilla)
	cfg.KeepAlive = 30 * time.Millisecond
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if p.Stats().LiveContainers != 1 {
		t.Fatalf("LiveContainers = %d, want 1 right after the invocation", p.Stats().LiveContainers)
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().LiveContainers != 0 {
		select {
		case <-deadline:
			t.Fatalf("LiveContainers = %d, want 0 after keep-alive (Vanilla eviction never fired)", p.Stats().LiveContainers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestCanceledCallNotDispatched is the regression test for the
// cancelled-call bug: a call whose context ended while it waited for its
// window used to be dispatched anyway, executing the handler for a caller
// that had already returned. It is now dropped at window close and
// counted in Stats.Canceled.
func TestCanceledCallNotDispatched(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.DispatchInterval = 60 * time.Millisecond
	p := newPlatform(t, cfg)
	var ran atomic.Int64
	if err := p.Register("count", func(context.Context, *Invocation) (any, error) {
		ran.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Invoke(ctx, "count", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke err = %v, want context.Canceled", err)
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().Canceled != 1 {
		select {
		case <-deadline:
			t.Fatalf("Canceled = %d, want 1 after the window closed", p.Stats().Canceled)
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := p.Stats()
	if ran.Load() != 0 {
		t.Fatalf("handler ran %d times for a canceled caller, want 0", ran.Load())
	}
	if st.Invocations != 0 || st.Groups != 0 {
		t.Fatalf("Invocations = %d, Groups = %d, want 0/0: the canceled call must not dispatch", st.Invocations, st.Groups)
	}
	if got := p.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d, want 0 (Submitted == Invocations + Canceled at quiescence)", got)
	}
}

// TestCanceledRetryNotRebatched: a retry whose caller's context ends
// during the backoff is dropped instead of re-entering a window.
func TestCanceledRetryNotRebatched(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.MaxRetries = 5
	cfg.RetryBackoff = 200 * time.Millisecond
	p := newPlatform(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int64
	if err := p.Register("fail", func(context.Context, *Invocation) (any, error) {
		attempts.Add(1)
		return nil, errors.New("always fails")
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	invokeErr := make(chan error, 1)
	go func() {
		_, err := p.Invoke(ctx, "fail", nil)
		invokeErr <- err
	}()
	// Wait until the first failed attempt has entered its retry backoff,
	// then cancel: the caller walks away mid-backoff.
	deadline := time.After(5 * time.Second)
	for p.Stats().Retries != 1 {
		select {
		case <-deadline:
			t.Fatalf("Retries = %d, want 1", p.Stats().Retries)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-invokeErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke err = %v, want context.Canceled", err)
	}
	for p.Stats().Canceled != 1 {
		select {
		case <-deadline:
			t.Fatalf("Canceled = %d, want 1 after the retry backoff", p.Stats().Canceled)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("handler attempts = %d, want 1 (the canceled retry must not run)", got)
	}
}

// TestAdaptiveFastPathLatency: with adaptive dispatch on, a lone
// invocation on an idle platform skips the window wait entirely. The
// acceptance bound is < 5ms; the test allows generous CI slack while
// still being far under the 200ms default window it replaces.
func TestAdaptiveFastPathLatency(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.DispatchInterval = 200 * time.Millisecond
	cfg.ColdStart = 0
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Sched > 50*time.Millisecond {
		t.Fatalf("lone arrival Sched = %v, want well under the 200ms window", res.Sched)
	}
	st := p.Stats()
	if st.FastPathDispatches != 1 {
		t.Fatalf("FastPathDispatches = %d, want 1", st.FastPathDispatches)
	}
	if st.DispatchWindowMicros == 0 {
		t.Fatal("DispatchWindowMicros = 0, want the chosen window gauge set")
	}
}

// TestAdaptiveConcurrentBurstBatches: concurrent arrivals still group
// under adaptive dispatch, and a MaxGroupSize cap closes windows early.
func TestAdaptiveConcurrentBurstBatches(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.ColdStart = 5 * time.Millisecond
	cfg.MaxGroupSize = 4
	p := newPlatform(t, cfg)
	block := make(chan struct{})
	if err := p.Register("echo", func(ctx context.Context, inv *Invocation) (any, error) {
		<-block
		return echo(ctx, inv)
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	// Let the arrivals pile up against the blocked handler, then release.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	st := p.Stats()
	if st.Invocations != n {
		t.Fatalf("Invocations = %d, want %d", st.Invocations, n)
	}
	if st.EarlyCloses == 0 {
		t.Fatal("EarlyCloses = 0, want > 0 with 16 concurrent arrivals and a cap of 4")
	}
}

// TestAdaptiveConfigValidation: bad adaptive knobs are rejected.
func TestAdaptiveConfigValidation(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.MinInterval = 300 * time.Millisecond // above the 200ms default cap
	cfg.MaxInterval = 200 * time.Millisecond
	if _, err := New(cfg); err == nil {
		t.Error("min interval above max accepted")
	}
	cfg = adaptiveQuickConfig()
	cfg.MinInterval = -time.Millisecond
	if _, err := New(cfg); err == nil {
		t.Error("negative min interval accepted")
	}
	cfg = quickConfig(ModeBatch)
	cfg.MaxGroupSize = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative max group size accepted")
	}
}

// TestAdaptiveCloseRace stresses Close racing the adaptive window loop
// mid-window (run with -race): invocations stream in while the platform
// tears down; every accepted invocation must still settle.
func TestAdaptiveCloseRace(t *testing.T) {
	cfg := adaptiveQuickConfig()
	cfg.ColdStart = time.Millisecond
	cfg.MinInterval = time.Millisecond
	cfg.MaxInterval = 5 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Errors are expected once Close lands; the race detector
				// is the assertion here.
				if _, err := p.Invoke(context.Background(), "echo", nil); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	st := p.Stats()
	if got := st.Submitted - st.Invocations - st.Canceled; got != 0 {
		t.Fatalf("%d invocations unaccounted for after Close", got)
	}
}

// TestFixedWindowEarlyClose: MaxGroupSize early-closes a fixed window
// too. Four concurrent calls in a 5s window capped at four dispatch
// together at the fourth arrival instead of at the grid deadline.
func TestFixedWindowEarlyClose(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.DispatchInterval = 5 * time.Second
	cfg.ColdStart = 0
	cfg.MaxGroupSize = 4
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(ctx, "echo", nil); err != nil {
				t.Errorf("Invoke: %v (the window waited for its deadline)", err)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Groups != 1 || st.EarlyCloses != 1 {
		t.Fatalf("Groups = %d, EarlyCloses = %d, want 1/1", st.Groups, st.EarlyCloses)
	}
}

// TestFixedWindowCounters: a fixed window closes at its grid deadline
// through the window loop, reports the interval as its window, and is
// not counted as an adaptive window dispatch.
func TestFixedWindowCounters(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	p := newPlatform(t, cfg)
	if err := p.Register("echo", echo); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := p.Invoke(context.Background(), "echo", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Sched > cfg.DispatchInterval+50*time.Millisecond {
		t.Fatalf("Sched = %v, want at most one %v window", res.Sched, cfg.DispatchInterval)
	}
	st := p.Stats()
	if st.Groups != 1 {
		t.Fatalf("Groups = %d, want 1", st.Groups)
	}
	if st.WindowDispatches != 0 || st.FastPathDispatches != 0 || st.EarlyCloses != 0 {
		t.Fatalf("WindowDispatches = %d, FastPathDispatches = %d, EarlyCloses = %d, want 0/0/0 in fixed mode",
			st.WindowDispatches, st.FastPathDispatches, st.EarlyCloses)
	}
	if want := cfg.DispatchInterval.Microseconds(); st.DispatchWindowMicros != want {
		t.Fatalf("DispatchWindowMicros = %d, want the interval %d", st.DispatchWindowMicros, want)
	}
}
