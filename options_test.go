package faasbatch_test

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	faasbatch "faasbatch"
)

// TestNewPlatformFunctionalOptions builds a platform with a tracer, a
// logger and a tuned multiplexer from PlatformConfig alone, and drives
// Resources.GetContext through the facade.
func TestNewPlatformFunctionalOptions(t *testing.T) {
	tracer, err := faasbatch.NewWallTracer(64, 1)
	if err != nil {
		t.Fatalf("NewWallTracer: %v", err)
	}
	logger, err := faasbatch.NewLogger(io.Discard, "info", "text")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	cfg := faasbatch.DefaultPlatformConfig()
	cfg.DispatchInterval = 20 * time.Millisecond
	cfg.ColdStart = 5 * time.Millisecond
	cfg.Tracer = tracer
	cfg.Logger = logger
	cfg.Multiplex = true
	cfg.Multiplexer = faasbatch.MultiplexerConfig{MaxEntries: 64, TTL: time.Minute}
	p, err := faasbatch.NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var outcomes []faasbatch.Outcome
	err = p.Register("fn", func(ctx context.Context, inv *faasbatch.Invocation) (any, error) {
		for i := 0; i < 2; i++ {
			_, out, err := inv.Resources.GetContext(ctx, "db", "primary", func() (any, int64, error) {
				return "conn", 1 << 10, nil
			})
			if err != nil {
				return nil, err
			}
			outcomes = append(outcomes, out)
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if len(outcomes) != 2 || outcomes[0] != faasbatch.OutcomeMiss || outcomes[1] != faasbatch.OutcomeHit {
		t.Fatalf("outcomes = %v, want [miss hit]", outcomes)
	}
}

// TestNewRouterFunctionalOptions builds a pull-policy router through
// the facade from RouterConfig alone, and checks that pull tuning under
// any other policy is rejected.
func TestNewRouterFunctionalOptions(t *testing.T) {
	cfg := faasbatch.RouterConfig{
		Workers: []faasbatch.RouterWorkerSpec{{ID: "w1", URL: "http://w1.invalid"}},
		Policy:  faasbatch.RouterPolicyPull,
		Pull:    &faasbatch.PullConfig{QueueDepth: 8},
	}
	rt, err := faasbatch.NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if got := rt.Policy().Name(); got != faasbatch.RouterPolicyPull {
		t.Fatalf("policy = %q, want %q", got, faasbatch.RouterPolicyPull)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg.Policy = faasbatch.RouterPolicyHash
	_, err = faasbatch.NewRouter(cfg)
	if err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("pull config under the hash policy: err = %v, want a policy error", err)
	}
}
