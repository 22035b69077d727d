package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/multiplex"
)

// TestResourcesGetContextLifecycle drives the redesigned handler API
// end to end through a real invocation: miss, hit, invalidation and the
// rebuild after it.
func TestResourcesGetContextLifecycle(t *testing.T) {
	p := newPlatform(t, quickConfig(ModeBatch))
	var builds atomic.Int64
	var outcomes []Outcome
	err := p.Register("fn", func(ctx context.Context, inv *Invocation) (any, error) {
		build := func() (any, int64, error) { builds.Add(1); return "client", 8, nil }
		for i := 0; i < 2; i++ {
			v, out, err := inv.Resources.GetContext(ctx, "s3", "bucket", build)
			if err != nil || v != "client" {
				return nil, fmt.Errorf("get %d: %v, %v, %v", i, v, out, err)
			}
			outcomes = append(outcomes, out)
		}
		if !inv.Resources.Invalidate("s3", "bucket") {
			return nil, errors.New("invalidate reported false")
		}
		v, out, err := inv.Resources.GetContext(ctx, "s3", "bucket", build)
		if err != nil || v != "client" {
			return nil, fmt.Errorf("post-invalidate get: %v, %v, %v", v, out, err)
		}
		outcomes = append(outcomes, out)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	want := []Outcome{OutcomeMiss, OutcomeHit, OutcomeMiss}
	if len(outcomes) != len(want) {
		t.Fatalf("outcomes = %v", outcomes)
	}
	for i, o := range want {
		if outcomes[i] != o {
			t.Fatalf("outcomes = %v, want %v", outcomes, want)
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (one initial, one after invalidation)", builds.Load())
	}
	st := p.Stats()
	if st.Multiplexer.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Multiplexer.Invalidations)
	}
}

// TestResourcesNegativeCacheUnderChaos drives chaos-injected build
// failures into the negative cache: the second creation inside the
// backoff window is denied without running the constructor, with both
// typed sentinels visible through errors.Is.
func TestResourcesNegativeCacheUnderChaos(t *testing.T) {
	// Rates must stay below 1; with a fixed seed the first draw is
	// deterministic, so 0.999 reliably injects the first build failure.
	inj, err := chaos.New(chaos.Config{
		Seed:  1,
		Rates: map[chaos.Kind]float64{chaos.StorageFailure: 0.999},
	})
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	cfg := quickConfig(ModeBatch)
	cfg.Chaos = inj
	cfg.Multiplexer = multiplex.Config{NegativeBackoff: time.Minute}
	p := newPlatform(t, cfg)
	var denied error
	var calls atomic.Int64
	err = p.Register("fn", func(ctx context.Context, inv *Invocation) (any, error) {
		build := func() (any, int64, error) { calls.Add(1); return "client", 1, nil }
		_, out, err := inv.Resources.GetContext(ctx, "s3", "bucket", build)
		if out != OutcomeError || err == nil {
			return nil, fmt.Errorf("first get = %v, %v; want injected failure", out, err)
		}
		_, out, err = inv.Resources.GetContext(ctx, "s3", "bucket", build)
		if out != OutcomeNegative {
			return nil, fmt.Errorf("second get outcome = %v, want negative", out)
		}
		denied = err
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !errors.Is(denied, ErrBuildFailed) {
		t.Fatalf("denial err = %v, want ErrBuildFailed in chain", denied)
	}
	if calls.Load() != 0 {
		t.Fatalf("constructor ran %d times despite 100%% injected failure", calls.Load())
	}
	st := p.Stats()
	if st.Multiplexer.NegativeHits != 1 || st.Multiplexer.BuildFailures != 1 {
		t.Fatalf("multiplexer stats = %+v", st.Multiplexer)
	}
}

// closerClient records whether the cache's lifecycle hook closed it.
type closerClient struct{ closed *atomic.Int64 }

func (c *closerClient) Close() error { c.closed.Add(1); return nil }

// TestEvictedClientsAreClosed bounds the cache at one entry: building a
// second client evicts the first, whose io.Closer must run so sockets
// release deterministically.
func TestEvictedClientsAreClosed(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.Multiplexer = multiplex.Config{MaxEntries: 1}
	p := newPlatform(t, cfg)
	var closed atomic.Int64
	err := p.Register("fn", func(ctx context.Context, inv *Invocation) (any, error) {
		for _, key := range []string{"a", "b"} {
			_, _, err := inv.Resources.GetContext(ctx, "s3", key, func() (any, int64, error) {
				return &closerClient{closed: &closed}, 4, nil
			})
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if closed.Load() != 1 {
		t.Fatalf("closed = %d, want 1 (the LRU-evicted client)", closed.Load())
	}
	if ev := p.Stats().Multiplexer.Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

// TestBorrowedClientClosesAfterHandlerReturns: a client evicted while
// the handler that fetched it is still running must not be closed
// mid-use — the close fires after the handler returns (borrow tracking),
// and the handler can keep using the evicted client meanwhile.
func TestBorrowedClientClosesAfterHandlerReturns(t *testing.T) {
	cfg := quickConfig(ModeBatch)
	cfg.Multiplexer = multiplex.Config{MaxEntries: 1}
	p := newPlatform(t, cfg)
	var closedA, closedB atomic.Int64
	err := p.Register("fn", func(ctx context.Context, inv *Invocation) (any, error) {
		a, _, err := inv.Resources.GetContext(ctx, "s3", "a", func() (any, int64, error) {
			return &closerClient{closed: &closedA}, 4, nil
		})
		if err != nil {
			return nil, err
		}
		// Building B overflows the 1-entry cache and evicts A, which this
		// handler still holds.
		if _, _, err := inv.Resources.GetContext(ctx, "s3", "b", func() (any, int64, error) {
			return &closerClient{closed: &closedB}, 4, nil
		}); err != nil {
			return nil, err
		}
		if n := closedA.Load(); n != 0 {
			return nil, fmt.Errorf("client A closed %d times while the handler still uses it", n)
		}
		// A is evicted but must remain usable for the rest of the
		// invocation.
		if a.(*closerClient).closed == nil {
			return nil, errors.New("client A unusable")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "fn", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if n := closedA.Load(); n != 1 {
		t.Fatalf("client A closed %d times after the invocation, want 1", n)
	}
	if n := closedB.Load(); n != 0 {
		t.Fatalf("client B closed %d times while cached, want 0", n)
	}
}

// TestHTTPV1RouteParity proves the /v1 prefix serves the same surface as
// the legacy paths: /invoke and /v1/invoke return identical responses
// for the same request (modulo per-call latency measurements), and every
// versioned read endpoint is live.
func TestHTTPV1RouteParity(t *testing.T) {
	_, srv := newHTTPServer(t)
	req := httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("21")}
	body, _ := json.Marshal(req)

	invoke := func(path string) httpapi.InvokeResponse {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s status = %d", path, resp.StatusCode)
		}
		var out httpapi.InvokeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		return out
	}
	legacy := invoke("/invoke")
	v1 := invoke("/v1/invoke")
	// Latency and container identity vary per call; the API payload
	// semantics must not.
	legacy.Latency, v1.Latency = httpapi.Latency{}, httpapi.Latency{}
	legacy.ContainerID, v1.ContainerID = "", ""
	legacy.Cold, v1.Cold = false, false
	lj, _ := json.Marshal(legacy)
	vj, _ := json.Marshal(v1)
	if !bytes.Equal(lj, vj) {
		t.Fatalf("/invoke and /v1/invoke disagree:\n%s\n%s", lj, vj)
	}
	if string(v1.Result) != "42" {
		t.Fatalf("/v1/invoke result = %s", v1.Result)
	}

	for _, path := range []string{"/v1/stats", "/v1/metrics", "/v1/functions", "/v1/debug/traces", "/v1/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
	}

	// /stats and /v1/stats render the same counters.
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return b
	}
	if a, b := get("/stats"), get("/v1/stats"); !bytes.Equal(a, b) {
		t.Fatalf("/stats and /v1/stats disagree:\n%s\n%s", a, b)
	}
}

// TestStatsResponseCarriesCacheTelemetry exercises the extended /stats
// cache fields end to end.
func TestStatsResponseCarriesCacheTelemetry(t *testing.T) {
	_, srv := newHTTPServer(t)
	resp, _ := postInvoke(t, srv.URL, httpapi.InvokeRequest{Fn: "double", Payload: json.RawMessage("1")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", resp.StatusCode)
	}
	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer r.Body.Close()
	var st httpapi.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.CacheShards <= 0 {
		t.Fatalf("CacheShards = %d, want > 0 while a container cache is live", st.CacheShards)
	}
}
