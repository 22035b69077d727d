package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/metrics"
	"faasbatch/internal/platform"
	"faasbatch/internal/router"
)

// hotSeries is one measured hot-path series in BENCH_hotpath.json.
type hotSeries struct {
	// Name identifies the path: sim_submit (Platform.Invoke, warm),
	// gateway_encode (byte-oriented /invoke response encode), decode
	// (byte-oriented /invoke request decode), gateway_live (HTTP round
	// trip through the worker gateway) or routed (HTTP round trip through
	// the router and a loopback worker).
	Name      string  `json:"name"`
	Ops       int64   `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// BytesPerOp/AllocsPerOp are process-wide heap deltas over the run
	// (GC disabled), rounded to the nearest integer per op. The live HTTP
	// series include client-side allocations; only the in-process series
	// are gated at zero.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// hotpathReport is the BENCH_hotpath.json shape.
type hotpathReport struct {
	GOOS   string      `json:"goos"`
	GOARCH string      `json:"goarch"`
	NumCPU int         `json:"num_cpu"`
	Series []hotSeries `json:"series"`
	// Gates are the values CI fails the build on: the warm sim submit
	// path and the gateway response encode must stay at 0 allocs/op.
	Gates map[string]int64 `json:"gates"`
}

// measureHot times ops iterations of fn and derives throughput, latency
// percentiles and per-op heap deltas. GC stays disabled during the
// measured window: a collection would clear the sync.Pools under test and
// charge the refill to whichever op ran next.
func measureHot(name string, ops int, fn func() error) (hotSeries, error) {
	warm := ops / 10
	if warm > 200 {
		warm = 200
	}
	for i := 0; i <= warm; i++ {
		if err := fn(); err != nil {
			return hotSeries{}, fmt.Errorf("%s warm-up: %w", name, err)
		}
	}
	durs := make([]time.Duration, ops)
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range durs {
		s := time.Now()
		if err := fn(); err != nil {
			return hotSeries{}, fmt.Errorf("%s: %w", name, err)
		}
		durs[i] = time.Since(s)
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)
	cdf := metrics.NewCDF(durs)
	n := float64(ops)
	return hotSeries{
		Name:        name,
		Ops:         int64(ops),
		NsPerOp:     round3(float64(total.Nanoseconds()) / n),
		OpsPerSec:   round3(n / total.Seconds()),
		P50Micros:   round3(float64(cdf.P(0.50).Nanoseconds()) / 1e3),
		P99Micros:   round3(float64(cdf.P(0.99).Nanoseconds()) / 1e3),
		BytesPerOp:  int64(float64(after.TotalAlloc-before.TotalAlloc)/n + 0.5),
		AllocsPerOp: int64(float64(after.Mallocs-before.Mallocs)/n + 0.5),
	}, nil
}

// hotPlatform builds the steady-state platform the hot-path series run
// against: adaptive dispatch with single-call groups (warm arrivals
// dispatch inline), no cold-start simulation, no multiplexer, no tracer.
func hotPlatform() (*platform.Platform, error) {
	p, err := platform.New(platform.Config{
		Mode:             platform.ModeBatch,
		DispatchInterval: 50 * time.Millisecond,
		AdaptiveDispatch: true,
		MaxGroupSize:     1,
		KeepAlive:        time.Minute,
	})
	if err != nil {
		return nil, err
	}
	if err := p.Register("noop", func(context.Context, *platform.Invocation) (any, error) {
		return nil, nil
	}); err != nil {
		_ = p.Close()
		return nil, err
	}
	p.SetReady(true)
	return p, nil
}

// runHotpath measures the invoke hot path end to end and writes the
// BENCH_hotpath.json report: warm sim submit, wire encode/decode, the
// live worker gateway and the routed path.
func runHotpath(w io.Writer) error {
	rep := hotpathReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}

	// sim_submit: Platform.Invoke on a warm function — the sharded,
	// pooled submission path with no HTTP in front. Gated at 0 allocs/op.
	p, err := hotPlatform()
	if err != nil {
		return err
	}
	ctx := context.Background()
	sim, err := measureHot("sim_submit", 50_000, func() error {
		_, err := p.Invoke(ctx, "noop", nil)
		return err
	})
	if err != nil {
		_ = p.Close()
		return err
	}
	if err := p.Close(); err != nil {
		return err
	}
	rep.Series = append(rep.Series, sim)

	// gateway_encode: the byte-oriented /invoke response encoder into a
	// reused buffer, trace stamp included. Gated at 0 allocs/op.
	out := httpapi.InvokeResponse{
		Fn:          "noop",
		Result:      json.RawMessage(`{"ok":true,"n":42}`),
		ContainerID: "live-0001-noop",
		Worker:      "w1",
		Attempts:    1,
		Latency: httpapi.Latency{
			SchedMillis: 0.153, QueueMillis: 0.021, ExecMillis: 1.337, TotalMillis: 1.511,
		},
	}
	buf := make([]byte, 0, 512)
	enc, err := measureHot("gateway_encode", 200_000, func() error {
		buf = httpapi.AppendInvokeResponse(buf[:0], &out, 0xabcdef0123456789)
		if len(buf) == 0 {
			return fmt.Errorf("empty encode")
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.Series = append(rep.Series, enc)

	// decode: the byte-oriented /invoke request scanner (payload aliases
	// the input, so the steady state allocates nothing).
	reqBody := []byte(`{"fn":"noop","payload":{"n":12}}`)
	dec, err := measureHot("decode", 200_000, func() error {
		req, err := httpapi.DecodeInvokeRequest(reqBody)
		if err != nil {
			return err
		}
		if req.Fn != "noop" {
			return fmt.Errorf("decoded fn %q", req.Fn)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.Series = append(rep.Series, dec)

	// gateway_live: the worker gateway over real HTTP on loopback. The
	// per-op heap delta includes net/http client and server connection
	// machinery, so this series is reported, not gated.
	p2, err := hotPlatform()
	if err != nil {
		return err
	}
	gsrv := httptest.NewServer(platform.NewHTTPHandler(p2))
	client := gsrv.Client()
	invokeOnce := func(url string, body []byte) error {
		resp, err := client.Post(url+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	live, err := measureHot("gateway_live", 10_000, func() error {
		return invokeOnce(gsrv.URL, reqBody)
	})
	gsrv.Close()
	if cerr := p2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.Series = append(rep.Series, live)

	// routed: client -> router -> worker gateway, all on loopback.
	p3, err := hotPlatform()
	if err != nil {
		return err
	}
	wsrv := httptest.NewServer(platform.NewHTTPHandler(p3))
	rt, err := router.New(router.Config{
		Workers:        []router.WorkerSpec{{ID: "w1", URL: wsrv.URL}},
		ProbeInterval:  time.Second,
		RetryBackoff:   -1,
		ForwardTimeout: 5 * time.Second,
	})
	if err != nil {
		wsrv.Close()
		_ = p3.Close()
		return err
	}
	rsrv := httptest.NewServer(router.NewHTTPHandler(rt))
	routed, err := measureHot("routed", 5_000, func() error {
		return invokeOnce(rsrv.URL, reqBody)
	})
	rsrv.Close()
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	wsrv.Close()
	if cerr := p3.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.Series = append(rep.Series, routed)

	rep.Gates = map[string]int64{
		"sim_submit_allocs_per_op":     sim.AllocsPerOp,
		"gateway_encode_allocs_per_op": enc.AllocsPerOp,
	}

	enc2 := json.NewEncoder(w)
	enc2.SetIndent("", "  ")
	return enc2.Encode(rep)
}
