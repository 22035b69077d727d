package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/router"
)

// fleet is an in-process deployment: workers (platform.Platform behind
// platform.NewHTTPHandler) on loopback listeners, and a router
// (router.Router behind router.NewHTTPHandler) in front of them. The
// benchmark reaches each layer only through these public entry points.
type fleet struct {
	workers []*platform.Platform
	servers []*http.Server
	serving sync.WaitGroup
	rt      *router.Router
	url     string
	// workerURLs are the workers' base URLs.
	workerURLs []string
	// client speaks cleartext HTTP/2 to the router; direct speaks
	// HTTP/1.1 to the workers during set-up.
	client, direct *http.Client
	// loadConns counts connections the generator opened to the router;
	// workerConns counts connections opened to the workers (the router's
	// forwards and probes).
	loadConns, workerConns atomic.Int64
	spans                  *spanRecorder // nil in untraced runs
}

// fleetWorkers is the live fleet's size: two in-process workers, so
// the router's hash policy has a choice to make.
const fleetWorkers = 2

// fleetSpec describes the deployment of one live workload.
type fleetSpec struct {
	platform platform.Config
	// register installs the workload's functions on one worker.
	register func(p *platform.Platform, spans *spanRecorder) error
}

// startFleet brings a fleet up; spans, when non-nil, instruments every
// layer boundary.
func startFleet(spec fleetSpec, spans *spanRecorder) (_ *fleet, err error) {
	f := &fleet{spans: spans}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var workers []router.WorkerSpec
	for i := 0; i < fleetWorkers; i++ {
		cfg := spec.platform
		cfg.WorkerID = fmt.Sprintf("w%d", i)
		p, err := platform.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("start worker: %w", err)
		}
		f.workers = append(f.workers, p)
		if err := spec.register(p, spans); err != nil {
			return nil, fmt.Errorf("register functions: %w", err)
		}
		p.SetReady(true)
		url, err := f.serve(spans.wrap(spanWorker, platform.NewHTTPHandler(p)), &f.workerConns, nil)
		if err != nil {
			return nil, err
		}
		workers = append(workers, router.WorkerSpec{ID: cfg.WorkerID, URL: url})
		f.workerURLs = append(f.workerURLs, url)
	}
	fwd := &forwardTransport{base: http.DefaultTransport, spans: spans}
	f.rt, err = router.New(router.Config{Workers: workers, Policy: router.PolicyHash}, router.WithTransport(fwd))
	if err != nil {
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.rt.Start()
	// Batching needs hundreds of requests in flight from a handful of
	// connections, so the router serves cleartext HTTP/2 and lets
	// streams, not extra connections, absorb a burst.
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	f.url, err = f.serve(spans.wrap(spanRouter, router.NewHTTPHandler(f.rt)), &f.loadConns, func(s *http.Server) {
		s.Protocols = &protos
		s.HTTP2 = &http.HTTP2Config{MaxConcurrentStreams: 4096}
	})
	if err != nil {
		return nil, err
	}
	var clientProtos http.Protocols
	clientProtos.SetUnencryptedHTTP2(true)
	f.client = &http.Client{Transport: &http.Transport{
		Protocols:       &clientProtos,
		MaxConnsPerHost: runtime.NumCPU(),
	}}
	f.direct = &http.Client{Transport: &http.Transport{}}
	return f, nil
}

// serve starts an HTTP server on a loopback port and returns its URL.
func (f *fleet) serve(h http.Handler, conns *atomic.Int64, tune func(*http.Server)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		},
	}
	if tune != nil {
		tune(srv)
	}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the fleet and waits for its servers to exit.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
		f.direct.CloseIdleConnections()
	}
	if f.rt != nil {
		_ = f.rt.Close()
	}
	for _, s := range f.servers {
		_ = s.Close() // idempotent shutdown; errors only repeat listener errors
	}
	f.serving.Wait()
	// The router forwards over the shared default transport: drop its
	// idle connections so the next fleet's connection counts start clean.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, p := range f.workers {
		_ = p.Close() // every invocation has completed; nothing can be lost
	}
}

// ping sends one request to the router's health endpoint.
func (f *fleet) ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("router health check: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the stream
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router health check: HTTP %d", resp.StatusCode)
	}
	return nil
}

// quiesce waits until no worker holds an in-flight invocation.
func (f *fleet) quiesce(ctx context.Context) error {
	for {
		busy := int64(0)
		for _, p := range f.workers {
			busy += p.Inflight()
		}
		if busy == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d invocations still in flight: %w", busy, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// workerStats sums the workers' counters that the per-layer metrics
// read.
func (f *fleet) workerStats() platform.Stats {
	var sum platform.Stats
	for _, p := range f.workers {
		s := p.Stats()
		sum.Invocations += s.Invocations
		sum.Retries += s.Retries
		sum.Groups += s.Groups
		sum.FastPathDispatches += s.FastPathDispatches
		sum.Multiplexer.Add(s.Multiplexer)
	}
	return sum
}

// forwardTransport is the router's forwarding transport: it delegates
// every request to http.DefaultTransport, so connection behaviour is
// the router's own. In a traced run it copies the benchmark's request
// ID from the forward's context onto a header of a cloned request and
// records the forward span, ending when the router has read the reply.
type forwardTransport struct {
	base  http.RoundTripper
	spans *spanRecorder
}

// RoundTrip implements http.RoundTripper.
func (t *forwardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(requestIDKey{}).(uint64)
	if t.spans == nil || id == 0 {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.spans.record(id, spanForward, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.spans.record(id, spanForward, start, time.Now()) }}
	return resp, nil
}

// spanBody ends a span at the first EOF or Close of a response body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// Span names, one per layer boundary, outermost first.
const (
	spanClient  = "client"
	spanRouter  = "router"
	spanForward = "forward"
	spanWorker  = "worker"
	spanHandler = "handler"
	spanMuxGet  = "mux.get"
)

// spanLevels orders the span names from the client inwards; a span's
// children are the spans of the next level with the same request ID.
var spanLevels = []string{spanClient, spanRouter, spanForward, spanWorker, spanHandler, spanMuxGet}

// requestIDHeader carries the benchmark's request ID from the
// generator to the router and from the router to the worker.
const requestIDHeader = "X-Perfbench-Id"

// requestIDKey keys the request ID in a request context.
type requestIDKey struct{}

// spanRecorder keeps the traced run's spans in memory, in an
// obs.Tracer whose ring is sized for the whole run.
type spanRecorder struct {
	t *obs.Tracer
}

func newSpanRecorder(capacity int) (*spanRecorder, error) {
	t, err := obs.NewWallTracer(capacity, 1)
	if err != nil {
		return nil, err
	}
	return &spanRecorder{t: t}, nil
}

// record stores one span of request id (a nil recorder or a zero id
// records nothing).
func (s *spanRecorder) record(id uint64, name string, start, end time.Time) {
	if s == nil || id == 0 {
		return
	}
	s.t.Record(obs.Span{Trace: id, Name: name, Start: s.t.Stamp(start), End: s.t.Stamp(end)})
}

// wrap is middleware recording a span of the given name around h and
// putting the request ID into the request context, where it rides
// through Router.InvokeTraced into the forward. A nil recorder returns
// h unchanged.
func (s *spanRecorder) wrap(name string, h http.Handler) http.Handler {
	if s == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		s.record(id, name, start, time.Now())
	})
}
