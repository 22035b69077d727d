package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/chaos"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/metrics"
	"faasbatch/internal/obs"
	"faasbatch/internal/pullsched"
)

// ErrNoWorkers reports that no worker is currently marked up.
var ErrNoWorkers = errors.New("router: no healthy worker")

// PassThroughError carries a worker's non-retryable HTTP error verbatim
// to the client: the worker answered, so the failure belongs to the
// request (unknown function, handler error), not to the fleet — failing
// over would just re-run a doomed invocation on a healthy worker.
type PassThroughError struct {
	// Worker identifies the worker that answered.
	Worker string
	// Status is the worker's HTTP status code.
	Status int
	// Body is the worker's response body.
	Body string
}

// Error implements error.
func (e *PassThroughError) Error() string {
	return fmt.Sprintf("router: worker %s answered %d: %s", e.Worker, e.Status, e.Body)
}

// Config parameterises the router.
type Config struct {
	// Workers is the fleet (at least one).
	Workers []WorkerSpec
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 500ms).
	ProbeTimeout time.Duration
	// MarkDownAfter is how many consecutive failures (probe or forward)
	// mark a worker down (default 2).
	MarkDownAfter int
	// MarkUpAfter is how many consecutive probe successes mark a down
	// worker back up (default 2).
	MarkUpAfter int
	// VNodes is the ring's virtual-node count per worker (default
	// DefaultVNodes).
	VNodes int
	// LoadBound is the bounded-load factor (default DefaultLoadBound);
	// values below 1 clamp to 1.
	LoadBound float64
	// MaxAttempts caps forward attempts per invocation across workers
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay before a forward retry, doubled per
	// attempt (default 10ms; 0 keeps the default, negative disables).
	RetryBackoff time.Duration
	// FnConcurrency caps concurrent forwards per function (0 = no
	// admission control).
	FnConcurrency int
	// QueueDepth bounds per-function waiters beyond the concurrency cap
	// (with FnConcurrency > 0; default 0 = shed immediately at the cap).
	QueueDepth int
	// QueueWait bounds how long a waiter queues before shedding
	// (default 1s).
	QueueWait time.Duration
	// ForwardTimeout bounds one forward attempt (default 30s).
	ForwardTimeout time.Duration
	// Policy selects the scheduling policy: PolicyHash (consistent-hash
	// push, the default) or PolicyPull (per-function queues with
	// worker-pull late binding). See docs/CLUSTER.md "Choosing a policy".
	Policy string
	// Pull tunes the pull policy's decision core (shards, batch size,
	// per-worker capacity, queue depth, lease budget). Nil uses the
	// pullsched defaults; non-nil requires Policy == PolicyPull.
	Pull *pullsched.Config
	// ScrapeTimeout bounds one member scrape (both its /metrics and
	// /stats round trips) when serving /cluster/metrics and
	// /cluster/stats (default 2s).
	ScrapeTimeout time.Duration
	// Autoscale enables the predictive autoscaling control loop over
	// the registered worker pool: slot i of the controller maps to
	// Workers[i], standby workers are activated and drained as demand
	// moves, and MaxWorkers clamps to len(Workers). Nil disables
	// autoscaling (the whole pool serves, PR 3 behaviour).
	Autoscale *autoscale.Config
	// Chaos optionally fails forward attempts deterministically
	// (chaos.WorkerFailure), so failover is testable without killing
	// real processes. Nil injects nothing.
	Chaos *chaos.Injector
	// Tracer records router spans: route, probe, forward, forward-retry,
	// shed. Nil disables tracing.
	Tracer *obs.Tracer
	// Logger receives the router's structured logs. Nil discards.
	Logger *slog.Logger
	// Transport overrides the forwarding HTTP transport (tests).
	Transport http.RoundTripper
}

// Stats is a snapshot of router counters.
type Stats struct {
	// Routed counts invocations admitted past admission control.
	Routed int64
	// Completed counts invocations that returned a worker response.
	Completed int64
	// Forwarded counts forward attempts that reached a worker.
	Forwarded int64
	// Retries counts extra forward attempts after transient failures.
	Retries int64
	// Failovers counts attempts that moved to a different worker.
	Failovers int64
	// Shed counts invocations rejected by admission control.
	Shed int64
	// NoWorkers counts invocations rejected with an empty ring.
	NoWorkers int64
	// Errors counts invocations that exhausted their forward attempts.
	Errors int64
	// Probes counts health probes sent.
	Probes int64
	// ProbeFailures counts health probes that failed.
	ProbeFailures int64
	// Scrapes counts member scrape attempts made for the cluster view.
	Scrapes int64
	// ScrapeFailures counts member scrapes that failed.
	ScrapeFailures int64
}

// Router fronts a fleet of worker gateways: consistent-hash function
// affinity with bounded load, health-checked membership, bounded
// retries with failover, and admission control.
type Router struct {
	cfg     Config
	reg     *Registry
	adm     *admission
	policy  Policy
	scaler  *liveScaler
	client  *http.Client
	tracer  *obs.Tracer
	metrics *obs.Metrics
	logger  *slog.Logger

	mu    sync.Mutex
	stats Stats

	scrapeMu   sync.Mutex
	lastScrape map[string]memberSnapshot

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// Option customises New after the Config struct is applied.
type Option func(*Config)

// WithTransport overrides the forwarding HTTP transport, setting
// Config.Transport.
func WithTransport(t http.RoundTripper) Option {
	return func(c *Config) { c.Transport = t }
}

// New builds a router over cfg.Workers, then applies opts to the
// config. Config.Pull requires Config.Policy == PolicyPull. Start
// launches the prober; a router without Start still routes (tests drive
// ProbeAll directly).
func New(cfg Config, opts ...Option) (*Router, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Pull != nil && cfg.Policy != PolicyPull {
		return nil, fmt.Errorf("router: Config.Pull requires policy %q, got %q", PolicyPull, cfg.Policy)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.LoadBound == 0 {
		cfg.LoadBound = DefaultLoadBound
	}
	if cfg.LoadBound < 1 {
		cfg.LoadBound = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	reg, err := NewRegistry(RegistryConfig{
		Workers:       cfg.Workers,
		VNodes:        cfg.VNodes,
		MarkDownAfter: cfg.MarkDownAfter,
		MarkUpAfter:   cfg.MarkUpAfter,
	})
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	rt := &Router{
		cfg:        cfg,
		reg:        reg,
		adm:        newAdmission(cfg.FnConcurrency, cfg.QueueDepth, cfg.QueueWait),
		client:     &http.Client{Transport: cfg.Transport},
		tracer:     cfg.Tracer,
		metrics:    obs.NewMetrics(),
		logger:     logger,
		lastScrape: make(map[string]memberSnapshot),
		stop:       make(chan struct{}),
	}
	if cfg.Autoscale != nil {
		scaler, err := newLiveScaler(rt, *cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		rt.scaler = scaler
	}
	// The policy builds after the scaler so the pull driver's initial
	// worker eligibility reflects autoscale's standby retirements.
	switch cfg.Policy {
	case "", PolicyHash:
		rt.policy = &hashPolicy{rt: rt}
	case PolicyPull:
		pp, err := newPullPolicy(rt, cfg.Pull)
		if err != nil {
			return nil, err
		}
		rt.policy = pp
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want %q or %q)",
			cfg.Policy, PolicyHash, PolicyPull)
	}
	reg.OnMembership(func(id string, inRing bool) {
		rt.policy.OnMembershipChange(id, inRing)
	})
	rt.logger.Info("router started",
		"workers", len(cfg.Workers),
		"policy", rt.policy.Name(),
		"vnodes", ringVNodes(cfg.VNodes),
		"loadBound", cfg.LoadBound,
		"maxAttempts", cfg.MaxAttempts,
		"fnConcurrency", cfg.FnConcurrency,
		"autoscale", cfg.Autoscale != nil)
	return rt, nil
}

// Policy exposes the active scheduling policy.
func (rt *Router) Policy() Policy { return rt.policy }

// ringVNodes resolves the configured virtual-node count.
func ringVNodes(v int) int {
	if v <= 0 {
		return DefaultVNodes
	}
	return v
}

// Registry exposes the worker registry (for /workers and tests).
func (rt *Router) Registry() *Registry { return rt.reg }

// Metrics exposes the router's histogram registry (never nil).
func (rt *Router) Metrics() *obs.Metrics { return rt.metrics }

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// ForwardImbalance reports max/mean of per-worker forwarded counts.
func (rt *Router) ForwardImbalance() float64 {
	return metrics.Imbalance(rt.reg.ForwardedPerWorker())
}

// Start launches the periodic health prober and, when autoscaling is
// configured, the scale-evaluation loop.
func (rt *Router) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.started || rt.closed {
		return
	}
	rt.started = true
	rt.wg.Add(1)
	go rt.probeLoop()
	if rt.scaler != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.scaler.loop(rt.stop)
		}()
	}
}

// Close stops the prober. It does not wait for in-flight forwards; the
// HTTP server draining above the router owns that.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	rt.wg.Wait()
	return nil
}

// probeLoop probes the fleet every ProbeInterval until Close.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			rt.ProbeAll(context.Background())
			// The lease-expiry sweep (pull policy, when a LeaseBudget is
			// configured) rides the probe tick rather than its own timer.
			rt.policy.sweep()
		case <-rt.stop:
			return
		}
	}
}

// ProbeAll runs one synchronous health-probe round over every worker —
// up and down alike, so recoveries are noticed. Each probe reads the
// worker's /healthz capacity report; anything but a 200 "ok" counts as
// a failure toward mark-down.
func (rt *Router) ProbeAll(ctx context.Context) {
	trace := rt.tracer.Begin() // one trace per probe round
	for _, spec := range rt.reg.Specs() {
		start := rt.tracer.Now()
		health, err := rt.probeOne(ctx, spec)
		rt.tracer.Record(obs.Span{
			Trace: trace, Name: obs.SpanProbe, Detail: spec.ID,
			Start: start, End: rt.tracer.Now(),
		})
		rt.mu.Lock()
		rt.stats.Probes++
		if err != nil {
			rt.stats.ProbeFailures++
		}
		rt.mu.Unlock()
		if err == nil {
			rt.reg.SetCapacity(spec.ID, health.Capacity)
		}
		changed, now := rt.reg.NoteResult(spec.ID, err == nil)
		if changed {
			rt.logger.Warn("worker state changed", "worker", spec.ID, "state", now.String(), "err", err)
		} else if err != nil {
			rt.logger.Debug("probe failed", "worker", spec.ID, "err", err)
		}
	}
}

// probeOne performs one /healthz round trip.
func (rt *Router) probeOne(ctx context.Context, spec WorkerSpec) (httpapi.HealthResponse, error) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, spec.URL+"/healthz", nil)
	if err != nil {
		return httpapi.HealthResponse{}, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return httpapi.HealthResponse{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	var health httpapi.HealthResponse
	// The body is informative even on 503 (draining/unready states).
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&health)
	if resp.StatusCode != http.StatusOK {
		return health, fmt.Errorf("healthz %d (%s)", resp.StatusCode, health.Status)
	}
	if health.Status != "" && health.Status != httpapi.HealthOK {
		return health, fmt.Errorf("healthz status %q", health.Status)
	}
	return health, nil
}

// Invoke routes one invocation: admission, ring pick, forward with
// bounded retries and failover. The error is an *OverloadError (shed),
// ErrNoWorkers, a *PassThroughError (the worker answered with an HTTP
// error), or a wrapped transport error after the attempt budget drained.
func (rt *Router) Invoke(ctx context.Context, req httpapi.RoutedInvokeRequest) (httpapi.RoutedInvokeResponse, error) {
	return rt.InvokeTraced(ctx, req, 0)
}

// InvokeTraced is Invoke with an explicit parent trace ID: a non-zero
// parent (from an inbound traceparent header) is adopted instead of
// minting a fresh trace, so the caller's trace, the router's spans and
// the worker's spans stitch into one end-to-end timeline. The trace
// identity travels to the worker as a traceparent header on the forward
// request and comes back on the response's TraceID field.
func (rt *Router) InvokeTraced(ctx context.Context, req httpapi.RoutedInvokeRequest, parent uint64) (httpapi.RoutedInvokeResponse, error) {
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	trace := rt.tracer.BeginWith(parent)
	admitStart := rt.tracer.Now()
	if rt.policy.Name() != PolicyPull {
		// The pull policy sheds on its bounded queue depth inside
		// Assign instead of the per-function semaphore, so admission
		// control only gates the push path.
		release, err := rt.adm.Acquire(ctx, req.Fn)
		if err != nil {
			rt.noteShed(trace, admitStart, req.Fn, err)
			return httpapi.RoutedInvokeResponse{}, err
		}
		defer release()
	}
	rt.mu.Lock()
	rt.stats.Routed++
	rt.mu.Unlock()
	if rt.scaler != nil {
		// Feed the demand forecaster; on a scaled-to-zero fleet this
		// wakes the first worker before forward looks for candidates.
		rt.scaler.observe(req.Fn, rt.scaler.now())
	}
	resp, err := rt.forward(ctx, trace, req)
	var overload *OverloadError
	if err != nil && errors.As(err, &overload) {
		// A pull-policy shed surfaces from forward, after Routed was
		// counted; undo it so Routed keeps meaning "admitted" under
		// both policies.
		rt.mu.Lock()
		rt.stats.Routed--
		rt.mu.Unlock()
		rt.noteShed(trace, admitStart, req.Fn, err)
	}
	return resp, err
}

// noteShed records one shed invocation: span, counter, log line.
func (rt *Router) noteShed(trace uint64, start time.Duration, fn string, err error) {
	rt.tracer.Record(obs.Span{
		Trace: trace, Name: obs.SpanShed, Fn: fn,
		Start: start, End: rt.tracer.Now(),
	})
	rt.mu.Lock()
	rt.stats.Shed++
	rt.mu.Unlock()
	rt.logger.Warn("invocation shed", "fn", fn, "err", err)
}

// forward asks the policy for a binding, then walks its per-attempt
// worker picks with bounded retries/backoff.
func (rt *Router) forward(ctx context.Context, trace uint64, req httpapi.RoutedInvokeRequest) (httpapi.RoutedInvokeResponse, error) {
	routeStart := rt.tracer.Now()
	bnd, assignErr := rt.policy.Assign(ctx, req.Fn)
	detail := "candidates=0"
	if assignErr == nil {
		detail = bnd.detail()
	}
	rt.tracer.Record(obs.Span{
		Trace: trace, Name: obs.SpanRoute, Fn: req.Fn,
		Detail: detail,
		Start:  routeStart, End: rt.tracer.Now(),
	})
	if assignErr != nil {
		if errors.Is(assignErr, ErrNoWorkers) {
			rt.mu.Lock()
			rt.stats.NoWorkers++
			rt.mu.Unlock()
		}
		return httpapi.RoutedInvokeResponse{}, assignErr
	}
	// Settle the binding exactly once on every exit path: success and
	// pass-through ack the lease, everything else aborts it, so the
	// pull core's conservation (enqueued = completed + aborted) holds.
	served := false
	defer func() { bnd.Done(served) }()
	// Byte-oriented encode of the forward body. The buffer is fresh, not
	// pooled: http.Transport may keep reading the bytes.Reader after a
	// per-attempt context cancellation, so recycling it here could hand a
	// half-written buffer to an in-flight request.
	body := httpapi.AppendInvokeRequest(
		make([]byte, 0, len(req.Fn)+len(req.Payload)+32), req.Fn, req.Payload)
	var lastErr error
	var prev string
	for attempt := 1; attempt <= rt.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return httpapi.RoutedInvokeResponse{}, fmt.Errorf("router: invoke %s: %w", req.Fn, err)
		}
		if attempt > 1 {
			rt.mu.Lock()
			rt.stats.Retries++
			rt.mu.Unlock()
			rt.backoff(ctx, trace, req.Fn, attempt)
		}
		id, err := bnd.Next(ctx, attempt)
		if err != nil {
			// Context expired (or the router closed) while waiting for a
			// pull lease; the deferred Done aborts the queued item.
			return httpapi.RoutedInvokeResponse{}, fmt.Errorf("router: invoke %s: %w", req.Fn, err)
		}
		if attempt > 1 && id != prev {
			rt.mu.Lock()
			rt.stats.Failovers++
			rt.mu.Unlock()
		}
		prev = id
		resp, err := rt.tryWorker(ctx, trace, attempt, id, req.Fn, body)
		if err == nil {
			resp.ForwardAttempts = attempt
			if resp.TraceID == "" && trace != 0 {
				// Worker tracing off: report the router's trace identity.
				resp.TraceID = fmt.Sprintf("%016x", trace)
			}
			rt.reg.NoteForwarded(id)
			rt.reg.NoteResult(id, true)
			rt.mu.Lock()
			rt.stats.Completed++
			rt.mu.Unlock()
			served = true
			return resp, nil
		}
		var pass *PassThroughError
		if errors.As(err, &pass) {
			// The worker answered: not a fleet failure, pass it through.
			rt.reg.NoteResult(id, true)
			rt.mu.Lock()
			rt.stats.Completed++
			rt.mu.Unlock()
			served = true
			return httpapi.RoutedInvokeResponse{}, err
		}
		// Transient: connection error, injected worker failure, or a 503
		// from a draining worker. Counts toward mark-down, then fail over.
		lastErr = err
		changed, now := rt.reg.NoteResult(id, false)
		if changed {
			rt.logger.Warn("worker state changed", "worker", id, "state", now.String(), "err", err)
		}
		rt.logger.Info("forward failed", "fn", req.Fn, "worker", id, "attempt", attempt, "err", err)
	}
	rt.mu.Lock()
	rt.stats.Errors++
	rt.mu.Unlock()
	return httpapi.RoutedInvokeResponse{}, fmt.Errorf("router: invoke %s: %d attempts exhausted: %w",
		req.Fn, rt.cfg.MaxAttempts, lastErr)
}

// attemptOutcome labels a forward attempt's result for its span detail:
// "ok", "worker-error" (the worker answered with a non-retryable HTTP
// error) or "transient" (connection failure, 503, injected fault).
func attemptOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	var pass *PassThroughError
	if errors.As(err, &pass) {
		return "worker-error"
	}
	return "transient"
}

// backoff sleeps the exponential retry delay (base doubled per extra
// attempt), bounded by ctx.
func (rt *Router) backoff(ctx context.Context, trace uint64, fn string, attempt int) {
	if rt.cfg.RetryBackoff <= 0 {
		return
	}
	delay := rt.cfg.RetryBackoff << uint(attempt-2)
	start := rt.tracer.Now()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
	rt.tracer.Record(obs.Span{
		Trace: trace, Name: obs.SpanForwardRetry, Fn: fn, Attempt: attempt,
		Start: start, End: rt.tracer.Now(),
	})
}

// tryWorker performs one forward attempt against one worker. A non-2xx,
// non-503 worker response returns a *PassThroughError; connection
// errors, injected worker failures and 503s return plain (retryable)
// errors. Each attempt records one forward span carrying the worker ID
// and the attempt's outcome, and propagates the trace to the worker as
// a traceparent header so the worker's spans join the same trace.
func (rt *Router) tryWorker(ctx context.Context, trace uint64, attempt int, id, fn string, body []byte) (_ httpapi.RoutedInvokeResponse, retErr error) {
	spanStart := rt.tracer.Now()
	defer func() {
		rt.tracer.Record(obs.Span{
			Trace: trace, Name: obs.SpanForward, Fn: fn, Attempt: attempt,
			Detail: id + " " + attemptOutcome(retErr),
			Start:  spanStart, End: rt.tracer.Now(),
		})
	}()
	if rt.cfg.Chaos.Should(chaos.WorkerFailure) {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("injected worker failure (%s)", id)
	}
	url := rt.reg.URL(id)
	if url == "" {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("unknown worker %q", id)
	}
	rt.reg.AddInflight(id, 1)
	defer rt.reg.AddInflight(id, -1)
	fctx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(fctx, http.MethodPost, url+"/invoke", bytes.NewReader(body))
	if err != nil {
		return httpapi.RoutedInvokeResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		hreq.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(trace))
	}
	start := time.Now()
	resp, err := rt.client.Do(hreq)
	if err != nil {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("forward to %s: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	rt.metrics.ObserveForward(id, time.Since(start))
	rt.mu.Lock()
	rt.stats.Forwarded++
	rt.mu.Unlock()
	// Worker responses are read into a pooled buffer: every escape below
	// copies (json.Unmarshal clones RawMessage fields, error formatting
	// and PassThroughError stringify), so nothing aliases raw after this
	// attempt returns.
	bufp := workerRespBufPool.Get().(*[]byte)
	raw, err := appendReadAll((*bufp)[:0], io.LimitReader(resp.Body, 4<<20))
	*bufp = raw
	defer workerRespBufPool.Put(bufp)
	if err != nil {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("read response from %s: %w", id, err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("worker %s unavailable: %s", id, bytes.TrimSpace(raw))
	}
	if resp.StatusCode != http.StatusOK {
		return httpapi.RoutedInvokeResponse{}, &PassThroughError{
			Worker: id, Status: resp.StatusCode, Body: string(bytes.TrimSpace(raw)),
		}
	}
	var inner httpapi.InvokeResponse
	if err := json.Unmarshal(raw, &inner); err != nil {
		return httpapi.RoutedInvokeResponse{}, fmt.Errorf("decode response from %s: %w", id, err)
	}
	out := httpapi.RoutedInvokeResponse{InvokeResponse: inner, Worker: id}
	if inner.Worker != "" {
		// Prefer the worker's self-reported identity: it survives URL
		// remappings in front of the fleet.
		out.Worker = inner.Worker
	}
	return out, nil
}

// workerRespBufPool recycles the per-attempt buffer a worker response is
// read into (see tryWorker for the no-aliasing argument).
var workerRespBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// appendReadAll reads r to EOF appending into dst, growing the buffer as
// needed; the grown buffer is returned even on error so callers can keep
// its capacity.
func appendReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
