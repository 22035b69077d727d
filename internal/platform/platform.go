// Package platform is a live, wall-clock FaaSBatch runtime: a miniature
// serverless platform that executes real Go functions with the paper's
// scheduling architecture. Where internal/experiment reproduces the
// evaluation in virtual time, this package is what a downstream user
// embeds to run FaaSBatch for real:
//
//   - functions register as Go handlers;
//   - the Invoke Mapper batches concurrent invocations per function over
//     a dispatch interval and expands each group inside one container
//     (a goroutine-backed worker with a simulated cold-start delay);
//   - each container carries a Resource Multiplexer; handlers obtain
//     shared clients through Resources.GetContext, so duplicate
//     constructions coalesce exactly as in §III-D.
//
// A per-invocation mode (Vanilla) is included for comparison, and
// NewHTTPHandler exposes the platform over HTTP (cmd/faasgate).
package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/dispatch"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/obs"
	"faasbatch/internal/slo"
)

// Mode selects the scheduling policy of the live platform.
type Mode int

// Scheduling modes.
const (
	// ModeBatch is FaaSBatch: window batching + inline-parallel
	// expansion + resource multiplexing.
	ModeBatch Mode = iota + 1
	// ModeVanilla launches/acquires one container per invocation.
	ModeVanilla
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBatch:
		return "faasbatch"
	case ModeVanilla:
		return "vanilla"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Handler is a registered serverless function.
type Handler func(ctx context.Context, inv *Invocation) (any, error)

// Invocation is the handler's view of one request.
type Invocation struct {
	// Payload is the raw request payload.
	Payload json.RawMessage
	// Resources is the container's Resource Multiplexer facade.
	Resources *Resources
	// ContainerID identifies the hosting container.
	ContainerID string
}

// Outcome classifies how a Resources.GetContext call was served; it is
// the multiplexer's Outcome re-exported for handler ergonomics.
type Outcome = multiplex.Outcome

// Outcomes of Resources.GetContext.
const (
	OutcomeMiss      = multiplex.OutcomeMiss
	OutcomeHit       = multiplex.OutcomeHit
	OutcomeCoalesced = multiplex.OutcomeCoalesced
	OutcomeStale     = multiplex.OutcomeStale
	OutcomeNegative  = multiplex.OutcomeNegative
	OutcomeError     = multiplex.OutcomeError
)

// Typed errors surfaced by Resources.GetContext, matchable with
// errors.Is through any wrapping.
var (
	// ErrBuildFailed marks a failed client construction (the build
	// callback erred, or the negative cache is absorbing its failures).
	ErrBuildFailed = multiplex.ErrBuildFailed
	// ErrCacheClosed marks a multiplexer that has been torn down (the
	// hosting container is retiring).
	ErrCacheClosed = multiplex.ErrCacheClosed
)

// Resources is the handler-facing face of the container's Resource
// Multiplexer: GetContext intercepts resource creations, as the paper's
// multiplexer intercepts client(args) calls. When the invocation is
// traced, the platform hands the handler a per-invocation view carrying
// the trace context, so client builds appear as spans on the right trace.
type Resources struct {
	cache *multiplex.Cache
	inj   *chaos.Injector

	// borrows collects the release half of every cache loan this view
	// hands out. The platform gives each invocation its own view and
	// releases after the handler returns, so an instance evicted while
	// the handler still uses it is closed only once the handler is done.
	borrows *borrowSet

	// Trace context (zero on untraced views).
	tracer    *obs.Tracer
	trace     uint64
	fn        string
	container string
}

// borrowSet is one invocation's outstanding resource loans. Handlers may
// call GetContext from concurrent goroutines, so it locks.
type borrowSet struct {
	mu       sync.Mutex
	releases []multiplex.ReleaseFunc
}

func (b *borrowSet) add(r multiplex.ReleaseFunc) {
	b.mu.Lock()
	b.releases = append(b.releases, r)
	b.mu.Unlock()
}

// releaseAll returns every borrowed instance, firing any eviction closes
// that were deferred while the invocation held them.
func (b *borrowSet) releaseAll() {
	b.mu.Lock()
	rs := b.releases
	b.releases = nil
	b.mu.Unlock()
	for _, r := range rs {
		r()
	}
}

// GetContext returns the shared instance for (callee, argsKey), building
// it at most once per container. The Outcome reports how the call was
// served: a miss builds, a hit or coalesced wait reuses, a stale outcome
// serves the old instance while one background refresh runs, and a
// negative outcome means the key's recent build failures are being
// absorbed by backoff (the error matches ErrBuildFailed without the
// build having run). Errors match ErrBuildFailed / ErrCacheClosed with
// errors.Is; a done ctx abandons a coalesced wait with ctx.Err.
//
// A returned instance is borrowed for the rest of the invocation: if the
// cache evicts it (capacity, TTL, a concurrent Invalidate, container
// retirement) while the handler still holds it, its io.Closer runs only
// after the handler returns — never mid-use. Instances kept beyond the
// invocation (e.g. captured by a goroutine the handler leaves behind)
// lose that protection.
//
// When the platform runs without multiplexing, every call builds a fresh
// instance and reports OutcomeMiss.
func (r *Resources) GetContext(ctx context.Context, callee, argsKey string, build func() (any, int64, error)) (any, Outcome, error) {
	if r.inj != nil {
		// Fault injection wraps the constructor, so an injected failure
		// fires only when a build actually runs — cache hits are immune,
		// and a failed build exercises the multiplexer's failure path
		// (coalesced waiters wake and retry, repeated failures arm the
		// negative cache).
		orig := build
		build = func() (any, int64, error) {
			if r.inj.Should(chaos.StorageFailure) {
				return nil, 0, fmt.Errorf("injected storage-client construction failure")
			}
			return orig()
		}
	}
	var start time.Duration
	if r.trace != 0 {
		start = r.tracer.Now()
	}
	v, out, err := r.getCached(ctx, callee, argsKey, build)
	if r.trace != 0 {
		// One span per creation attempt, tagged with how it was served —
		// a hit's near-zero span is the §III-D saving made visible.
		r.tracer.Record(obs.Span{
			Trace: r.trace, Name: obs.SpanResourceBuild,
			Fn: r.fn, Container: r.container,
			Detail: callee + " [" + out.String() + "]",
			Start:  start, End: r.tracer.Now(),
		})
	}
	return v, out, err
}

// getCached is GetContext after instrumentation: the cache lookup, or an
// uncached build when multiplexing is off.
func (r *Resources) getCached(ctx context.Context, callee, argsKey string, build func() (any, int64, error)) (any, Outcome, error) {
	if r.cache == nil {
		v, _, err := build()
		if err != nil {
			return nil, OutcomeError, fmt.Errorf("platform: build %s: %w", callee, err)
		}
		return v, OutcomeMiss, nil
	}
	// Borrow the instance for the rest of the invocation: if it is
	// evicted while the handler still holds it, its Closer runs only
	// after the handler returns.
	v, out, release, err := r.cache.Acquire(ctx, multiplex.NewKey(callee, argsKey), build)
	r.borrows.add(release)
	return v, out, err
}

// Invalidate drops the shared instance for (callee, argsKey), reporting
// whether an instance (or a negative entry) was removed. It is the
// handler-feedback half of the failure-aware cache: after a cached
// client errors at use time (stale credentials, dead connection), the
// handler invalidates it so the next creation rebuilds instead of
// reusing a broken instance. An in-flight build is left alone.
func (r *Resources) Invalidate(callee, argsKey string) bool {
	if r.cache == nil {
		return false
	}
	return r.cache.Invalidate(multiplex.NewKey(callee, argsKey))
}

// Result is the outcome of one invocation, with the latency decomposition
// of §IV measured in wall-clock time.
type Result struct {
	// Value is the handler's return value.
	Value any
	// ContainerID identifies the container that served the invocation.
	ContainerID string
	// Cold reports whether a container had to be started.
	Cold bool
	// Sched is the scheduling latency (window wait + dispatch).
	Sched time.Duration
	// ColdStart is the container boot time (zero on warm starts).
	ColdStart time.Duration
	// Queue is the in-container queuing latency: the gap between the
	// container being ready and the handler starting (§IV's queuing
	// component).
	Queue time.Duration
	// Exec is the handler execution time.
	Exec time.Duration
	// Attempts is how many execution attempts the invocation consumed
	// (1 on the happy path; retries after faults add one each, capped at
	// 1+Config.MaxRetries).
	Attempts int
	// TraceID identifies the invocation's trace when the platform runs
	// with a sampling tracer (zero when tracing is off or unsampled).
	TraceID uint64
}

// Total reports the end-to-end latency: the sum of the four reported
// components, matching the paper's §IV decomposition.
func (r Result) Total() time.Duration { return r.Sched + r.ColdStart + r.Queue + r.Exec }

// Config parameterises the live platform.
type Config struct {
	// Mode selects batching (FaaSBatch) or per-invocation (Vanilla).
	Mode Mode
	// DispatchInterval is the Invoke Mapper window (ModeBatch only):
	// windows close on the DispatchInterval grid. With AdaptiveDispatch
	// it becomes the default window cap (see MaxInterval).
	DispatchInterval time.Duration
	// AdaptiveDispatch switches the dispatch controller
	// (internal/dispatch) from the paper's fixed interval to its
	// load-aware mode: a lone arrival on an idle function dispatches
	// immediately instead of waiting out a window, and an EWMA of
	// inter-arrival gaps sizes each window within
	// [MinInterval, MaxInterval]. ModeBatch only; off by default (the
	// paper's fixed interval).
	AdaptiveDispatch bool
	// MinInterval is the adaptive window floor. Zero takes
	// dispatch.DefaultMinInterval (clamped to MaxInterval).
	MinInterval time.Duration
	// MaxInterval is the adaptive window cap. Zero takes
	// DispatchInterval, so switching AdaptiveDispatch on never batches
	// longer than the fixed configuration it replaces.
	MaxInterval time.Duration
	// MaxGroupSize closes a window early, fixed or adaptive, once its
	// group reaches this size. Zero means unbounded groups.
	MaxGroupSize int
	// ColdStart simulates container boot time.
	ColdStart time.Duration
	// KeepAlive retains idle containers before eviction.
	KeepAlive time.Duration
	// Multiplex equips containers with a Resource Multiplexer.
	Multiplex bool
	// Multiplexer tunes each container's Resource Multiplexer: shard
	// count, capacity bound, TTL, stale-while-revalidate window and
	// negative-caching backoff (see multiplex.Config). The zero value
	// takes the cache defaults. Evicted instances implementing io.Closer
	// are closed automatically, after any OnEvict hook set here runs.
	// Ignored unless Multiplex is true.
	Multiplexer multiplex.Config
	// MaxConcurrency caps how many invocations expand inside one
	// container; a window group larger than the cap splits across
	// containers (Knative-style containerConcurrency). Zero means
	// unlimited — the paper stuffs the whole group into one container.
	MaxConcurrency int
	// InvokeTimeout bounds one handler execution attempt. A handler
	// exceeding it fails with a deadline error while the rest of its
	// batch completes normally — without it, one hung handler wedges its
	// whole group and Close (the paper's single-container group mapping
	// concentrates that risk). Zero means no deadline.
	InvokeTimeout time.Duration
	// MaxRetries is how many extra attempts a failed invocation receives
	// before its error is surfaced. Retried invocations re-batch into a
	// later dispatch window (at most 1+MaxRetries attempts; the final
	// outcome reports Result.Attempts). Zero disables retries.
	MaxRetries int
	// RetryBackoff is the base delay before a retry re-enters the
	// window, doubled on every further attempt (exponential backoff).
	// Zero re-batches immediately into the next window.
	RetryBackoff time.Duration
	// DrainTimeout bounds Close: in-flight windows and retries must
	// drain within it, else Close reports an error. Zero waits forever.
	// CloseContext ignores it — the caller's context is the one deadline.
	DrainTimeout time.Duration
	// WorkerID is this platform's identity in a multi-worker fleet
	// (internal/router): echoed in invoke responses and the /healthz
	// capacity report, so the router can attribute work truthfully.
	// Empty means standalone.
	WorkerID string
	// Capacity is the concurrency capacity advertised to the routing
	// tier via /healthz (worker-initiated signals, Hiku-style). Zero
	// means unbounded/unknown. It is advisory: the platform itself does
	// not enforce it.
	Capacity int
	// Chaos optionally injects seeded faults (boot failures, container
	// crashes, handler error/panic/hang, slow cold starts, storage
	// construction failures). Nil — the default — injects nothing.
	Chaos *chaos.Injector
	// Tracer records per-invocation lifecycle spans (obs.NewWallTracer).
	// Nil — the default — disables tracing; the disabled hot path adds no
	// allocations.
	Tracer *obs.Tracer
	// SLOs declares per-function service-level objectives, evaluated with
	// multi-window burn rates (internal/slo) and exported on /metrics.
	// Empty disables SLO tracking.
	SLOs []slo.Objective
	// SLOWindows overrides the burn-rate window ladder (production-scale
	// defaults when zero). Scenario runs pass slo.ScaledWindows so a
	// compressed run is judged with the same geometry.
	SLOWindows slo.Windows
	// Logger receives the platform's structured logs (dispatch decisions,
	// container lifecycle, fault and retry events), correlated by trace
	// ID. Nil discards everything.
	Logger *slog.Logger
}

// DefaultConfig returns paper-like live defaults (cold starts scaled down
// so examples run snappily).
func DefaultConfig() Config {
	return Config{
		Mode:             ModeBatch,
		DispatchInterval: 200 * time.Millisecond,
		ColdStart:        100 * time.Millisecond,
		KeepAlive:        2 * time.Minute,
		Multiplex:        true,
	}
}

// Stats is a snapshot of platform counters.
type Stats struct {
	// Submitted counts invocations accepted by Invoke. At quiescence
	// Submitted == Invocations + Canceled: every accepted invocation
	// completes exactly once (possibly as a failure) or is dropped
	// because its caller's context ended while it waited — never
	// silently disappears.
	Submitted int64
	// Canceled counts invocations dropped before execution because their
	// context was already done at window close (or before a retry
	// re-batched). Their callers had stopped listening; executing the
	// handler anyway would burn a batch slot for nobody.
	Canceled int64
	// Invocations counts completed invocations (successes and final
	// failures alike).
	Invocations int64
	// Failures counts invocations whose final outcome was an error after
	// the retry budget was exhausted.
	Failures int64
	// Retries counts extra execution attempts granted after failures.
	Retries int64
	// Timeouts counts handler attempts killed by InvokeTimeout.
	Timeouts int64
	// Panics counts handler attempts that panicked (recovered).
	Panics int64
	// Crashes counts containers lost to injected mid-batch crashes.
	Crashes int64
	// BootFailures counts container boots that failed and were retried.
	BootFailures int64
	// Groups counts dispatched batches (ModeBatch).
	Groups int64
	// FastPathDispatches counts adaptive idle fast-path dispatches: lone
	// arrivals sent straight to a container because no batching
	// opportunity existed.
	FastPathDispatches int64
	// EarlyCloses counts windows, fixed or adaptive, closed early because
	// their group reached MaxGroupSize.
	EarlyCloses int64
	// WindowDispatches counts adaptive windows closed by their deadline
	// (fixed windows are not counted).
	WindowDispatches int64
	// DispatchWindowMicros is the most recently chosen dispatch window,
	// in microseconds: the interval in fixed mode (a gauge; zero until
	// the first ModeBatch arrival).
	DispatchWindowMicros int64
	// ContainersCreated counts cold starts.
	ContainersCreated int64
	// WarmStarts counts container reuses.
	WarmStarts int64
	// LiveContainers counts containers currently alive.
	LiveContainers int
	// Multiplexer aggregates the containers' cache statistics.
	Multiplexer multiplex.Stats
}

// container is a live worker: a logical container backed by goroutines.
type container struct {
	id        string
	fn        string
	resources *Resources
	active    int
	lastIdle  time.Time
}

// function is one registered function's state. Its mutex is the
// platform's sharding unit: it guards this function's batching and
// container state, so concurrent Invokes on different functions never
// contend on a lock (DESIGN.md §14).
type function struct {
	name    string
	handler Handler

	// mu guards everything below.
	mu      sync.Mutex
	warm    []*container
	pending []*pendingCall
	all     []*container
	// deadline is the wall-clock close of the function's open window
	// (zero when no window is open).
	deadline time.Time
	// ctrl is this function's window controller (nil in ModeVanilla).
	// dispatch.Controller is not safe for concurrent use; mu serialises
	// it — giving each function its own controller is what lets the
	// shards run lock-independent.
	ctrl *dispatch.Controller
}

// pendingCall is an invocation waiting for its window.
type pendingCall struct {
	ctx     context.Context
	payload json.RawMessage
	arrive  time.Time
	done    chan outcome
	// attempts counts execution attempts already consumed; a call retries
	// while attempts <= Config.MaxRetries.
	attempts int
	// trace is the invocation's trace ID (zero when untraced). Retries
	// keep the ID, so every attempt's spans land on one trace.
	trace uint64
}

// outcome carries a finished invocation back to its caller.
type outcome struct {
	res Result
	err error
}

// counters is the platform's internal statistics block: one atomic per
// Stats field, so the invoke hot path records without taking any lock.
// Stats() assembles the public snapshot from loads.
type counters struct {
	submitted            atomic.Int64
	canceled             atomic.Int64
	invocations          atomic.Int64
	failures             atomic.Int64
	retries              atomic.Int64
	timeouts             atomic.Int64
	panics               atomic.Int64
	crashes              atomic.Int64
	bootFailures         atomic.Int64
	groups               atomic.Int64
	fastPathDispatches   atomic.Int64
	earlyCloses          atomic.Int64
	windowDispatches     atomic.Int64
	dispatchWindowMicros atomic.Int64
	containersCreated    atomic.Int64
	warmStarts           atomic.Int64
	liveContainers       atomic.Int64
}

// Platform is the live FaaSBatch runtime.
type Platform struct {
	cfg Config

	// Observability: tracer (nil when disabled), labeled histograms, SLO
	// burn-rate tracker (nil when no objectives are configured) and the
	// structured logger (never nil; obs.Nop() by default).
	tracer  *obs.Tracer
	metrics *obs.Metrics
	slos    *slo.Tracker
	logger  *slog.Logger

	// fns is the function registry: a copy-on-write map swapped under mu
	// by Register and loaded lock-free by the invoke hot path. Each
	// *function carries its own mutex (the shard); the map itself is
	// immutable once published.
	fns atomic.Pointer[map[string]*function]

	// mu guards lifecycle state only — readiness, registration swaps,
	// the retired-multiplexer fold and the Close transition. The invoke
	// hot path never takes it.
	mu      sync.Mutex
	ready   bool
	retired multiplex.Stats

	closed atomic.Bool
	seq    atomic.Int64
	ctr    counters

	// Dispatch (ModeBatch). Each function gets its own controller (built
	// from dcfg at Register); the platform feeds wall-clock offsets from
	// epoch, which also anchors the fixed-mode window grid. kick
	// (buffered 1) wakes windowLoop when an arrival opens an earlier
	// window.
	dcfg  dispatch.Config
	epoch time.Time
	kick  chan struct{}

	stopTicker chan struct{}
	wg         sync.WaitGroup
}

// fnsAll returns the current registry snapshot (immutable).
func (p *Platform) fnsAll() map[string]*function { return *p.fns.Load() }

// lookup resolves a function name without locking.
func (p *Platform) lookup(fn string) *function { return (*p.fns.Load())[fn] }

// New starts a platform. Close must be called to release its dispatcher.
// The platform starts not ready: call SetReady(true) once registration
// completes so /healthz reports ok (Invoke itself works regardless).
func New(cfg Config) (*Platform, error) {
	if cfg.Mode != ModeBatch && cfg.Mode != ModeVanilla {
		return nil, fmt.Errorf("platform: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Mode == ModeBatch && cfg.DispatchInterval <= 0 {
		return nil, fmt.Errorf("platform: dispatch interval must be positive, got %v", cfg.DispatchInterval)
	}
	if cfg.MaxGroupSize < 0 {
		return nil, fmt.Errorf("platform: max group size must be non-negative, got %d", cfg.MaxGroupSize)
	}
	dcfg := dispatch.Config{
		Fixed:        !cfg.AdaptiveDispatch,
		MinInterval:  cfg.MinInterval,
		MaxInterval:  cfg.MaxInterval,
		MaxGroupSize: cfg.MaxGroupSize,
	}.WithInterval(cfg.DispatchInterval)
	if cfg.Mode == ModeBatch {
		// Each function gets its own controller at Register; validate the
		// shared configuration once here.
		if err := dcfg.Validate(); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
	}
	if cfg.ColdStart < 0 {
		return nil, fmt.Errorf("platform: cold start must be non-negative, got %v", cfg.ColdStart)
	}
	if cfg.KeepAlive <= 0 {
		return nil, fmt.Errorf("platform: keep-alive must be positive, got %v", cfg.KeepAlive)
	}
	if cfg.MaxConcurrency < 0 {
		return nil, fmt.Errorf("platform: max concurrency must be non-negative, got %d", cfg.MaxConcurrency)
	}
	if cfg.InvokeTimeout < 0 {
		return nil, fmt.Errorf("platform: invoke timeout must be non-negative, got %v", cfg.InvokeTimeout)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("platform: max retries must be non-negative, got %d", cfg.MaxRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("platform: retry backoff must be non-negative, got %v", cfg.RetryBackoff)
	}
	if cfg.DrainTimeout < 0 {
		return nil, fmt.Errorf("platform: drain timeout must be non-negative, got %v", cfg.DrainTimeout)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("platform: capacity must be non-negative, got %d", cfg.Capacity)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	var slos *slo.Tracker
	if len(cfg.SLOs) > 0 {
		win := cfg.SLOWindows
		if win == (slo.Windows{}) {
			win = slo.DefaultWindows()
		}
		var err error
		slos, err = slo.NewTracker(win, cfg.SLOs)
		if err != nil {
			return nil, err
		}
	}
	p := &Platform{
		cfg:        cfg,
		tracer:     cfg.Tracer,
		metrics:    obs.NewMetrics(),
		slos:       slos,
		logger:     logger,
		dcfg:       dcfg,
		epoch:      time.Now(),
		kick:       make(chan struct{}, 1),
		stopTicker: make(chan struct{}),
	}
	empty := make(map[string]*function)
	p.fns.Store(&empty)
	p.logger.Info("platform started",
		"mode", cfg.Mode.String(),
		"interval", cfg.DispatchInterval,
		"adaptive", cfg.Mode == ModeBatch && cfg.AdaptiveDispatch,
		"multiplex", cfg.Multiplex,
		"tracing", cfg.Tracer != nil)
	if cfg.Mode == ModeBatch {
		p.wg.Add(1)
		go p.windowLoop()
	}
	// Eviction runs on its own timer in every mode: Vanilla has no
	// dispatch loop to piggyback on (the pre-fix bug — idle Vanilla
	// containers outlived KeepAlive until Close), and windows close only
	// when calls are pending.
	p.wg.Add(1)
	go p.evictLoop()
	return p, nil
}

// logOn reports whether the logger would emit at level, letting hot paths
// skip attribute construction entirely when logging is off.
func (p *Platform) logOn(level slog.Level) bool {
	return p.logger.Enabled(context.Background(), level)
}

// Metrics exposes the platform's histogram registry (never nil).
func (p *Platform) Metrics() *obs.Metrics { return p.metrics }

// Tracer exposes the platform's tracer (nil when tracing is disabled).
func (p *Platform) Tracer() *obs.Tracer { return p.tracer }

// SLOs exposes the platform's SLO tracker (nil when no objectives are
// configured; the nil tracker is safe to use).
func (p *Platform) SLOs() *slo.Tracker { return p.slos }

// SLOStatuses evaluates the configured objectives at the current
// platform uptime.
func (p *Platform) SLOStatuses() []slo.Status {
	return p.slos.Evaluate(time.Since(p.epoch))
}

// WriteSLOMetrics appends the SLO burn-rate gauges to a /metrics
// exposition (nothing when no objectives are configured).
func (p *Platform) WriteSLOMetrics(w io.Writer) {
	p.slos.WriteMetrics(w, "faasbatch", time.Since(p.epoch))
}

// Register adds a function. Registering a duplicate or empty name fails.
func (p *Platform) Register(name string, h Handler) error {
	if name == "" || h == nil {
		return fmt.Errorf("platform: register requires a name and a handler")
	}
	f := &function{name: name, handler: h}
	if p.cfg.Mode == ModeBatch {
		ctrl, err := dispatch.New(p.dcfg)
		if err != nil {
			// Unreachable: New validated dcfg.
			return fmt.Errorf("platform: %w", err)
		}
		f.ctrl = ctrl
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("platform: closed")
	}
	old := *p.fns.Load()
	if _, ok := old[name]; ok {
		return fmt.Errorf("platform: function %q already registered", name)
	}
	next := make(map[string]*function, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = f
	p.fns.Store(&next)
	return nil
}

// SetReady flips the platform's readiness signal. A platform starts not
// ready: flip it true once function registration completes, so /healthz
// (and the routing tier's prober behind it) sees a truthful signal
// instead of a worker that would reject every invocation with "unknown
// function". Draining overrides readiness regardless of this flag.
func (p *Platform) SetReady(ready bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ready = ready
}

// Ready reports whether the platform is accepting work: marked ready and
// not draining.
func (p *Platform) Ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ready && !p.closed.Load()
}

// Draining reports whether Close has begun.
func (p *Platform) Draining() bool {
	return p.closed.Load()
}

// WorkerID reports the platform's fleet identity ("" when standalone).
func (p *Platform) WorkerID() string { return p.cfg.WorkerID }

// Capacity reports the advertised concurrency capacity (0 = unbounded).
func (p *Platform) Capacity() int { return p.cfg.Capacity }

// Inflight counts invocations accepted but not yet completed (canceled
// calls dropped before execution no longer count).
func (p *Platform) Inflight() int64 {
	return p.ctr.submitted.Load() - p.ctr.invocations.Load() - p.ctr.canceled.Load()
}

// Invoke runs one invocation and blocks until it completes. In ModeBatch
// the call waits for its window, travels with its group, and expands
// inside the group's container.
func (p *Platform) Invoke(ctx context.Context, fn string, payload json.RawMessage) (Result, error) {
	return p.InvokeWithTrace(ctx, fn, payload, 0)
}

// InvokeWithTrace is Invoke continuing a caller-supplied trace: a
// non-zero parent (from a traceparent header minted by the router or an
// external tracer) is adopted as this invocation's trace ID, so the
// worker's scheduling/cold-start/queuing/execution spans join the
// caller's distributed trace. Zero parent mints locally (sampled).
func (p *Platform) InvokeWithTrace(ctx context.Context, fn string, payload json.RawMessage, parent uint64) (Result, error) {
	f := p.lookup(fn)
	if f == nil {
		if p.closed.Load() {
			return Result{}, fmt.Errorf("platform: closed")
		}
		return Result{}, fmt.Errorf("platform: unknown function %q", fn)
	}
	call := getPendingCall()
	call.ctx = ctx
	call.payload = payload
	call.arrive = time.Now()
	call.trace = p.tracer.BeginWith(parent)

	// Submission holds only this function's shard lock: Invokes on
	// different functions never contend. The closed check under f.mu
	// pairs with CloseContext's handshake over every shard — a call that
	// saw closed==false here has its wg.Add ordered before Close's Wait.
	var run *callGroup
	f.mu.Lock()
	if p.closed.Load() {
		f.mu.Unlock()
		putPendingCall(call)
		return Result{}, fmt.Errorf("platform: closed")
	}
	p.ctr.submitted.Add(1)
	switch {
	case p.cfg.Mode == ModeVanilla:
		p.wg.Add(1)
		run = getGroup(1)
		run.calls = append(run.calls, call)
	default:
		if g := p.submitLocked(f, call, false); g != nil {
			// Fast path or early close: dispatch without waiting for the
			// window loop.
			p.wg.Add(1)
			run = g
		}
	}
	f.mu.Unlock()
	if run != nil {
		// Run the group inline in this goroutine: the caller blocks on
		// call.done anyway, so a hand-off goroutine would add a spawn and
		// teardown to every fast-path dispatch for nothing.
		p.runGroup(f, run.calls)
		putGroup(run)
		p.wg.Done()
	}
	select {
	case out := <-call.done:
		res, err := out.res, out.err
		// Happy path: the single outcome was received, so the call (and
		// its buffered channel) is provably quiescent — recycle it. The
		// ctx.Done path below must NOT recycle: finish may still deliver
		// to this call's channel.
		putPendingCall(call)
		return res, err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("platform: invoke %s: %w", fn, ctx.Err())
	}
}

// enqueueLocked appends a call to f's pending queue, sizing the backing
// array from the dispatch estimator on first use so the steady state
// appends without growing. Caller holds f.mu.
func (p *Platform) enqueueLocked(f *function, call *pendingCall) {
	if f.pending == nil {
		f.pending = make([]*pendingCall, 0, max(8, f.ctrl.ExpectedGroup(f.name)))
	}
	f.pending = append(f.pending, call)
}

// submitLocked enqueues one call and routes it through f's dispatch
// controller: a fresh arrival through Arrive, a retry through EnsureOpen
// (it rides a window without skewing the arrival-rate estimate). It
// returns a group to dispatch now (idle fast-path or early close), or
// nil when the call waits for its window. Caller holds f.mu.
func (p *Platform) submitLocked(f *function, call *pendingCall, retry bool) *callGroup {
	now := time.Since(p.epoch)
	var d dispatch.Decision
	if retry {
		p.enqueueLocked(f, call)
		d = f.ctrl.EnsureOpen(f.name, now)
	} else {
		idle := len(f.pending) == 0 && !p.busyLocked(f)
		p.enqueueLocked(f, call)
		d = f.ctrl.Arrive(f.name, now, idle)
	}
	p.ctr.dispatchWindowMicros.Store(d.Window.Microseconds())
	switch d.Action {
	case dispatch.ActionFastPath:
		p.ctr.fastPathDispatches.Add(1)
	case dispatch.ActionEarlyClose:
		p.ctr.earlyCloses.Add(1)
	default:
		// The controller may extend an open window's deadline as the
		// arrival estimate densifies; a stale-armed loop timer just
		// re-arms when it finds the deadline still in the future.
		wasIdle := f.deadline.IsZero()
		f.deadline = p.epoch.Add(d.Deadline)
		if wasIdle {
			p.kickLoop()
		}
		return nil
	}
	f.deadline = time.Time{}
	group := p.claimPendingLocked(f)
	if group == nil {
		return nil
	}
	p.recordWindowSpans(f, group.calls, d.Window, d.Action.String())
	return group
}

// busyLocked reports whether any container of f is currently executing —
// a batching opportunity an arrival could wait to share. Caller holds
// f.mu.
func (p *Platform) busyLocked(f *function) bool {
	for _, c := range f.all {
		if c.active > 0 {
			return true
		}
	}
	return false
}

// kickLoop wakes windowLoop to re-arm its timer (an arrival opened a
// window that may close before the one the loop is sleeping on).
func (p *Platform) kickLoop() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// windowLoop is the Invoke Mapper: it sleeps until the earliest
// per-function window deadline, re-armed whenever an arrival opens an
// earlier window. Fixed-mode deadlines all lie on the DispatchInterval
// grid, so one wake closes every open window together, as a ticker
// would. The timer is created fresh each iteration (no Reset races).
func (p *Platform) windowLoop() {
	defer p.wg.Done()
	for {
		var next time.Time
		for _, f := range p.fnsAll() {
			f.mu.Lock()
			d := f.deadline
			f.mu.Unlock()
			if !d.IsZero() && (next.IsZero() || d.Before(next)) {
				next = d
			}
		}
		var (
			timer  *time.Timer
			timerC <-chan time.Time
		)
		if !next.IsZero() {
			timer = time.NewTimer(max(time.Until(next), 0))
			timerC = timer.C
		}
		select {
		case <-timerC:
			p.closeWindows(false)
		case <-p.kick:
			// Re-scan deadlines and re-arm.
		case <-p.stopTicker:
			if timer != nil {
				timer.Stop()
			}
			p.closeWindows(true)
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// closeWindows dispatches every window whose deadline has passed, or
// with flush (at Close) every pending group, each on its own goroutine.
func (p *Platform) closeWindows(flush bool) {
	now := time.Now()
	type job struct {
		f  *function
		cg *callGroup
	}
	var jobs []job
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		if !flush && (f.deadline.IsZero() || f.deadline.After(now)) {
			f.mu.Unlock()
			continue
		}
		f.deadline = time.Time{}
		window := f.ctrl.Window(f.name)
		f.ctrl.WindowClosed(f.name)
		cg := p.claimPendingLocked(f)
		if cg == nil {
			f.mu.Unlock()
			continue
		}
		if !flush {
			if !p.dcfg.Fixed {
				p.ctr.windowDispatches.Add(1)
			}
			p.recordWindowSpans(f, cg.calls, window, "window")
		}
		f.mu.Unlock()
		jobs = append(jobs, job{f: f, cg: cg})
	}
	for _, j := range jobs {
		j := j
		if p.logOn(slog.LevelDebug) {
			p.logger.Debug("dispatch window", "fn", j.f.name, "group", len(j.cg.calls))
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.runGroup(j.f, j.cg.calls)
			putGroup(j.cg)
		}()
	}
}

// claimPendingLocked takes f's pending group into a pooled callGroup,
// dropping calls whose context ended while they waited: a canceled
// call's caller has already returned, so executing it would burn a
// batch slot for nobody. The pending slice itself is retained (reset to
// length zero) so the next window appends into warm memory. Returns nil
// when nothing survives. Caller holds f.mu.
func (p *Platform) claimPendingLocked(f *function) *callGroup {
	if len(f.pending) == 0 {
		return nil
	}
	group := getGroup(len(f.pending))
	for _, call := range f.pending {
		if call.ctx.Err() != nil {
			// Dropped, not recycled: the caller's select may still race
			// on call.done (see pool.go).
			p.ctr.canceled.Add(1)
			if p.logOn(slog.LevelDebug) {
				p.logger.Debug("canceled call dropped", "fn", f.name, "trace", call.trace)
			}
			continue
		}
		group.calls = append(group.calls, call)
	}
	for i := range f.pending {
		f.pending[i] = nil
	}
	f.pending = f.pending[:0]
	if len(group.calls) == 0 {
		putGroup(group)
		return nil
	}
	return group
}

// recordWindowSpans stamps one dispatch-window span per traced group
// member: arrival to window close, tagged with the chosen interval and
// why the window closed.
func (p *Platform) recordWindowSpans(f *function, group []*pendingCall, window time.Duration, reason string) {
	if p.tracer == nil {
		return
	}
	end := p.tracer.Now()
	detail := fmt.Sprintf("window %v [%s]", window, reason)
	for _, call := range group {
		if call.trace == 0 {
			continue
		}
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanDispatchWindow, Fn: f.name,
			Attempt: call.attempts + 1, Detail: detail,
			Start: p.tracer.Stamp(call.arrive), End: end,
		})
	}
}

// evictLoop retires idle warm containers past KeepAlive on its own
// cadence, decoupled from dispatch: Vanilla mode has no dispatch loop at
// all, and windows close only when calls are pending, so eviction can
// ride neither.
func (p *Platform) evictLoop() {
	defer p.wg.Done()
	period := p.cfg.KeepAlive / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.evictIdle()
		case <-p.stopTicker:
			return
		}
	}
}

// evictIdle drops warm containers idle past the keep-alive, one shard at
// a time.
func (p *Platform) evictIdle() {
	cutoff := time.Now().Add(-p.cfg.KeepAlive)
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		kept := f.warm[:0]
		for _, c := range f.warm {
			if c.lastIdle.Before(cutoff) {
				if p.logOn(slog.LevelDebug) {
					p.logger.Debug("container evicted", "container", c.id, "fn", f.name, "idle", time.Since(c.lastIdle))
				}
				p.retireLocked(f, c)
				continue
			}
			kept = append(kept, c)
		}
		for i := len(kept); i < len(f.warm); i++ {
			f.warm[i] = nil
		}
		f.warm = kept
		f.mu.Unlock()
	}
}

// retireLocked removes a container from the function's records. Caller
// holds f.mu; the retired-stats fold nests p.mu inside it (the only
// nesting order in the platform — nothing acquires a shard while holding
// p.mu).
func (p *Platform) retireLocked(f *function, c *container) {
	for i, other := range f.all {
		if other == c {
			f.all = append(f.all[:i], f.all[i+1:]...)
			break
		}
	}
	if c.resources != nil && c.resources.cache != nil {
		st := c.resources.cache.Stats()
		// Fold the retired cache's counters into the platform totals, but
		// not its gauges — its live instances and shards are about to be
		// released by Close (which fires the Closer hook per instance).
		st.LiveInstances, st.BytesLive = 0, 0
		st.Shards, st.MaxShardOccupancy = 0, 0
		p.mu.Lock()
		p.retired.Add(st)
		p.mu.Unlock()
		c.resources.cache.Close()
	}
	p.ctr.liveContainers.Add(-1)
}

// containerCacheConfig derives one container's multiplexer config from
// Config.Multiplexer, layering the platform's instance-lifecycle hook on
// top of any user OnEvict: every instance leaving a cache (evicted,
// expired, replaced by a refresh, invalidated or released at container
// retirement) that implements io.Closer is closed, so cached clients
// release their sockets deterministically. The cache defers this hook
// for instances a running invocation borrowed (see Resources.GetContext),
// so the close lands after the last borrowing handler returns.
func (p *Platform) containerCacheConfig() multiplex.Config {
	mcfg := p.cfg.Multiplexer
	user := mcfg.OnEvict
	mcfg.OnEvict = func(k multiplex.Key, inst any, bytes int64) {
		if user != nil {
			user(k, inst, bytes)
		}
		if closer, ok := inst.(io.Closer); ok {
			if err := closer.Close(); err != nil && p.logOn(slog.LevelDebug) {
				p.logger.Debug("evicted client close failed", "callee", k.Callee, "err", err)
			}
		}
	}
	return mcfg
}

// acquire obtains a container for f: warm if available, else cold. The
// warm path is allocation-free: a pop from the shard's warm stack plus
// one atomic counter.
func (p *Platform) acquire(f *function) (*container, bool) {
	f.mu.Lock()
	if n := len(f.warm); n > 0 {
		c := f.warm[n-1]
		f.warm[n-1] = nil
		f.warm = f.warm[:n-1]
		c.active++
		f.mu.Unlock()
		p.ctr.warmStarts.Add(1)
		return c, false
	}
	c := &container{id: fmt.Sprintf("live-%04d-%s", p.seq.Add(1), f.name), fn: f.name}
	res := &Resources{inj: p.cfg.Chaos}
	if p.cfg.Multiplex {
		res.cache = multiplex.New(p.containerCacheConfig())
	}
	c.resources = res
	c.active++
	f.all = append(f.all, c)
	f.mu.Unlock()
	p.ctr.containersCreated.Add(1)
	p.ctr.liveContainers.Add(1)
	// Simulated boot outside the lock. Injected boot failures cost one
	// boot latency each and restart the boot; an injected slow cold start
	// inflates the final boot.
	boot := p.cfg.ColdStart
	for p.cfg.Chaos.Should(chaos.BootFailure) {
		p.ctr.bootFailures.Add(1)
		p.logger.Warn("container boot failed, retrying", "container", c.id, "fn", f.name)
		if boot > 0 {
			time.Sleep(boot)
		}
	}
	if p.cfg.Chaos.Should(chaos.SlowColdStart) {
		boot = time.Duration(float64(boot) * p.cfg.Chaos.ColdStartFactor())
		p.logger.Warn("slow cold start injected", "container", c.id, "fn", f.name, "boot", boot)
	}
	if boot > 0 {
		time.Sleep(boot)
	}
	if p.logOn(slog.LevelDebug) {
		p.logger.Debug("container created", "container", c.id, "fn", f.name, "boot", boot)
	}
	return c, true
}

// release parks the container back into the warm pool once it drains.
func (p *Platform) release(f *function, c *container, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c.active -= n
	if c.active <= 0 {
		c.active = 0
		c.lastIdle = time.Now()
		f.warm = append(f.warm, c)
	}
}

// runGroup is the Inline-Parallel Producer: one container for the whole
// group, every invocation a goroutine inside it. Groups beyond the
// per-container concurrency cap split across containers.
func (p *Platform) runGroup(f *function, group []*pendingCall) {
	p.metrics.ObserveGroupSize(len(group))
	if max := p.cfg.MaxConcurrency; max > 0 && len(group) > max {
		var wg sync.WaitGroup
		for start := 0; start < len(group); start += max {
			end := start + max
			if end > len(group) {
				end = len(group)
			}
			chunk := group[start:end]
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.runGroupOne(f, chunk)
			}()
		}
		wg.Wait()
		return
	}
	p.runGroupOne(f, group)
}

// runGroupOne expands one (cap-respecting) group inside one container,
// recording each member's lifecycle spans: scheduling (arrival to
// dispatch), cold start, in-container queuing (container ready to handler
// start) and one execution span per attempt. Span bounds are stamped from
// the same wall-clock instants as the Result components, so an exported
// trace reconstructs the §IV decomposition exactly.
func (p *Platform) runGroupOne(f *function, group []*pendingCall) {
	dispatch := time.Now()
	c, cold := p.acquire(f)
	ready := time.Now()
	coldDur := time.Duration(0)
	if cold {
		coldDur = ready.Sub(dispatch)
	}
	dispatchStamp := p.tracer.Stamp(dispatch)
	readyStamp := p.tracer.Stamp(ready)
	for _, call := range group {
		if call.trace == 0 {
			continue
		}
		attempt := call.attempts + 1
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanScheduling, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: p.tracer.Stamp(call.arrive), End: dispatchStamp,
		})
		if cold {
			p.tracer.Record(obs.Span{
				Trace: call.trace, Name: obs.SpanColdStart, Fn: f.name, Container: c.id,
				Attempt: attempt, Start: dispatchStamp, End: readyStamp,
			})
		}
	}
	p.ctr.groups.Add(1)
	if len(group) > 1 {
		f.mu.Lock()
		c.active += len(group) - 1 // acquire already counted one
		f.mu.Unlock()
	}

	// Injected mid-batch container crash: the whole group fails at once —
	// the blast radius of the paper's one-container-per-group mapping.
	// The container is retired (not parked warm), so the next window
	// boots a replacement; each member retries or surfaces the crash.
	if p.cfg.Chaos.Should(chaos.ContainerCrash) {
		crashErr := fmt.Errorf("platform: container %s crashed", c.id)
		p.ctr.crashes.Add(1)
		f.mu.Lock()
		c.active = 0
		p.retireLocked(f, c)
		f.mu.Unlock()
		p.logger.Warn("container crashed mid-batch", "container", c.id, "fn", f.name, "group", len(group))
		for _, call := range group {
			res := Result{ContainerID: c.id, Cold: cold, Sched: dispatch.Sub(call.arrive), ColdStart: coldDur, TraceID: call.trace}
			p.finish(f, call, res, crashErr)
		}
		return
	}

	if len(group) == 1 {
		// The hot path: a single-call group runs in the current goroutine
		// — no per-call spawn, no WaitGroup.
		p.runCall(f, c, group[0], cold, dispatch, ready, coldDur, readyStamp)
	} else {
		p.runCallsParallel(f, c, group, cold, dispatch, ready, coldDur, readyStamp)
	}
	p.release(f, c, len(group))
}

// runCallsParallel expands a multi-call group, one goroutine per member.
// It lives apart from runGroupOne so the goroutine closure's captures are
// heap-moved only when a real multi-call group runs — captured in the
// caller, they would cost the single-call hot path an allocation per
// invoke whether or not this branch was taken.
func (p *Platform) runCallsParallel(f *function, c *container, group []*pendingCall, cold bool, dispatch, ready time.Time, coldDur time.Duration, readyStamp time.Duration) {
	var wg sync.WaitGroup
	for _, call := range group {
		call := call
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runCall(f, c, call, cold, dispatch, ready, coldDur, readyStamp)
		}()
	}
	wg.Wait()
}

// runCall executes one group member inside its container: pooled
// per-invocation state, the handler attempt, borrow release, spans, and
// settlement through finish.
func (p *Platform) runCall(f *function, c *container, call *pendingCall, cold bool, dispatch, ready time.Time, coldDur time.Duration, readyStamp time.Duration) {
	start := time.Now()
	// Every invocation gets its own multiplexer view: it scopes the
	// resource borrows released below, and on traced calls carries the
	// trace so client builds span on the invocation that paid for them.
	// The view, its borrow set and the Invocation come from a pool;
	// see pool.go for the recycling contract.
	st := getInvState()
	st.res.cache = c.resources.cache
	st.res.inj = c.resources.inj
	st.res.borrows = &st.borrows
	if call.trace != 0 {
		st.res.tracer, st.res.trace = p.tracer, call.trace
		st.res.fn, st.res.container = f.name, c.id
	}
	st.inv.Payload = call.payload
	st.inv.Resources = &st.res
	st.inv.ContainerID = c.id
	value, err, returned := p.runHandler(f, call.ctx, &st.inv)
	// The handler is done with everything it borrowed; deferred
	// eviction closes fire now, before the result is published.
	st.res.borrows.releaseAll()
	end := time.Now()
	if call.trace != 0 {
		attempt := call.attempts + 1
		startStamp := p.tracer.Stamp(start)
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanQueuing, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: readyStamp, End: startStamp,
		})
		p.tracer.Record(obs.Span{
			Trace: call.trace, Name: obs.SpanExecution, Fn: f.name, Container: c.id,
			Attempt: attempt, Start: startStamp, End: p.tracer.Stamp(end),
		})
	}
	out := Result{
		Value:       value,
		ContainerID: c.id,
		Cold:        cold,
		Sched:       dispatch.Sub(call.arrive),
		ColdStart:   coldDur,
		Queue:       start.Sub(ready),
		Exec:        end.Sub(start),
		TraceID:     call.trace,
	}
	if err != nil {
		err = fmt.Errorf("platform: invoke %s: %w", f.name, err)
	}
	p.finish(f, call, out, err)
	if returned {
		// The handler actually returned (it was not abandoned to an
		// InvokeTimeout), so nothing can touch this state again.
		putInvState(st)
	}
}

// runHandler executes one handler attempt, layering on (in order) any
// injected handler faults and the InvokeTimeout deadline. With a deadline
// configured, a handler that never returns costs its group only the
// timeout — the rest of the batch completes and Close still drains —
// instead of wedging the whole group, though its goroutine is abandoned
// until the handler actually returns.
//
// The third result reports whether the handler has really returned by
// the time runHandler does: false on the timeout/cancellation branches,
// where the abandoned handler goroutine may still be running and
// touching the Invocation — the caller must not recycle per-attempt
// state then.
func (p *Platform) runHandler(f *function, ctx context.Context, inv *Invocation) (any, error, bool) {
	h := f.handler
	if inj := p.cfg.Chaos; inj != nil {
		switch {
		case inj.Should(chaos.HandlerError):
			h = func(context.Context, *Invocation) (any, error) {
				return nil, errors.New("injected handler error")
			}
		case inj.Should(chaos.HandlerPanic):
			h = func(context.Context, *Invocation) (any, error) {
				panic("injected handler panic")
			}
		case inj.Should(chaos.HandlerHang):
			orig := h
			hang := inj.HangDuration()
			h = func(ctx context.Context, inv *Invocation) (any, error) {
				// Bounded hang: long enough to trip InvokeTimeout, short
				// enough that abandoned goroutines settle in tests.
				select {
				case <-time.After(hang):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return orig(ctx, inv)
			}
		}
	}
	if p.cfg.InvokeTimeout <= 0 {
		value, err := safeInvoke(h, ctx, inv)
		p.notePanic(err)
		return value, err, true
	}
	tctx, cancel := context.WithTimeout(ctx, p.cfg.InvokeTimeout)
	defer cancel()
	type attempt struct {
		value any
		err   error
	}
	ch := make(chan attempt, 1)
	go func() {
		v, err := safeInvoke(h, tctx, inv)
		ch <- attempt{v, err}
	}()
	select {
	case a := <-ch:
		p.notePanic(a.err)
		return a.value, a.err, true
	case <-tctx.Done():
		if ctx.Err() != nil {
			// The caller's own context ended; not an invoke timeout.
			return nil, ctx.Err(), false
		}
		p.ctr.timeouts.Add(1)
		return nil, fmt.Errorf("handler exceeded invoke timeout %v: %w",
			p.cfg.InvokeTimeout, context.DeadlineExceeded), false
	}
}

// notePanic counts a recovered handler panic. The nil check comes before
// the target declaration: errors.As forces its target to the heap, and
// returning first keeps the happy path allocation-free.
func (p *Platform) notePanic(err error) {
	if err == nil {
		return
	}
	var pe panicError
	if errors.As(err, &pe) {
		p.ctr.panics.Add(1)
	}
}

// finish settles one attempt: a failed attempt with retry budget left
// re-enters a later dispatch window (with exponential backoff); anything
// else completes the invocation exactly once.
func (p *Platform) finish(f *function, call *pendingCall, res Result, err error) {
	call.attempts++
	if err != nil && call.attempts <= p.cfg.MaxRetries && call.ctx.Err() == nil {
		retry := false
		f.mu.Lock()
		if !p.closed.Load() {
			// Add under the shard lock while open: CloseContext sets
			// closed and then handshakes every shard before Wait, so this
			// Add is ordered before that Wait.
			p.wg.Add(1)
			retry = true
		}
		f.mu.Unlock()
		if retry {
			p.ctr.retries.Add(1)
			if p.logOn(slog.LevelInfo) {
				p.logger.Info("retrying invocation",
					"fn", f.name, "attempt", call.attempts, "trace", call.trace, "err", err)
			}
			go p.retryLater(f, call)
			return
		}
	}
	res.Attempts = call.attempts
	p.ctr.invocations.Add(1)
	if err != nil {
		p.ctr.failures.Add(1)
	}
	if err != nil {
		p.logger.Warn("invocation failed",
			"fn", f.name, "attempts", call.attempts, "trace", call.trace, "err", err)
	}
	p.metrics.ObserveLatency(f.name, obs.SpanScheduling, res.Sched)
	p.metrics.ObserveLatency(f.name, obs.SpanColdStart, res.ColdStart)
	p.metrics.ObserveLatency(f.name, obs.SpanQueuing, res.Queue)
	p.metrics.ObserveLatency(f.name, obs.SpanExecution, res.Exec)
	p.metrics.ObserveLatency(f.name, obs.ComponentEndToEnd, res.Total())
	p.slos.Observe(f.name, res.Total(), err != nil, time.Since(p.epoch))
	call.done <- outcome{res: res, err: err}
}

// retryLater re-batches a failed call into a later dispatch window after
// an exponential backoff. Close wakes sleepers early (stopTicker) and the
// retry then runs directly, so draining never strands a retry. The caller
// has already done p.wg.Add(1).
func (p *Platform) retryLater(f *function, call *pendingCall) {
	defer p.wg.Done()
	if p.cfg.RetryBackoff > 0 {
		backoff := p.cfg.RetryBackoff << uint(call.attempts-1)
		backoffStart := p.tracer.Now()
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-p.stopTicker:
			timer.Stop()
		}
		if call.trace != 0 {
			p.tracer.Record(obs.Span{
				Trace: call.trace, Name: obs.SpanRetryBackoff, Fn: f.name,
				Attempt: call.attempts, Start: backoffStart, End: p.tracer.Now(),
			})
		}
	}
	if call.ctx.Err() != nil {
		// The caller's context ended during the backoff: drop the retry
		// instead of re-batching a call nobody is waiting for. The call
		// is abandoned, not recycled (see pool.go).
		p.ctr.canceled.Add(1)
		if p.logOn(slog.LevelDebug) {
			p.logger.Debug("canceled retry dropped", "fn", f.name, "trace", call.trace)
		}
		return
	}
	if p.cfg.Mode == ModeBatch {
		f.mu.Lock()
		if !p.closed.Load() {
			cg := p.submitLocked(f, call, true)
			f.mu.Unlock()
			if cg != nil {
				// The retry filled its window: run the group now.
				p.runGroup(f, cg.calls)
				putGroup(cg)
			}
			return
		}
		f.mu.Unlock()
	}
	// Vanilla mode, or the platform is draining: run the attempt now.
	cg := getGroup(1)
	cg.calls = append(cg.calls, call)
	p.runGroup(f, cg.calls)
	putGroup(cg)
}

// panicError is a recovered handler panic; its message keeps the
// "handler panicked" shape handlers' callers rely on while letting the
// platform classify panics apart from ordinary errors.
type panicError struct{ v any }

// Error implements error.
func (e panicError) Error() string { return fmt.Sprintf("handler panicked: %v", e.v) }

// safeInvoke runs a handler, converting a panic into an error so one
// misbehaving function cannot take down the whole batch (a real container
// would crash alone; our containers are goroutines).
func safeInvoke(h Handler, ctx context.Context, inv *Invocation) (value any, err error) {
	defer func() {
		if r := recover(); r != nil {
			value = nil
			err = panicError{v: r}
		}
	}()
	return h(ctx, inv)
}

// Functions lists the registered function names, sorted.
func (p *Platform) Functions() []string {
	m := p.fnsAll()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the platform counters, folding in retired
// and live containers' multiplexer statistics.
func (p *Platform) Stats() Stats {
	st := Stats{
		Submitted:            p.ctr.submitted.Load(),
		Canceled:             p.ctr.canceled.Load(),
		Invocations:          p.ctr.invocations.Load(),
		Failures:             p.ctr.failures.Load(),
		Retries:              p.ctr.retries.Load(),
		Timeouts:             p.ctr.timeouts.Load(),
		Panics:               p.ctr.panics.Load(),
		Crashes:              p.ctr.crashes.Load(),
		BootFailures:         p.ctr.bootFailures.Load(),
		Groups:               p.ctr.groups.Load(),
		FastPathDispatches:   p.ctr.fastPathDispatches.Load(),
		EarlyCloses:          p.ctr.earlyCloses.Load(),
		WindowDispatches:     p.ctr.windowDispatches.Load(),
		DispatchWindowMicros: p.ctr.dispatchWindowMicros.Load(),
		ContainersCreated:    p.ctr.containersCreated.Load(),
		WarmStarts:           p.ctr.warmStarts.Load(),
		LiveContainers:       int(p.ctr.liveContainers.Load()),
	}
	p.mu.Lock()
	st.Multiplexer = p.retired
	p.mu.Unlock()
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		for _, c := range f.all {
			if c.resources != nil && c.resources.cache != nil {
				st.Multiplexer.Add(c.resources.cache.Stats())
			}
		}
		f.mu.Unlock()
	}
	return st
}

// Close flushes pending windows, waits for in-flight groups and retries
// to drain, and stops the dispatcher. Invocations submitted after Close
// fail. With DrainTimeout set, Close gives up once the deadline passes
// and reports an error (work may still be in flight).
func (p *Platform) Close() error {
	ctx := context.Background()
	if p.cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.DrainTimeout)
		defer cancel()
	}
	return p.CloseContext(ctx)
}

// CloseContext is Close bounded by the caller's context instead of
// DrainTimeout, so a server shutdown can share one deadline between
// http.Server.Shutdown and the platform drain (cmd/faasgate) rather than
// racing two independent timeouts. A done context gives up the wait and
// reports an error; in-flight work may still be draining behind it.
func (p *Platform) CloseContext(ctx context.Context) error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return nil
	}
	p.closed.Store(true)
	p.mu.Unlock()
	// Shard handshake: acquire and release every function's mutex once.
	// Any Invoke or retry settlement that observed closed==false did its
	// wg.Add inside a shard critical section that strictly precedes this
	// handshake, so the Add is ordered before the Wait below; anything
	// acquiring a shard after its handshake sees closed==true and
	// rejects. Registration after the closed store is rejected under
	// p.mu, so this snapshot covers every shard.
	for _, f := range p.fnsAll() {
		f.mu.Lock()
		//lint:ignore SA2001 the empty critical section is the point: it
		// fences in-flight submissions on this shard.
		f.mu.Unlock()
	}
	// Wakes the dispatcher for its final flush and any backoff sleepers,
	// in every mode.
	close(p.stopTicker)
	if ctx.Done() == nil {
		p.wg.Wait()
		return nil
	}
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("platform: close: drain exceeded its deadline: %w", ctx.Err())
	}
}
