// Package core implements FaaSBatch, the paper's contribution (§III): a
// serverless scheduler that folds concurrent invocations into as few
// containers as possible and spreads them out again inside.
//
// The scheduler combines three modules:
//
//   - Invoke Mapper — listens to the request queue for a fixed dispatch
//     interval (default 0.2 s) and classifies the invocations that arrived
//     within the window into per-function groups: all requests for one
//     function in one window form a single batch.
//   - Inline-Parallel Producer — maps each group to exactly one container
//     (warm when a keep-alive container exists), applies the customer's
//     CPU limit to the container's cpuset, delivers the whole batch with
//     one HTTP request, and expands it: every invocation of the group
//     executes concurrently as a thread inside that single container. The
//     batch request returns only after all invocations complete (§III-C).
//   - Resource Multiplexer — each FaaSBatch container carries the
//     multiplex.Cache, so redundant resource creations (storage clients)
//     are served from cache instead of being rebuilt (§III-D).
package core

import (
	"fmt"
	"sort"
	"time"

	"faasbatch/internal/dispatch"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/node"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
)

// Config parameterises the FaaSBatch scheduler.
type Config struct {
	// Interval is the Invoke Mapper's dispatch interval: requests
	// received within one interval are treated as concurrent (§III-B).
	Interval time.Duration
	// CPULimit is the cpuset cap applied to FaaSBatch containers
	// (<= 0 means unlimited), honouring customer-specified CPU counts.
	CPULimit float64
	// Multiplex enables the Resource Multiplexer inside containers.
	// Disabling it isolates the Invoke Mapper + Inline-Parallel Producer
	// contribution (the ablation in bench_test.go).
	Multiplex bool
	// Multiplexer tunes each container's Resource Multiplexer (shards,
	// capacity bound, TTL, refresh window, negative backoff); the zero
	// value takes the cache defaults. Ignored unless Multiplex is true.
	Multiplexer multiplex.Config
	// HTTPLatency is the cost of the batch-activating HTTP request from
	// the producer to the container (§III-C step 3).
	HTTPLatency time.Duration
	// MaxPendingCreates bounds in-flight container creations per
	// function. When the bound is hit, further groups attach to the
	// pending creation and expand on the container once it boots —
	// the platform's per-function scale-out limit.
	MaxPendingCreates int
	// Prewarm enables predictive pre-warming (extension, off by
	// default): functions that were active within PrewarmHorizon keep a
	// container provisioned ahead of their next group, trimming the
	// cold-start tail that keep-alive eviction would otherwise re-expose
	// on recurring bursts.
	Prewarm bool
	// PrewarmHorizon is how long after its last arrival a function is
	// still considered active for pre-warming.
	PrewarmHorizon time.Duration
	// MaxRetries bounds how many extra scheduling attempts an invocation
	// whose container crashed receives. Retried invocations re-batch into
	// the next dispatch window (the window interval is the backoff), so a
	// crashed group's members ride a replacement container together. An
	// invocation that exhausts the budget completes with Rec.Failed set —
	// at-most-(1+MaxRetries) execution attempts, never silent loss.
	MaxRetries int
	// AdaptiveDispatch switches the dispatch controller
	// (internal/dispatch) from the paper's fixed Interval to its
	// load-aware mode: lone arrivals with no batching opportunity
	// dispatch immediately, and an EWMA arrival-rate tracker sizes each
	// function's window within [MinInterval, MaxInterval]. Off by
	// default — the fixed Interval remains the paper's behaviour.
	AdaptiveDispatch bool
	// MinInterval is the adaptive window floor (AdaptiveDispatch only).
	// Zero selects dispatch.DefaultMinInterval.
	MinInterval time.Duration
	// MaxInterval is the adaptive window cap (AdaptiveDispatch only).
	// Zero selects Interval, so adaptive mode never batches more coarsely
	// than the fixed configuration it replaces.
	MaxInterval time.Duration
	// MaxGroupSize closes a window early, fixed or adaptive, once its
	// group reached this many invocations (0 means no cap).
	MaxGroupSize int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Interval:          200 * time.Millisecond,
		Multiplex:         true,
		HTTPLatency:       time.Millisecond,
		MaxPendingCreates: 32,
		PrewarmHorizon:    30 * time.Second,
		MaxRetries:        3,
	}
}

// Stats reports scheduler-level batching effectiveness.
type Stats struct {
	// Submitted counts invocations received.
	Submitted int64
	// Groups counts dispatched function groups (== batch HTTP requests
	// == container checkouts).
	Groups int64
	// MaxGroupSize is the largest batch expanded into one container.
	MaxGroupSize int
	// Retries counts invocation re-batches after container faults.
	Retries int64
	// Failed counts invocations that exhausted their retry budget and
	// completed as failures.
	Failed int64
	// GroupRedispatches counts whole groups re-batched because their
	// container crashed before expansion.
	GroupRedispatches int64
	// Prewarms counts predictive container creations (Prewarm only).
	Prewarms int64
	// KeepWarmTouches counts keep-alive refreshes of warm containers
	// for predicted-active functions (Prewarm only).
	KeepWarmTouches int64
	// FastPathDispatches counts lone arrivals dispatched immediately by
	// the adaptive idle fast-path (AdaptiveDispatch only).
	FastPathDispatches int64
	// EarlyCloses counts windows, fixed or adaptive, closed before their
	// deadline because the group reached MaxGroupSize.
	EarlyCloses int64
	// WindowDispatches counts adaptive windows that closed at their
	// deadline (fixed windows close on the ticker and are not counted).
	WindowDispatches int64
}

// AvgGroupSize reports the mean invocations per dispatched group.
func (s Stats) AvgGroupSize() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.Submitted) / float64(s.Groups)
}

// FaaSBatch is the scheduler.
type FaaSBatch struct {
	env     policy.Env
	cfg     Config
	pending map[string][]*pendingItem
	// owned tracks busy containers currently expanding groups, so later
	// windows can join them instead of cold-starting (§III-C: a cold
	// start occurs only when no keep-alive container exists).
	owned map[string][]*node.Container
	// pendingCreates counts in-flight container creations per function;
	// attached holds groups waiting on those creations.
	pendingCreates map[string]int
	attached       map[string][]attachedGroup
	// lastActive records each function's most recent arrival time
	// (Prewarm only).
	lastActive map[string]sim.Time
	// ticker closes fixed windows; in adaptive mode it exists only for
	// pre-warming (nil otherwise).
	ticker *sim.Ticker
	// ctrl decides every arrival's window. In adaptive mode windows
	// holds each function's scheduled window-close event and windowAt
	// its scheduled time (the controller may extend an open window's
	// deadline as the arrival estimate densifies, which reschedules the
	// event).
	ctrl     *dispatch.Controller
	windows  map[string]*sim.Event
	windowAt map[string]sim.Time
	stats    Stats
	closed   bool
}

// attachedGroup is a window group waiting for an in-flight creation.
type attachedGroup struct {
	group      []*pendingItem
	dispatchAt sim.Time
}

var _ policy.Scheduler = (*FaaSBatch)(nil)

// pendingItem is one invocation waiting for its window to close.
type pendingItem struct {
	inv      *fnruntime.Invocation
	complete func(*fnruntime.Invocation)
}

// New creates a FaaSBatch scheduler and starts its dispatch ticker.
func New(env policy.Env, cfg Config) (*FaaSBatch, error) {
	if env.Eng == nil || env.Node == nil || env.Runner == nil {
		return nil, fmt.Errorf("core: env requires engine, node and runner")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: dispatch interval must be positive, got %v", cfg.Interval)
	}
	if cfg.HTTPLatency < 0 {
		return nil, fmt.Errorf("core: http latency must be non-negative, got %v", cfg.HTTPLatency)
	}
	if cfg.MaxPendingCreates < 1 {
		return nil, fmt.Errorf("core: max pending creates must be at least 1, got %d", cfg.MaxPendingCreates)
	}
	if cfg.Prewarm && cfg.PrewarmHorizon <= 0 {
		return nil, fmt.Errorf("core: prewarm horizon must be positive, got %v", cfg.PrewarmHorizon)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("core: max retries must be non-negative, got %d", cfg.MaxRetries)
	}
	ctrl, err := dispatch.New(dispatch.Config{
		Fixed:        !cfg.AdaptiveDispatch,
		MinInterval:  cfg.MinInterval,
		MaxInterval:  cfg.MaxInterval,
		MaxGroupSize: cfg.MaxGroupSize,
	}.WithInterval(cfg.Interval))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f := &FaaSBatch{
		env:            env,
		cfg:            cfg,
		pending:        make(map[string][]*pendingItem),
		owned:          make(map[string][]*node.Container),
		pendingCreates: make(map[string]int),
		attached:       make(map[string][]attachedGroup),
		lastActive:     make(map[string]sim.Time),
		ctrl:           ctrl,
		windows:        make(map[string]*sim.Event),
		windowAt:       make(map[string]sim.Time),
	}
	// The ticker is the fixed-window clock: each tick closes every open
	// window in name order (see DESIGN.md §11 for why fixed windows do
	// not get per-function events). Adaptive windows close on their own
	// events, but pre-warming still needs a cadence to refresh
	// predictions on.
	tick := f.dispatchWindow
	if cfg.AdaptiveDispatch {
		if !cfg.Prewarm {
			return f, nil
		}
		tick = f.prewarm
	}
	t, err := sim.NewTicker(env.Eng, cfg.Interval, func(sim.Time) { tick() })
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f.ticker = t
	return f, nil
}

// Name implements policy.Scheduler.
func (f *FaaSBatch) Name() string { return "faasbatch" }

// Stats reports batching statistics.
func (f *FaaSBatch) Stats() Stats { return f.stats }

// Submit implements policy.Scheduler: the Invoke Mapper appends the
// invocation to its function's group for the current window. The
// dispatch controller decides whether the arrival dispatches immediately
// (adaptive idle fast-path, early close) or waits for its function's
// window.
func (f *FaaSBatch) Submit(inv *fnruntime.Invocation, complete func(*fnruntime.Invocation)) {
	f.stats.Submitted++
	fn := inv.Spec.Name
	if f.cfg.Prewarm {
		f.lastActive[fn] = f.env.Eng.Now()
	}
	item := &pendingItem{inv: inv, complete: complete}
	// The arrival is idle (no batching opportunity) when nothing of its
	// function waits, executes or boots: a window would hold it for
	// nothing unless the arrival process says company is coming. Only
	// adaptive mode asks: busyContainer prunes owned, which changes the
	// busy container a later group joins.
	idle := f.cfg.AdaptiveDispatch && len(f.pending[fn]) == 0 && f.busyContainer(fn) == nil && f.pendingCreates[fn] == 0
	f.pending[fn] = append(f.pending[fn], item)
	f.applyDecision(fn, f.ctrl.Arrive(fn, f.env.Eng.Now().Duration(), idle))
}

// applyDecision acts on the controller's verdict for fn's pending group.
func (f *FaaSBatch) applyDecision(fn string, d dispatch.Decision) {
	switch d.Action {
	case dispatch.ActionFastPath:
		f.stats.FastPathDispatches++
		f.closeNow(fn)
	case dispatch.ActionEarlyClose:
		f.stats.EarlyCloses++
		f.closeNow(fn)
	case dispatch.ActionWait:
		if !f.cfg.AdaptiveDispatch {
			return // the ticker closes fixed windows
		}
		at := sim.Time(d.Deadline)
		if ev, open := f.windows[fn]; open {
			if f.windowAt[fn] == at {
				return
			}
			// The controller extended the open window's deadline.
			ev.Cancel()
		}
		f.windowAt[fn] = at
		f.windows[fn] = f.env.Eng.ScheduleAt(at, func() { f.windowDue(fn) })
	}
}

// closeNow dispatches fn's pending group immediately (fast path or early
// close; the controller has already reset its group state).
func (f *FaaSBatch) closeNow(fn string) {
	if ev, open := f.windows[fn]; open {
		ev.Cancel()
		delete(f.windows, fn)
		delete(f.windowAt, fn)
	}
	group := f.pending[fn]
	delete(f.pending, fn)
	if len(group) > 0 {
		f.dispatchGroup(fn, group)
	}
}

// windowDue fires at fn's adaptive window deadline.
func (f *FaaSBatch) windowDue(fn string) {
	delete(f.windows, fn)
	delete(f.windowAt, fn)
	if f.closed {
		return
	}
	f.ctrl.WindowClosed(fn)
	group := f.pending[fn]
	delete(f.pending, fn)
	if len(group) > 0 {
		f.stats.WindowDispatches++
		f.dispatchGroup(fn, group)
	}
}

// Close stops the dispatcher after flushing pending groups.
func (f *FaaSBatch) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.dispatchWindow()
	for fn, ev := range f.windows {
		ev.Cancel()
		delete(f.windows, fn)
		delete(f.windowAt, fn)
	}
	if f.ticker != nil {
		f.ticker.Stop()
	}
	return nil
}

// dispatchWindow closes every open window (the fixed-window tick, and the
// final flush at Close): every function group gathered by the Invoke
// Mapper is handed to the Inline-Parallel Producer.
func (f *FaaSBatch) dispatchWindow() {
	if f.cfg.Prewarm {
		f.prewarm()
	}
	if len(f.pending) == 0 {
		return
	}
	// Sorted function order keeps runs deterministic.
	fns := make([]string, 0, len(f.pending))
	for fn := range f.pending {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		group := f.pending[fn]
		delete(f.pending, fn)
		f.ctrl.WindowClosed(fn)
		f.dispatchGroup(fn, group)
	}
}

// dispatchGroup is the Inline-Parallel Producer (§III-C): obtain one
// container for the whole group — an idle keep-alive container, a busy
// container already expanding earlier groups, or a fresh one — send the
// batch over HTTP, expand the invocations in parallel inside, and release
// the group's reservation when every invocation completed.
func (f *FaaSBatch) dispatchGroup(fn string, group []*pendingItem) {
	f.stats.Groups++
	if len(group) > f.stats.MaxGroupSize {
		f.stats.MaxGroupSize = len(group)
	}
	dispatchAt := f.env.Eng.Now()
	// An idle keep-alive container wins (warm start, via the node's warm
	// pool); otherwise a busy FaaSBatch container of the same function
	// accepts the group as additional threads; only when neither exists
	// does the group pay a cold start.
	if f.env.Node.WarmCount(fn) == 0 {
		if c := f.busyContainer(fn); c != nil {
			c.CheckoutThread() // the joined group's batch reservation
			f.expand(c, group, dispatchAt, node.AcquireResult{Container: c})
			return
		}
		if f.pendingCreates[fn] >= f.cfg.MaxPendingCreates {
			// The per-function scale-out bound is hit: wait for one of
			// the in-flight creations and expand on it once it boots.
			f.attached[fn] = append(f.attached[fn], attachedGroup{group: group, dispatchAt: dispatchAt})
			return
		}
		f.pendingCreates[fn]++
	}
	opts := node.AcquireOptions{CPULimit: f.cfg.CPULimit, Multiplex: f.cfg.Multiplex, Multiplexer: f.cfg.Multiplexer}
	f.env.Node.Acquire(fn, opts, func(r node.AcquireResult) {
		if r.Cold && f.pendingCreates[fn] > 0 {
			f.pendingCreates[fn]--
		}
		f.owned[fn] = append(f.owned[fn], r.Container)
		f.expand(r.Container, group, dispatchAt, r)
		// Groups that attached while this container booted expand on it
		// as additional thread batches; they waited out the remaining
		// boot, which is their cold-start share.
		waiting := f.attached[fn]
		delete(f.attached, fn)
		for _, ag := range waiting {
			r.Container.CheckoutThread() // the attached group's reservation
			f.expand(r.Container, ag.group, ag.dispatchAt, node.AcquireResult{
				Container: r.Container,
				Cold:      true,
				BootTime:  f.env.Eng.Now().Sub(ag.dispatchAt),
			})
		}
	})
}

// prewarm creates a container ahead of every recently active function
// that currently has none (warm, busy or booting). The pre-warmed
// container parks into the node's keep-alive pool, so the next group for
// that function starts warm even if its previous container was evicted
// between bursts.
func (f *FaaSBatch) prewarm() {
	now := f.env.Eng.Now()
	fns := make([]string, 0, len(f.lastActive))
	for fn := range f.lastActive {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if now.Sub(f.lastActive[fn]) > f.cfg.PrewarmHorizon {
			delete(f.lastActive, fn) // idle past the horizon: forget it
			continue
		}
		if f.env.Node.WarmCount(fn) > 0 {
			// Keep-warm touch: a warm acquire+release resets the
			// container's keep-alive clock, so predicted-active
			// functions never lose their capacity to eviction.
			f.env.Node.Acquire(fn, node.AcquireOptions{}, func(r node.AcquireResult) {
				r.Container.ReturnThread()
			})
			f.stats.KeepWarmTouches++
			continue
		}
		if f.busyContainer(fn) != nil || f.pendingCreates[fn] > 0 {
			continue // capacity already exists or is coming up
		}
		f.pendingCreates[fn]++
		f.stats.Prewarms++
		opts := node.AcquireOptions{CPULimit: f.cfg.CPULimit, Multiplex: f.cfg.Multiplex, Multiplexer: f.cfg.Multiplexer}
		f.env.Node.Acquire(fn, opts, func(r node.AcquireResult) {
			if f.pendingCreates[fn] > 0 {
				f.pendingCreates[fn]--
			}
			// Serve any groups that attached while this container booted;
			// otherwise park it warm for the next window.
			waiting := f.attached[fn]
			delete(f.attached, fn)
			if len(waiting) == 0 {
				r.Container.ReturnThread()
				return
			}
			f.owned[fn] = append(f.owned[fn], r.Container)
			for i, ag := range waiting {
				if i > 0 {
					r.Container.CheckoutThread()
				}
				f.expand(r.Container, ag.group, ag.dispatchAt, node.AcquireResult{
					Container: r.Container,
					Cold:      true,
					BootTime:  f.env.Eng.Now().Sub(ag.dispatchAt),
				})
			}
		})
	}
}

// busyContainer returns a ready busy container for fn, pruning handles
// that parked or were evicted since.
func (f *FaaSBatch) busyContainer(fn string) *node.Container {
	list := f.owned[fn]
	kept := list[:0]
	var found *node.Container
	for _, c := range list {
		if c.State() != node.Busy {
			continue // parked into the warm pool or evicted
		}
		kept = append(kept, c)
		if found == nil {
			found = c
		}
	}
	for i := len(kept); i < len(list); i++ {
		list[i] = nil
	}
	f.owned[fn] = kept
	return found
}

// expand runs one group inside its container: record the latency
// decomposition, pay the batch HTTP hop, execute all invocations as
// concurrent threads, and return the group's reservation when the last
// one finishes.
func (f *FaaSBatch) expand(c *node.Container, group []*pendingItem, dispatchAt sim.Time, r node.AcquireResult) {
	for _, item := range group {
		// Scheduling latency: window wait + engine-queue wait + the
		// batch HTTP hop; cold start is separated per §IV.
		item.inv.Rec.Sched = dispatchAt.Sub(item.inv.Arrive) + r.QueueWait + f.cfg.HTTPLatency
		item.inv.Rec.Cold = r.BootTime
	}
	run := func() {
		if c.State() == node.Evicted {
			// The container crashed between dispatch and the batch HTTP
			// request landing (a fault from a concurrent group killed it).
			// Re-batch the whole group into the next window; it expands on
			// a replacement container there.
			f.stats.GroupRedispatches++
			for _, item := range group {
				f.retryItem(item)
			}
			return
		}
		outstanding := len(group)
		released := false
		release := func() {
			if released {
				return
			}
			released = true
			// The batch HTTP request returns; once every group drained,
			// the container parks in the warm pool for the next window.
			c.ReturnThread()
		}
		for _, item := range group {
			item := item
			err := f.env.Runner.Execute(item.inv, c, func(done *fnruntime.Invocation) {
				item.complete(done)
				outstanding--
				if outstanding == 0 {
					release()
				}
			})
			if err != nil {
				// The container crashed under us (fault injection) or was
				// torn down between acquisition and execution: send the
				// invocation through the bounded retry path rather than
				// drop it.
				outstanding--
				f.retryItem(item)
			}
		}
		if outstanding == 0 {
			release()
		}
	}
	if f.cfg.HTTPLatency > 0 {
		f.env.Eng.Schedule(f.cfg.HTTPLatency, run)
		return
	}
	run()
}

// retryItem re-batches one invocation after a container fault: it rides
// the next dispatch window (the window interval acts as the retry
// backoff) on a fresh or replacement container. An invocation that
// already consumed its retry budget completes immediately with
// Rec.Failed set — invocations are never silently lost.
func (f *FaaSBatch) retryItem(item *pendingItem) {
	inv := item.inv
	if inv.Attempts >= f.cfg.MaxRetries {
		inv.Rec.Failed = true
		f.stats.Failed++
		item.complete(inv)
		return
	}
	inv.Attempts++
	inv.Rec.Retries = inv.Attempts
	f.stats.Retries++
	// Append directly to the window rather than re-Submit: Submitted
	// counts unique invocations, not attempts (Stats.Submitted ==
	// completed + failed must hold at quiescence).
	fn := inv.Spec.Name
	f.pending[fn] = append(f.pending[fn], item)
	if !f.closed {
		// A retry must ride a window like any pending call, but must not
		// skew the arrival-rate estimate: EnsureOpen opens a window
		// without observing an arrival.
		f.applyDecision(fn, f.ctrl.EnsureOpen(fn, f.env.Eng.Now().Duration()))
	}
}
