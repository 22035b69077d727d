// Package dispatch implements the Invoke Mapper window controller shared
// by the simulator (internal/core) and the live platform
// (internal/platform).
//
// The controller has two modes. Fixed mode is the paper's Invoke Mapper
// (§III-B): every window is MaxInterval long and closes on the interval
// grid, so all requests for one function inside one interval form a
// single batch. The paper fixes the interval at 0.2 s, but its own sweep
// (Fig. 11) shows the choice is workload-sensitive, so the default
// adaptive mode keeps the grouping semantics and sizes the window per
// function from the observed arrival process:
//
//   - Idle fast-path: a lone arrival with no batching opportunity (no
//     busy container of that function, nothing pending, arrivals sparse)
//     dispatches immediately instead of eating up to a full window of
//     pointless queueing.
//   - Load-aware window: an EWMA over inter-arrival gaps predicts how
//     many further arrivals a window could fold. Sparse traffic shrinks
//     the window toward MinInterval; dense traffic grows it toward
//     MaxInterval, where grouping pays exactly as in the paper.
//
// In both modes a window whose group already reached MaxGroupSize closes
// at once — further waiting cannot improve the batch.
//
// The controller is clock-agnostic: callers feed monotonic offsets
// (time.Duration since an arbitrary epoch). The discrete-event simulator
// passes virtual time and the live platform passes wall-clock offsets,
// so both drive the identical state machine — the sim-vs-live conformance
// test in dispatch_test.go depends on that. The epoch also anchors the
// fixed-mode grid.
//
// Controller is not safe for concurrent use; callers serialise access
// (the sim engine is single-threaded, the live platform holds its mutex).
package dispatch

import (
	"fmt"
	"time"

	"faasbatch/internal/policy"
)

// gapAlpha is the EWMA smoothing factor for inter-arrival gaps: heavy
// enough that a burst's tight gaps dominate within a few arrivals, light
// enough that one stray gap does not whipsaw the window.
const gapAlpha = 0.3

// DefaultMinInterval is the adaptive window floor when none is set: small
// enough that sparse traffic sees near-immediate dispatch, large enough
// that same-instant arrivals still fold into one group.
const DefaultMinInterval = 5 * time.Millisecond

// idleResetFactor scales MaxInterval into the idle-reset threshold: a
// gap longer than idleResetFactor windows is a restarted arrival stream
// (the function went quiet — possibly scaled to zero), not a sample of
// the old process. The gap is discarded and the EWMA re-primed from the
// new stream, so a burst arriving after the quiet spell sees its own
// tight gaps immediately and re-batches within two arrivals — the
// cold-start amortisation the autoscaler's scale-from-zero wake relies
// on — instead of fast-pathing each head-of-burst arrival individually
// while the stale idle gap averages down.
const idleResetFactor = 8

// Config parameterises a Controller.
type Config struct {
	// Fixed selects the paper's fixed-interval mode: every window is
	// MaxInterval long and closes at the next multiple of MaxInterval
	// after its first arrival, with no fast path and no arrival-rate
	// tracking. MinInterval is ignored. False selects adaptive mode.
	Fixed bool
	// MinInterval is the floor of the adaptive window: the shortest a
	// per-function window may shrink when arrivals are sparse. It must
	// be non-negative (zero means a window may close immediately).
	MinInterval time.Duration
	// MaxInterval is the cap of the adaptive window — typically the
	// paper's fixed interval, so adaptive mode never batches more
	// coarsely than the fixed configuration it replaces. In fixed mode
	// it is the interval.
	MaxInterval time.Duration
	// MaxGroupSize early-closes a window whose group reached this many
	// invocations (<= 0 means no cap).
	MaxGroupSize int
}

// WithInterval resolves c's window bounds against a caller's dispatch
// interval. In fixed mode both bounds are the interval. In adaptive mode
// a zero MaxInterval takes the interval, so switching adaptive dispatch
// on never batches more coarsely than the fixed configuration, and a
// zero MinInterval takes DefaultMinInterval, clamped to MaxInterval.
func (c Config) WithInterval(interval time.Duration) Config {
	if c.Fixed {
		c.MinInterval, c.MaxInterval = interval, interval
		return c
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = interval
	}
	if c.MinInterval == 0 {
		c.MinInterval = min(DefaultMinInterval, c.MaxInterval)
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinInterval < 0 {
		return fmt.Errorf("dispatch: min interval must be non-negative, got %v", c.MinInterval)
	}
	if c.MaxInterval <= 0 {
		return fmt.Errorf("dispatch: max interval must be positive, got %v", c.MaxInterval)
	}
	if c.MaxInterval < c.MinInterval {
		return fmt.Errorf("dispatch: max interval %v below min interval %v", c.MaxInterval, c.MinInterval)
	}
	return nil
}

// Action says what the caller must do with the arrival it just reported.
type Action int

// Actions.
const (
	// ActionWait holds the arrival for its window; the window closes at
	// Decision.Deadline (the caller dispatches the whole group then).
	ActionWait Action = iota
	// ActionFastPath dispatches the arrival immediately: it is alone,
	// nothing of its function is busy, and the arrival process is too
	// sparse for a window to fold a second request.
	ActionFastPath
	// ActionEarlyClose dispatches the whole pending group immediately:
	// it reached MaxGroupSize, so holding the window open buys nothing.
	ActionEarlyClose
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionWait:
		return "wait"
	case ActionFastPath:
		return "fast-path"
	case ActionEarlyClose:
		return "early-close"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is the controller's verdict on one arrival.
type Decision struct {
	// Action is what to do with the pending group now.
	Action Action
	// Deadline is the absolute offset at which the open window closes
	// (meaningful for ActionWait). Arrivals joining an already-open
	// window see its original deadline: the window is anchored at the
	// group's first arrival (adaptive mode) or at the interval grid
	// (fixed mode).
	Deadline time.Duration
	// Window is the interval the controller chose for this function at
	// this arrival — the gauge the metrics surface exports.
	Window time.Duration
}

// fnState is one function's window state.
type fnState struct {
	// gap smooths inter-arrival gaps (in seconds).
	gap *policy.EWMA
	// last is the previous arrival offset; seen marks it valid.
	last time.Duration
	seen bool
	// pending counts arrivals since the last window close.
	pending int
	// open marks an open window ending at deadline, anchored at the
	// group's first arrival (groupStart).
	open       bool
	groupStart time.Duration
	deadline   time.Duration
	// window is the interval chosen at the latest arrival (at creation,
	// the unprimed choice).
	window time.Duration
}

// Controller maps arrivals to dispatch decisions, one window state
// machine per function.
type Controller struct {
	cfg Config
	fns map[string]*fnState
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fixed {
		cfg.MinInterval = cfg.MaxInterval
	}
	return &Controller{cfg: cfg, fns: make(map[string]*fnState)}, nil
}

// state returns fn's window state, creating it on first use.
func (c *Controller) state(fn string) *fnState {
	st, ok := c.fns[fn]
	if !ok {
		ewma, err := policy.NewEWMA(gapAlpha)
		if err != nil {
			// Unreachable: gapAlpha is a valid constant.
			panic(err)
		}
		st = &fnState{gap: ewma}
		st.window = c.window(st)
		c.fns[fn] = st
	}
	return st
}

// window chooses fn's interval from the smoothed arrival rate. With an
// expected n = MaxInterval/gap further arrivals inside the cap, the
// window interpolates Min + (Max-Min)·n/(n+1): sparse traffic (n → 0)
// collapses to MinInterval, dense traffic (n → ∞) saturates at
// MaxInterval. The mapping is monotone in the arrival rate — the
// property test in dispatch_test.go proves it. In fixed mode both bounds
// are the interval, so every window is the interval.
func (c *Controller) window(st *fnState) time.Duration {
	min, max := c.cfg.MinInterval, c.cfg.MaxInterval
	if !st.gap.Primed() {
		// No rate estimate yet: assume sparse, favour latency.
		return min
	}
	gap := st.gap.Value()
	if gap <= 0 {
		// Arrivals in the same instant: maximal density.
		return max
	}
	n := max.Seconds() / gap
	w := min + time.Duration(n/(n+1)*float64(max-min))
	if w < min {
		w = min
	}
	if w > max {
		w = max
	}
	return w
}

// sparse reports whether fewer than one further arrival is expected even
// within the full MaxInterval — the regime where holding a window open is
// pure queueing delay.
func (c *Controller) sparse(st *fnState) bool {
	if !st.gap.Primed() {
		return true
	}
	return st.gap.Value() > c.cfg.MaxInterval.Seconds()
}

// Arrive reports one arrival for fn at monotonic offset now. idle is the
// caller's batching-opportunity signal: true when no container of fn is
// busy and nothing else of fn waits (the arrival is alone); fixed mode
// ignores it. The returned Decision tells the caller to dispatch now
// (fast path / early close — the controller has already reset the group)
// or to hold until Deadline.
func (c *Controller) Arrive(fn string, now time.Duration, idle bool) Decision {
	st := c.state(fn)
	if c.cfg.Fixed {
		return c.join(st, now, false)
	}
	if st.seen {
		if gap := now - st.last; gap > time.Duration(idleResetFactor)*c.cfg.MaxInterval {
			// Idle fast-path reset: the stream restarted after a long
			// quiet spell (see idleResetFactor).
			st.gap.Reset()
		} else {
			st.gap.Observe(gap.Seconds())
		}
	}
	st.last = now
	st.seen = true
	st.window = c.window(st)
	return c.join(st, now, idle && st.pending == 0 && !st.open && c.sparse(st))
}

// EnsureOpen opens a window for fn (if none is open) without recording an
// arrival — used when a retry re-batches an old invocation into the next
// window: the retried call must not skew the arrival-rate estimate, but
// it does need a window deadline to ride. The returned Decision is
// ActionWait, or ActionEarlyClose when the retry fills the group.
func (c *Controller) EnsureOpen(fn string, now time.Duration) Decision {
	return c.join(c.state(fn), now, false)
}

// join adds one call to st's group. The group early-closes at
// MaxGroupSize; otherwise a fast-path call dispatches alone, and any
// other call opens the window if none is open and waits for its
// deadline.
func (c *Controller) join(st *fnState, now time.Duration, fastPath bool) Decision {
	st.pending++
	if c.cfg.MaxGroupSize > 0 && st.pending >= c.cfg.MaxGroupSize {
		st.reset()
		return Decision{Action: ActionEarlyClose, Window: st.window}
	}
	if fastPath {
		st.reset()
		return Decision{Action: ActionFastPath, Window: st.window}
	}
	switch {
	case !st.open:
		st.open = true
		st.groupStart = now
		st.deadline = now + st.window
		if c.cfg.Fixed {
			// The paper's Invoke Mapper: the window closes at the next
			// instant of the interval grid, where a ticker started at the
			// epoch would fire.
			st.deadline = now - now%st.window + st.window
		}
	case !c.cfg.Fixed && st.groupStart+st.window > st.deadline:
		// The arrival estimate densified since the window opened (e.g. a
		// burst arriving after a quiet spell re-primes the EWMA): extend
		// the deadline so the burst is not fragmented by the stale, short
		// window chosen at its head. Still anchored at the group's first
		// arrival, so no group ever waits longer than MaxInterval.
		st.deadline = st.groupStart + st.window
	}
	return Decision{Action: ActionWait, Deadline: st.deadline, Window: st.window}
}

// WindowClosed informs the controller that fn's pending group dispatched
// (deadline reached, or the caller flushed — e.g. at Close). Callers must
// pair every drain of their pending queue with exactly one WindowClosed,
// so the controller's group count stays in step with the queue.
func (c *Controller) WindowClosed(fn string) {
	if st, ok := c.fns[fn]; ok {
		st.reset()
	}
}

// reset clears the group state after a dispatch.
func (st *fnState) reset() {
	st.pending = 0
	st.open = false
	st.groupStart = 0
	st.deadline = 0
}

// Window reports fn's most recently chosen interval (MinInterval before
// any arrival; the interval in fixed mode): the value behind the
// dispatch-window gauge.
func (c *Controller) Window(fn string) time.Duration {
	if st, ok := c.fns[fn]; ok {
		return st.window
	}
	return c.cfg.MinInterval
}

// Pending reports how many arrivals fn's open window currently holds.
func (c *Controller) Pending(fn string) int {
	if st, ok := c.fns[fn]; ok {
		return st.pending
	}
	return 0
}

// expectedGroupCap bounds ExpectedGroup so one anomalous gap estimate
// cannot demand an absurd pre-allocation.
const expectedGroupCap = 64

// ExpectedGroup estimates how many invocations fn's next window will
// fold, from the same EWMA that sizes the window: a window of length w
// over arrivals gapped g seconds apart holds about w/g + 1 calls (the
// opener plus the arrivals the window folds). Callers use it to pre-size
// group slices so the steady state appends without growing. The estimate
// is clamped to [1, 64] and to MaxGroupSize; an unprimed function
// returns 1.
func (c *Controller) ExpectedGroup(fn string) int {
	st, ok := c.fns[fn]
	if !ok || !st.gap.Primed() {
		return 1
	}
	n := 1
	if gap := st.gap.Value(); gap > 0 {
		n = int(st.window.Seconds()/gap) + 1
	} else {
		// Same-instant arrivals: maximal density, take the cap.
		n = expectedGroupCap
	}
	if c.cfg.MaxGroupSize > 0 && n > c.cfg.MaxGroupSize {
		n = c.cfg.MaxGroupSize
	}
	if n > expectedGroupCap {
		n = expectedGroupCap
	}
	if n < 1 {
		n = 1
	}
	return n
}
