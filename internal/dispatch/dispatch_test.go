package dispatch

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/sim"
)

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{MinInterval: -1, MaxInterval: time.Second},
		{MinInterval: 0, MaxInterval: 0},
		{MinInterval: time.Second, MaxInterval: time.Millisecond},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := New(Config{MaxInterval: time.Second}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestFirstLoneArrivalFastPaths(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	d := c.Arrive("f", 0, true)
	if d.Action != ActionFastPath {
		t.Fatalf("lone idle arrival: action = %v, want fast-path", d.Action)
	}
	if c.Pending("f") != 0 {
		t.Fatalf("pending = %d after fast path, want 0", c.Pending("f"))
	}
}

func TestBusyArrivalWaits(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	d := c.Arrive("f", 0, false)
	if d.Action != ActionWait {
		t.Fatalf("non-idle arrival: action = %v, want wait", d.Action)
	}
	if d.Deadline != time.Duration(0)+d.Window {
		t.Fatalf("deadline = %v, want first arrival + window %v", d.Deadline, d.Window)
	}
}

func TestDenseArrivalsGrowTheWindow(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	// 2 ms gaps: ~100 expected arrivals per cap — window ≈ cap.
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		c.Arrive("f", now, false)
		now += 2 * time.Millisecond
	}
	if w := c.Window("f"); w < 150*time.Millisecond {
		t.Fatalf("dense window = %v, want near the 200ms cap", w)
	}
	// A dense lone arrival must NOT fast-path: the next request is near.
	c.WindowClosed("f")
	if d := c.Arrive("f", now, true); d.Action != ActionWait {
		t.Fatalf("dense idle arrival: action = %v, want wait", d.Action)
	}
}

func TestSparseArrivalsShrinkTheWindow(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := c.Arrive("f", now, true)
		if d.Action != ActionFastPath {
			t.Fatalf("sparse idle arrival %d: action = %v, want fast-path", i, d.Action)
		}
		now += 2 * time.Second
	}
	if w := c.Window("f"); w > 25*time.Millisecond {
		t.Fatalf("sparse window = %v, want near the 1ms floor", w)
	}
}

func TestIdleGapResetsRateEstimate(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	now := time.Duration(0)
	// Steady traffic primes the estimate.
	for i := 0; i < 10; i++ {
		c.Arrive("f", now, false)
		now += 50 * time.Millisecond
	}
	c.WindowClosed("f")
	// A long quiet spell (say the autoscaler retired the fleet), then a
	// burst. The first post-idle arrival is genuinely alone and must
	// still fast-path.
	now += 30 * time.Second
	if d := c.Arrive("f", now, true); d.Action != ActionFastPath {
		t.Fatalf("first post-idle arrival: action = %v, want fast-path", d.Action)
	}
	// The burst's second arrival must batch immediately: the idle gap
	// was discarded rather than folded in, so the 2ms burst gap IS the
	// estimate — not a 30s outlier that would keep every head-of-burst
	// arrival fast-pathing individually while it averaged down.
	now += 2 * time.Millisecond
	if d := c.Arrive("f", now, true); d.Action != ActionWait {
		t.Fatalf("second burst arrival: action = %v, want wait (batched)", d.Action)
	}
	if w := c.Window("f"); w < 150*time.Millisecond {
		t.Fatalf("post-burst window = %v, want near the 200ms cap", w)
	}
	// A gap below the reset threshold still feeds the estimate: the
	// window shrinks from the cap instead of snapping back to the floor.
	c.WindowClosed("f")
	now += time.Second
	c.Arrive("f", now, false)
	if w := c.Window("f"); w >= 150*time.Millisecond || w <= time.Millisecond {
		t.Fatalf("sub-threshold gap window = %v, want between floor and cap", w)
	}
}

func TestEarlyCloseAtMaxGroupSize(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond, MaxGroupSize: 4})
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if d := c.Arrive("f", now, false); d.Action != ActionWait {
			t.Fatalf("arrival %d: action = %v, want wait", i, d.Action)
		}
		now += time.Millisecond
	}
	if d := c.Arrive("f", now, false); d.Action != ActionEarlyClose {
		t.Fatalf("4th arrival: action = %v, want early-close", d.Action)
	}
	if c.Pending("f") != 0 {
		t.Fatalf("pending = %d after early close, want 0", c.Pending("f"))
	}
}

func TestWindowDeadlineAnchoredAtFirstArrival(t *testing.T) {
	c := newController(t, Config{MinInterval: 50 * time.Millisecond, MaxInterval: 50 * time.Millisecond})
	d1 := c.Arrive("f", 0, false)
	d2 := c.Arrive("f", 10*time.Millisecond, false)
	if d1.Deadline != d2.Deadline {
		t.Fatalf("joining arrival moved the deadline: %v -> %v", d1.Deadline, d2.Deadline)
	}
}

func TestEnsureOpenDoesNotSkewRate(t *testing.T) {
	c := newController(t, Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
	// Prime a sparse estimate.
	c.Arrive("f", 0, false)
	c.Arrive("f", 2*time.Second, false)
	c.WindowClosed("f")
	before := c.Window("f")
	d := c.EnsureOpen("f", 3*time.Second)
	if d.Action != ActionWait {
		t.Fatalf("EnsureOpen action = %v, want wait", d.Action)
	}
	// A burst of retries must leave the arrival-rate estimate alone.
	for i := 0; i < 10; i++ {
		c.EnsureOpen("f", 3*time.Second)
	}
	c.WindowClosed("f")
	c.Arrive("f", 5*time.Second, false)
	if after := c.Window("f"); after > before*2 {
		t.Fatalf("retries skewed the window: %v -> %v", before, after)
	}
}

// TestPropertyWindowWithinBounds: whatever the arrival sequence, the
// chosen interval stays inside [MinInterval, MaxInterval].
func TestPropertyWindowWithinBounds(t *testing.T) {
	prop := func(seed int64, gapsMicros []uint32) bool {
		cfg := Config{MinInterval: 2 * time.Millisecond, MaxInterval: 200 * time.Millisecond, MaxGroupSize: 8}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		deadline := time.Duration(-1)
		for _, g := range gapsMicros {
			now += time.Duration(g%2_000_000) * time.Microsecond
			// Close a due window the way a caller's timer would.
			if deadline >= 0 && now >= deadline {
				c.WindowClosed("f")
				deadline = -1
			}
			d := c.Arrive("f", now, rng.Intn(2) == 0)
			if d.Window < cfg.MinInterval || d.Window > cfg.MaxInterval {
				return false
			}
			switch d.Action {
			case ActionWait:
				if d.Deadline < now || d.Deadline > now+cfg.MaxInterval {
					return false
				}
				deadline = d.Deadline
			default:
				deadline = -1
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWindowMonotoneInRate: a faster constant arrival process
// never yields a smaller steady-state window than a slower one.
func TestPropertyWindowMonotoneInRate(t *testing.T) {
	steady := func(gap time.Duration) time.Duration {
		c, err := New(Config{MinInterval: time.Millisecond, MaxInterval: 200 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		now := time.Duration(0)
		for i := 0; i < 64; i++ {
			c.Arrive("f", now, false)
			c.WindowClosed("f")
			now += gap
		}
		return c.Window("f")
	}
	prop := func(a, b uint32) bool {
		gapA := time.Duration(1+a%5_000_000) * time.Microsecond
		gapB := time.Duration(1+b%5_000_000) * time.Microsecond
		if gapA > gapB {
			gapA, gapB = gapB, gapA
		}
		// gapA <= gapB: the faster process (gapA) must choose a window at
		// least as large as the slower one.
		return steady(gapA) >= steady(gapB)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEarlyCloseBoundsGroups: simulating the caller's queue, no
// dispatched group ever exceeds MaxGroupSize.
func TestPropertyEarlyCloseBoundsGroups(t *testing.T) {
	prop := func(seed int64, n uint8, maxGroup uint8) bool {
		cap := int(maxGroup%16) + 1
		c, err := New(Config{MinInterval: time.Millisecond, MaxInterval: 100 * time.Millisecond, MaxGroupSize: cap})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		queue := 0
		deadline := time.Duration(-1)
		for i := 0; i < int(n); i++ {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			// Close a due window the way a caller would.
			if deadline >= 0 && now >= deadline {
				c.WindowClosed("f")
				queue = 0
				deadline = -1
			}
			queue++
			d := c.Arrive("f", now, queue == 1 && rng.Intn(2) == 0)
			switch d.Action {
			case ActionFastPath, ActionEarlyClose:
				if queue > cap {
					return false
				}
				queue = 0
				deadline = -1
			case ActionWait:
				if queue >= cap {
					// The controller must have early-closed at the cap.
					return false
				}
				deadline = d.Deadline
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSimVsManualConformance drives the same arrival schedule through the
// controller twice — once from discrete-event simulator callbacks on the
// virtual clock, once from a plain loop doing duration arithmetic the way
// the live platform's wall-clock dispatcher does — and requires identical
// decision sequences. This is the clock-agnostic guarantee: sim and live
// share one state machine, not two reimplementations.
//
// In the fixed case windows also close, each drive its own way: the sim
// with a ticker (internal/core's fixed-window clock), the manual loop by
// closing every window whose grid deadline has passed (the platform's
// deadline loop). The close instants and the decisions after them must
// agree. Same-instant arrivals precede the close in both drives: the
// sim's arrivals are scheduled before the ticker exists, and the manual
// loop closes only deadlines strictly before an arrival.
func TestSimVsManualConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type arrival struct {
		fn   string
		at   time.Duration
		idle bool
	}
	var schedule []arrival
	now := time.Duration(0)
	fns := []string{"a", "b"}
	for i := 0; i < 200; i++ {
		now += time.Duration(rng.Intn(30)) * time.Millisecond
		schedule = append(schedule, arrival{fn: fns[rng.Intn(len(fns))], at: now, idle: rng.Intn(3) == 0})
	}
	last := schedule[len(schedule)-1].at

	record := func(d Decision) string {
		return d.Action.String() + "/" + d.Deadline.String() + "/" + d.Window.String()
	}
	closed := func(fn string, at time.Duration) string { return "close/" + fn + "/" + at.String() }

	for _, cfg := range []Config{
		{MinInterval: 2 * time.Millisecond, MaxInterval: 150 * time.Millisecond, MaxGroupSize: 6},
		{Fixed: true, MaxInterval: 150 * time.Millisecond, MaxGroupSize: 6},
	} {
		name := "adaptive"
		if cfg.Fixed {
			name = "fixed"
		}
		t.Run(name, func(t *testing.T) {
			// Manual (live-style) drive.
			manual := newController(t, cfg)
			var manualLog []string
			deadlines := map[string]time.Duration{}
			closeDue := func(due func(time.Duration) bool) {
				for len(deadlines) > 0 {
					next := ""
					for _, fn := range fns {
						d, open := deadlines[fn]
						if open && due(d) && (next == "" || d < deadlines[next]) {
							next = fn
						}
					}
					if next == "" {
						return
					}
					manualLog = append(manualLog, closed(next, deadlines[next]))
					manual.WindowClosed(next)
					delete(deadlines, next)
				}
			}
			for _, a := range schedule {
				if cfg.Fixed {
					closeDue(func(d time.Duration) bool { return d < a.at })
				}
				d := manual.Arrive(a.fn, a.at, a.idle)
				manualLog = append(manualLog, record(d))
				if d.Action == ActionWait {
					deadlines[a.fn] = d.Deadline
				} else {
					delete(deadlines, a.fn)
				}
			}
			if cfg.Fixed {
				closeDue(func(d time.Duration) bool { return d <= last })
			}

			// Sim drive: schedule each arrival as an engine event.
			eng := sim.New(1)
			simCtrl := newController(t, cfg)
			var simLog []string
			for _, a := range schedule {
				a := a
				eng.ScheduleAt(sim.Time(a.at), func() {
					d := simCtrl.Arrive(a.fn, eng.Now().Duration(), a.idle)
					simLog = append(simLog, record(d))
				})
			}
			if cfg.Fixed {
				if _, err := sim.NewTicker(eng, cfg.MaxInterval, func(at sim.Time) {
					for _, fn := range fns {
						if simCtrl.Pending(fn) > 0 {
							simLog = append(simLog, closed(fn, at.Duration()))
							simCtrl.WindowClosed(fn)
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(sim.Time(last))

			if len(manualLog) != len(simLog) {
				t.Fatalf("decision counts differ: manual %d, sim %d", len(manualLog), len(simLog))
			}
			for i := range manualLog {
				if manualLog[i] != simLog[i] {
					t.Fatalf("decision %d diverges: manual %q, sim %q", i, manualLog[i], simLog[i])
				}
			}
		})
	}
}

func TestActionString(t *testing.T) {
	if ActionWait.String() != "wait" || ActionFastPath.String() != "fast-path" || ActionEarlyClose.String() != "early-close" {
		t.Fatal("action strings wrong")
	}
	if Action(9).String() != "action(9)" {
		t.Fatal("unknown action string wrong")
	}
}

// fixedConfig is the paper's fixed mode on a 100ms grid.
func fixedConfig(maxGroup int) Config {
	return Config{Fixed: true, MaxInterval: 100 * time.Millisecond, MaxGroupSize: maxGroup}
}

// TestFixedGridDeadlines: a fixed window closes at the next multiple of
// the interval after its first arrival, joiners share that deadline, and
// an arrival exactly on a grid instant opens the window closing one
// interval later (the window closing at that instant is already due).
func TestFixedGridDeadlines(t *testing.T) {
	c := newController(t, fixedConfig(0))
	ms := time.Millisecond
	steps := []struct {
		at, deadline time.Duration
		close        bool // close the window before this arrival
	}{
		{at: 30 * ms, deadline: 100 * ms},
		{at: 70 * ms, deadline: 100 * ms},
		{at: 100 * ms, deadline: 200 * ms, close: true}, // on the grid
		{at: 199 * ms, deadline: 200 * ms},
		{at: 450 * ms, deadline: 500 * ms, close: true},
	}
	for i, s := range steps {
		if s.close {
			c.WindowClosed("f")
		}
		d := c.Arrive("f", s.at, false)
		if d.Action != ActionWait || d.Deadline != s.deadline || d.Window != 100*ms {
			t.Fatalf("step %d (arrival at %v): got %v deadline %v window %v, want wait deadline %v window 100ms",
				i, s.at, d.Action, d.Deadline, d.Window, s.deadline)
		}
	}
	if got := c.Pending("f"); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
}

// TestFixedNoFastPath: fixed mode has no idle fast path and tracks no
// arrival rate, so a lone idle arrival on sparse traffic waits for its
// window and the window never moves off the interval.
func TestFixedNoFastPath(t *testing.T) {
	c := newController(t, fixedConfig(0))
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		d := c.Arrive("f", now, true)
		if d.Action != ActionWait {
			t.Fatalf("sparse idle arrival %d: action = %v, want wait", i, d.Action)
		}
		c.WindowClosed("f")
		now += 10 * time.Second
	}
	if w := c.Window("f"); w != 100*time.Millisecond {
		t.Fatalf("window = %v, want the 100ms interval", w)
	}
	if n := c.ExpectedGroup("f"); n != 1 {
		t.Fatalf("ExpectedGroup = %d, want 1 (no rate estimate in fixed mode)", n)
	}
}

// TestFixedEnsureOpen: a retry rides the open fixed window, or opens one
// on the grid when none is open.
func TestFixedEnsureOpen(t *testing.T) {
	c := newController(t, fixedConfig(0))
	open := c.Arrive("f", 30*time.Millisecond, false)
	if d := c.EnsureOpen("f", 60*time.Millisecond); d.Action != ActionWait || d.Deadline != open.Deadline {
		t.Fatalf("retry into open window: got %v deadline %v, want wait deadline %v", d.Action, d.Deadline, open.Deadline)
	}
	if got := c.Pending("f"); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	c.WindowClosed("f")
	if d := c.EnsureOpen("f", 130*time.Millisecond); d.Action != ActionWait || d.Deadline != 200*time.Millisecond {
		t.Fatalf("retry with no window: got %v deadline %v, want wait deadline 200ms", d.Action, d.Deadline)
	}
}

// TestFixedEarlyClose: MaxGroupSize closes a fixed window before its
// grid deadline, and the next arrival opens a fresh grid window.
func TestFixedEarlyClose(t *testing.T) {
	c := newController(t, fixedConfig(3))
	for i, at := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		if d := c.Arrive("f", at, false); d.Action != ActionWait {
			t.Fatalf("arrival %d: action = %v, want wait", i, d.Action)
		}
	}
	if d := c.EnsureOpen("f", 25*time.Millisecond); d.Action != ActionEarlyClose {
		t.Fatalf("3rd call: action = %v, want early-close", d.Action)
	}
	if got := c.Pending("f"); got != 0 {
		t.Fatalf("pending = %d after early close, want 0", got)
	}
	if d := c.Arrive("f", 40*time.Millisecond, false); d.Action != ActionWait || d.Deadline != 100*time.Millisecond {
		t.Fatalf("next arrival: got %v deadline %v, want wait deadline 100ms", d.Action, d.Deadline)
	}
}

// TestWithInterval: fixed mode takes the interval for both bounds;
// adaptive mode fills only the zero bounds, clamping the default floor
// to the cap.
func TestWithInterval(t *testing.T) {
	iv := 200 * time.Millisecond
	cases := []struct {
		in, want Config
	}{
		{Config{Fixed: true, MinInterval: time.Millisecond, MaxInterval: time.Second}, Config{Fixed: true, MinInterval: iv, MaxInterval: iv}},
		{Config{}, Config{MinInterval: DefaultMinInterval, MaxInterval: iv}},
		{Config{MaxInterval: 2 * time.Millisecond}, Config{MinInterval: 2 * time.Millisecond, MaxInterval: 2 * time.Millisecond}},
		{Config{MinInterval: time.Millisecond, MaxInterval: time.Second, MaxGroupSize: 4}, Config{MinInterval: time.Millisecond, MaxInterval: time.Second, MaxGroupSize: 4}},
	}
	for i, c := range cases {
		if got := c.in.WithInterval(iv); got != c.want {
			t.Errorf("case %d: %+v.WithInterval(%v) = %+v, want %+v", i, c.in, iv, got, c.want)
		}
	}
}
