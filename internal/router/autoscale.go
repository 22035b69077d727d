package router

import (
	"context"
	"fmt"
	"sync"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
)

// maxScaleDecisions bounds the retained decision log (conformance tests
// and /stats debugging); older decisions are dropped, the counters in
// the controller keep the totals.
const maxScaleDecisions = 4096

// liveScaler drives the shared autoscale.Controller against the live
// worker registry: controller slot i maps to cfg.Workers[i] in
// registration order, and decisions become registry lifecycle
// transitions (activate / drain / retire). The controller itself is
// clock-agnostic; this driver feeds it wall-clock offsets from the
// router's start instant. The sim driver (internal/cluster) feeds the
// identical controller virtual offsets, which is what the sim-vs-live
// conformance test leans on.
type liveScaler struct {
	rt    *Router
	start time.Time

	mu        sync.Mutex
	ctrl      *autoscale.Controller
	slots     []WorkerSpec
	index     map[string]int
	decisions []autoscale.Decision
}

// newLiveScaler wires a controller over the router's registered pool.
// Slots beyond the initial ready count start on standby.
func newLiveScaler(rt *Router, acfg autoscale.Config) (*liveScaler, error) {
	specs := rt.reg.Specs()
	if acfg.MaxWorkers <= 0 || acfg.MaxWorkers > len(specs) {
		acfg.MaxWorkers = len(specs)
	}
	// The fleet starts at the scale floor — but never zero, so the
	// first arrival is served while the control loop warms up; the
	// idle gate drains it later if MinWorkers is 0.
	initial := acfg.MinWorkers
	if initial < 1 {
		initial = 1
	}
	ctrl, err := autoscale.New(acfg, initial)
	if err != nil {
		return nil, err
	}
	s := &liveScaler{
		rt:    rt,
		start: time.Now(),
		ctrl:  ctrl,
		slots: specs[:acfg.MaxWorkers],
		index: make(map[string]int, acfg.MaxWorkers),
	}
	for i, spec := range s.slots {
		s.index[spec.ID] = i
		if i >= initial {
			rt.reg.Retire(spec.ID)
		}
	}
	// Registered workers beyond MaxWorkers never participate.
	for _, spec := range specs[acfg.MaxWorkers:] {
		rt.reg.Retire(spec.ID)
	}
	rt.reg.OnDrained(s.noteDrained)
	return s, nil
}

// now reports the wall-clock offset fed to the controller.
func (s *liveScaler) now() time.Duration { return time.Since(s.start) }

// observe records one admitted invocation and handles the
// scale-from-zero wake. Decisions are computed under the scaler lock
// but applied outside it: Drain can complete synchronously and its
// hook re-enters the scaler.
func (s *liveScaler) observe(fn string, off time.Duration) {
	s.mu.Lock()
	s.ctrl.Observe(fn, off)
	ds := s.ctrl.Wake(off)
	if len(ds) > 0 {
		s.record(ds)
	}
	s.mu.Unlock()
	s.apply(ds)
}

// tick runs one control-loop evaluation and applies its decisions.
func (s *liveScaler) tick(off time.Duration) {
	s.mu.Lock()
	ds := s.ctrl.Tick(off)
	if len(ds) > 0 {
		s.record(ds)
	}
	s.mu.Unlock()
	s.apply(ds)
}

// record appends decisions to the bounded log (caller holds s.mu).
func (s *liveScaler) record(ds []autoscale.Decision) {
	s.decisions = append(s.decisions, ds...)
	if over := len(s.decisions) - maxScaleDecisions; over > 0 {
		s.decisions = append(s.decisions[:0], s.decisions[over:]...)
	}
}

// apply turns controller decisions into registry transitions, scale
// spans, and logs. Never called with s.mu held.
func (s *liveScaler) apply(ds []autoscale.Decision) {
	for _, d := range ds {
		if d.Worker < 0 || d.Worker >= len(s.slots) {
			continue
		}
		id := s.slots[d.Worker].ID
		switch d.Action {
		case autoscale.ActionProvision:
			// The worker process is already registered; pre-warming is
			// the Warmup delay before ActionReady admits it to the ring.
		case autoscale.ActionReady, autoscale.ActionReclaim:
			s.rt.reg.Activate(id)
		case autoscale.ActionDrain:
			s.rt.reg.Drain(id)
		case autoscale.ActionRetire:
			s.rt.reg.Retire(id)
		}
		at := s.rt.tracer.Now()
		s.rt.tracer.Record(obs.Span{
			Name:   obs.SpanScale,
			Detail: fmt.Sprintf("%s %s target=%d", d.Action, id, d.Target),
			Start:  at, End: at,
		})
		s.rt.logger.Info("scale event",
			"action", d.Action.String(), "worker", id,
			"target", d.Target, "forecast", fmt.Sprintf("%.1f", d.Forecast))
	}
}

// noteDrained is the registry's drain-complete hook: it reports the
// real drain duration to the controller's metrics. Called without the
// registry lock held.
func (s *liveScaler) noteDrained(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.index[id]; ok {
		s.ctrl.NoteDrained(slot, s.ctrl.DrainStart(slot), s.now())
	}
}

// status snapshots the controller for /stats and /metrics.
func (s *liveScaler) status() httpapi.AutoscaleStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ctrl.Snapshot()
	return httpapi.AutoscaleStatus{
		Target:       st.Target,
		Ready:        st.Ready,
		Warming:      st.Warming,
		Draining:     st.Draining,
		Standby:      st.Retired,
		Forecast:     st.Forecast,
		Floor:        st.Floor,
		ScaleUps:     int64(st.ScaleUps),
		ScaleDowns:   int64(st.ScaleDowns),
		Wakes:        int64(st.Wakes),
		Drained:      int64(st.Drained),
		DrainSeconds: st.DrainTime.Seconds(),
	}
}

// loop is the wall-clock control loop started by Router.Start.
func (s *liveScaler) loop(stop <-chan struct{}) {
	ticker := time.NewTicker(s.ctrl.Config().EvalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.tick(s.now())
		case <-stop:
			return
		}
	}
}

// AutoscaleEnabled reports whether the router runs the autoscaling
// control loop.
func (rt *Router) AutoscaleEnabled() bool { return rt.scaler != nil }

// AutoscaleStatus snapshots the control loop (zero value when
// autoscaling is disabled).
func (rt *Router) AutoscaleStatus() httpapi.AutoscaleStatus {
	if rt.scaler == nil {
		return httpapi.AutoscaleStatus{}
	}
	return rt.scaler.status()
}

// AutoscaleDecisions returns the retained scaling decision log in
// order (conformance tests and debugging).
func (rt *Router) AutoscaleDecisions() []autoscale.Decision {
	if rt.scaler == nil {
		return nil
	}
	rt.scaler.mu.Lock()
	defer rt.scaler.mu.Unlock()
	return append([]autoscale.Decision(nil), rt.scaler.decisions...)
}

// AutoscaleObserve feeds one arrival at an explicit offset — the
// deterministic entry point the sim-vs-live conformance test drives
// instead of wall time. Production traffic goes through InvokeTraced,
// which calls this with time-since-start.
func (rt *Router) AutoscaleObserve(fn string, off time.Duration) {
	if rt.scaler != nil {
		rt.scaler.observe(fn, off)
	}
}

// AutoscaleTick runs one control-loop evaluation at an explicit offset
// (conformance tests; production uses the Start loop).
func (rt *Router) AutoscaleTick(off time.Duration) {
	if rt.scaler != nil {
		rt.scaler.tick(off)
	}
}

// awaitCapacity blocks while the autoscaler wakes the fleet from zero:
// the arrival that triggered the wake must be served, not bounced with
// 503, for scale-to-zero to preserve the zero-lost-invocations
// guarantee. Bounded by ctx and ForwardTimeout.
func (rt *Router) awaitCapacity(ctx context.Context, fn string) []string {
	deadline := time.NewTimer(rt.cfg.ForwardTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-deadline.C:
			return nil
		case <-rt.stop:
			return nil
		case <-poll.C:
			if cands := rt.reg.Candidates(fn, rt.cfg.LoadBound); len(cands) > 0 {
				return cands
			}
		}
	}
}
