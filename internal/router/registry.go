package router

import (
	"fmt"
	"sort"
	"sync"

	"faasbatch/internal/httpapi"
)

// WorkerState is a registry member's health state.
type WorkerState int

// Worker states.
const (
	// WorkerUp means the worker owns ring segments and receives traffic.
	WorkerUp WorkerState = iota + 1
	// WorkerDown means the worker is marked down: removed from the ring,
	// skipped by the forwarder, still probed for recovery.
	WorkerDown
	// WorkerDraining means the worker was administratively removed from
	// the ring (autoscale scale-down) and is finishing its in-flight
	// forwards before retiring. Health probes never mark it back up.
	WorkerDraining
	// WorkerStandby means the worker is administratively retired: it
	// holds no ring segments and takes no traffic until the autoscaler
	// activates it again.
	WorkerStandby
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerUp:
		return "up"
	case WorkerDown:
		return "down"
	case WorkerDraining:
		return "draining"
	case WorkerStandby:
		return "standby"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// WorkerSpec names one worker gateway.
type WorkerSpec struct {
	// ID is the worker's fleet identity (the ring member name).
	ID string
	// URL is the worker's base URL (scheme://host:port, no trailing /).
	URL string
}

// worker is the registry's record of one fleet member.
type worker struct {
	spec       WorkerSpec
	state      WorkerState
	consecFail int
	consecOK   int
	capacity   int
	inflight   int
	forwarded  int64
	failures   int64
}

// Registry tracks the fleet: worker states, in-flight load, and the
// consistent-hash ring spanning the workers currently marked up. All
// methods are safe for concurrent use. Membership is dynamic: the
// autoscaler activates standby workers, drains active ones, and may
// add or remove workers outright while forwards are in flight.
type Registry struct {
	mu            sync.Mutex
	workers       map[string]*worker
	order         []string // registration order, for stable iteration
	ring          *Ring
	markDownAfter int
	markUpAfter   int
	markDowns     int64
	markUps       int64
	onDrained     func(id string)              // drain-complete hook, called unlocked
	onMembership  func(id string, inRing bool) // ring-membership hook, called unlocked
}

// RegistryConfig parameterises NewRegistry.
type RegistryConfig struct {
	// Workers is the fleet (at least one).
	Workers []WorkerSpec
	// VNodes is the ring's virtual-node count per worker (<= 0 uses
	// DefaultVNodes).
	VNodes int
	// MarkDownAfter is how many consecutive failures mark a worker down
	// (default 2).
	MarkDownAfter int
	// MarkUpAfter is how many consecutive probe successes mark a down
	// worker back up (default 2).
	MarkUpAfter int
}

// NewRegistry builds a registry over cfg.Workers. Workers start
// optimistically up (the first failed probe round marks the dead ones
// down), so a fresh router serves traffic before its first probe
// completes. A worker is marked down after MarkDownAfter consecutive
// failures and back up after MarkUpAfter consecutive successes.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("router: registry needs at least one worker")
	}
	if cfg.MarkDownAfter <= 0 {
		cfg.MarkDownAfter = 2
	}
	if cfg.MarkUpAfter <= 0 {
		cfg.MarkUpAfter = 2
	}
	r := &Registry{
		workers:       make(map[string]*worker, len(cfg.Workers)),
		ring:          NewRing(cfg.VNodes),
		markDownAfter: cfg.MarkDownAfter,
		markUpAfter:   cfg.MarkUpAfter,
	}
	for _, spec := range cfg.Workers {
		if spec.ID == "" || spec.URL == "" {
			return nil, fmt.Errorf("router: worker spec needs an id and a url, got %+v", spec)
		}
		if _, dup := r.workers[spec.ID]; dup {
			return nil, fmt.Errorf("router: duplicate worker id %q", spec.ID)
		}
		r.workers[spec.ID] = &worker{spec: spec, state: WorkerUp}
		r.order = append(r.order, spec.ID)
		r.ring.Add(spec.ID)
	}
	return r, nil
}

// Specs lists every worker's spec in registration order, regardless of
// state (the prober probes down workers too, to mark them back up).
func (r *Registry) Specs() []WorkerSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerSpec, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.workers[id].spec)
	}
	return out
}

// URL resolves a worker id to its base URL ("" when unknown).
func (r *Registry) URL(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return ""
	}
	return w.spec.URL
}

// State reports a worker's current state (0 when unknown).
func (r *Registry) State(id string) WorkerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return 0
	}
	return w.state
}

// UpCount counts workers currently marked up.
func (r *Registry) UpCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Candidates orders the up workers for one function under bounded load:
// the ring owner first (or the first under-bound replica), then failover
// replicas in ring order, then overloaded workers by ascending load.
// Down workers never appear.
func (r *Registry) Candidates(fn string, loadBound float64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.PickBounded(fn, loadBound, func(id string) int {
		return r.workers[id].inflight
	})
}

// Owner reports the ring owner of fn ignoring load — the worker the
// function's whole dispatch windows batch on when the fleet is healthy
// and under its load bound.
func (r *Registry) Owner(fn string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Pick(fn)
}

// NoteResult folds one observation — a health probe or a forward attempt
// — into the worker's state machine, returning the transition it caused
// (if any): consecutive failures mark a worker down and shrink the ring;
// consecutive successes mark it back up and regrow the ring.
func (r *Registry) NoteResult(id string, ok bool) (changed bool, now WorkerState) {
	r.mu.Lock()
	w, exists := r.workers[id]
	if !exists {
		r.mu.Unlock()
		return false, 0
	}
	var hook func(string, bool)
	inRing := false
	if ok {
		w.consecFail = 0
		w.consecOK++
		if w.state == WorkerDown && w.consecOK >= r.markUpAfter {
			w.state = WorkerUp
			r.ring.Add(id)
			r.markUps++
			changed, now = true, WorkerUp
			hook, inRing = r.onMembership, true
		} else {
			changed, now = false, w.state
		}
	} else {
		w.consecOK = 0
		w.consecFail++
		w.failures++
		if w.state == WorkerUp && w.consecFail >= r.markDownAfter {
			w.state = WorkerDown
			r.ring.Remove(id)
			r.markDowns++
			changed, now = true, WorkerDown
			hook, inRing = r.onMembership, false
		} else {
			// Draining and standby workers are administrative states:
			// probe results keep feeding the counters but never flip them
			// up or down.
			changed, now = false, w.state
		}
	}
	r.mu.Unlock()
	if hook != nil {
		hook(id, inRing)
	}
	return changed, now
}

// OnMembership registers the ring-membership hook: it fires (without
// the registry lock held) whenever a worker joins or leaves the serving
// set — probe mark-down/up, autoscale activate, drain, or retire. At
// most one hook; the router installs it to feed the scheduling policy.
func (r *Registry) OnMembership(fn func(id string, inRing bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onMembership = fn
}

// OnDrained registers the drain-complete hook: it fires (without the
// registry lock held) when a draining worker's in-flight count reaches
// zero. At most one hook; the autoscale driver installs it.
func (r *Registry) OnDrained(fn func(id string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDrained = fn
}

// AddWorker registers a new fleet member at runtime. Active workers
// join the ring immediately (optimistically up, like NewRegistry);
// inactive ones start on standby for the autoscaler to activate later.
func (r *Registry) AddWorker(spec WorkerSpec, active bool) error {
	r.mu.Lock()
	if spec.ID == "" || spec.URL == "" {
		r.mu.Unlock()
		return fmt.Errorf("router: worker spec needs an id and a url, got %+v", spec)
	}
	if _, dup := r.workers[spec.ID]; dup {
		r.mu.Unlock()
		return fmt.Errorf("router: duplicate worker id %q", spec.ID)
	}
	w := &worker{spec: spec, state: WorkerStandby}
	if active {
		w.state = WorkerUp
	}
	r.workers[spec.ID] = w
	r.order = append(r.order, spec.ID)
	var hook func(string, bool)
	if active {
		r.ring.Add(spec.ID)
		hook = r.onMembership
	}
	r.mu.Unlock()
	if hook != nil {
		hook(spec.ID, true)
	}
	return nil
}

// RemoveWorker deletes a member outright. Workers still owning ring
// segments or in-flight forwards are refused — drain first.
func (r *Registry) RemoveWorker(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return fmt.Errorf("router: unknown worker %q", id)
	}
	if w.state == WorkerUp || w.state == WorkerDraining {
		return fmt.Errorf("router: worker %q is %s; drain before removing", id, w.state)
	}
	if w.inflight > 0 {
		return fmt.Errorf("router: worker %q has %d in-flight forwards", id, w.inflight)
	}
	r.ring.Remove(id)
	delete(r.workers, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// Activate puts a standby, draining, or down worker back in service:
// state up, ring segments restored, health counters reset (the probe
// loop re-marks it down if it is actually dead). It reports whether the
// state changed.
func (r *Registry) Activate(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerUp {
		r.mu.Unlock()
		return false
	}
	w.state = WorkerUp
	w.consecFail, w.consecOK = 0, 0
	r.ring.Add(id)
	hook := r.onMembership
	r.mu.Unlock()
	if hook != nil {
		hook(id, true)
	}
	return true
}

// Drain begins a graceful removal: the worker leaves the ring (no new
// forwards) but keeps serving its in-flight ones. When the in-flight
// count reaches zero the OnDrained hook fires — immediately, if it
// already is zero. It reports whether the state changed.
func (r *Registry) Drain(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerDraining || w.state == WorkerStandby {
		r.mu.Unlock()
		return false
	}
	wasServing := w.state == WorkerUp
	w.state = WorkerDraining
	r.ring.Remove(id)
	drained := w.inflight == 0
	hook := r.onDrained
	membership := r.onMembership
	r.mu.Unlock()
	if wasServing && membership != nil {
		membership(id, false)
	}
	if drained && hook != nil {
		hook(id)
	}
	return true
}

// Retire moves a drained (or down/up) worker to standby, releasing its
// ring segments. It reports whether the state changed.
func (r *Registry) Retire(id string) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok || w.state == WorkerStandby {
		r.mu.Unlock()
		return false
	}
	wasServing := w.state == WorkerUp
	w.state = WorkerStandby
	w.consecFail, w.consecOK = 0, 0
	r.ring.Remove(id)
	hook := r.onMembership
	r.mu.Unlock()
	if wasServing && hook != nil {
		hook(id, false)
	}
	return true
}

// Counts reports the fleet's state populations: ready (up), draining,
// down, and standby — the faascluster_workers_* gauges.
func (r *Registry) Counts() (ready, draining, down, standby int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		switch w.state {
		case WorkerUp:
			ready++
		case WorkerDraining:
			draining++
		case WorkerDown:
			down++
		case WorkerStandby:
			standby++
		}
	}
	return ready, draining, down, standby
}

// SetCapacity records a worker's advertised capacity from its health
// report.
func (r *Registry) SetCapacity(id string, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[id]; ok && capacity >= 0 {
		w.capacity = capacity
	}
}

// AddInflight adjusts a worker's outstanding-forward count. When a
// draining worker's count reaches zero its graceful drain is complete
// and the OnDrained hook fires (without the lock held).
func (r *Registry) AddInflight(id string, delta int) {
	r.mu.Lock()
	var hook func(string)
	if w, ok := r.workers[id]; ok {
		before := w.inflight
		w.inflight += delta
		if w.inflight < 0 {
			w.inflight = 0
		}
		if w.state == WorkerDraining && before > 0 && w.inflight == 0 {
			hook = r.onDrained
		}
	}
	r.mu.Unlock()
	if hook != nil {
		hook(id)
	}
}

// NoteForwarded counts one invocation served by the worker.
func (r *Registry) NoteForwarded(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[id]; ok {
		w.forwarded++
	}
}

// Transitions reports the cumulative mark-down/mark-up counts.
func (r *Registry) Transitions() (markDowns, markUps int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.markDowns, r.markUps
}

// ForwardedPerWorker returns each worker's served-invocation count in
// registration order (feeds metrics.Imbalance).
func (r *Registry) ForwardedPerWorker() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, int(r.workers[id].forwarded))
	}
	return out
}

// Snapshot renders the worker table as wire rows, sorted by id.
func (r *Registry) Snapshot() []httpapi.WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]httpapi.WorkerStatus, 0, len(r.order))
	for _, id := range r.order {
		w := r.workers[id]
		out = append(out, httpapi.WorkerStatus{
			ID:        w.spec.ID,
			URL:       w.spec.URL,
			State:     w.state.String(),
			Inflight:  int64(w.inflight),
			Capacity:  w.capacity,
			Forwarded: w.forwarded,
			Failures:  w.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
