// run.go drives a scenario through the discrete-event simulator: it
// generates the fleet from the weighted templates, replays the phase
// timeline (arrival processes, chaos rate swaps, zone outages) against a
// cluster of FaaSBatch schedulers, and aggregates the streaming
// completion records into the versioned report.
//
// Scale notes. A fleet scenario runs millions of invocations, so the
// runner never materialises the workload: each phase's arrival process
// is one self-rescheduling event that draws the next inter-arrival gap
// lazily, keeping the event heap proportional to in-flight work, not to
// trace length; completions stream into per-phase integer-microsecond
// slices (the only O(invocations) memory) rather than metrics.Record
// values. Determinism: every random stream — arrivals, mix choices,
// fib sampling, chaos — derives from the scenario seed via hashmix, and
// the engine's event order is total, so one (scenario, seed) pair yields
// one report body, byte for byte.
package scenario

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/cluster"
	"faasbatch/internal/core"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/hashmix"
	"faasbatch/internal/metrics"
	"faasbatch/internal/node"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/sim"
	"faasbatch/internal/slo"
	"faasbatch/internal/workload"
)

// Runner executes scenarios, reusing one simulation engine across runs
// (Engine.Reset + Grow) so repeated executions — cmd/faasstress -repeat,
// the determinism regression — pay the event-heap allocation once.
type Runner struct {
	eng *sim.Engine
	// traceSink, when set, receives a Chrome trace export of a live run
	// (SetTraceSink).
	traceSink io.Writer
}

// NewRunner builds a reusable runner.
func NewRunner() *Runner {
	return &Runner{eng: sim.New(0)}
}

// SetTraceSink directs a Chrome trace-event export of the platform's
// spans to w when a live scenario finishes. Sim runs do not trace (the
// simulator's virtual clock has no per-invocation span instrumentation),
// so RunBody fails fast if a sink is set and the scenario is sim-mode.
func (r *Runner) SetTraceSink(w io.Writer) { r.traceSink = w }

// Run executes a scenario and returns its report.
func (r *Runner) Run(sc *Scenario) (*Report, error) {
	body, err := r.RunBody(sc)
	if err != nil {
		return nil, err
	}
	return NewReport(*body, time.Now())
}

// RunBody executes a scenario and returns the deterministic report body
// (no timestamp), the unit the determinism tests compare.
func (r *Runner) RunBody(sc *Scenario) (*Body, error) {
	if sc == nil {
		return nil, fmt.Errorf("scenario: nil scenario")
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	switch sc.Mode {
	case ModeSim:
		if r.traceSink != nil {
			return nil, fmt.Errorf("scenario: trace export requires mode: live (sim runs carry no span instrumentation)")
		}
		return r.runSim(sc)
	case ModeLive:
		return runLive(sc, r.traceSink)
	default:
		return nil, fmt.Errorf("scenario: unknown mode %v", sc.Mode)
	}
}

// Run executes a scenario with a fresh runner.
func Run(sc *Scenario) (*Report, error) {
	return NewRunner().Run(sc)
}

// subSeed derives a named deterministic seed from the scenario seed.
func subSeed(seed int64, label string) int64 {
	return int64(hashmix.Mix64(uint64(seed) ^ hashmix.String(label)))
}

// buildFleet expands the weighted templates into per-worker node
// configs. Assignment interleaves templates (smooth weighted
// round-robin) so zones — worker i mod zones — get representative
// hardware mixes rather than contiguous runs of one shape.
func buildFleet(sc *Scenario) []node.Config {
	out := make([]node.Config, sc.Fleet.Workers)
	if len(sc.Fleet.Templates) == 0 {
		for i := range out {
			out[i] = node.DefaultConfig()
		}
		return out
	}
	var totalWeight float64
	for _, t := range sc.Fleet.Templates {
		totalWeight += t.Weight
	}
	current := make([]float64, len(sc.Fleet.Templates))
	for i := range out {
		pick := 0
		if totalWeight > 0 {
			for j, t := range sc.Fleet.Templates {
				current[j] += t.Weight
				if current[j] > current[pick] {
					pick = j
				}
			}
			current[pick] -= totalWeight
		} else {
			pick = i % len(sc.Fleet.Templates)
		}
		out[i] = nodeConfig(sc.Fleet.Templates[pick])
	}
	return out
}

// nodeConfig materialises a template over the simulator defaults.
func nodeConfig(t Template) node.Config {
	cfg := node.DefaultConfig()
	if t.Cores > 0 {
		cfg.Cores = t.Cores
	}
	if t.MemBytes > 0 {
		cfg.MemBytes = t.MemBytes
	}
	if t.KeepAlive > 0 {
		cfg.KeepAlive = t.KeepAlive
	}
	if t.ColdStart > 0 {
		cfg.ColdStartLatency = t.ColdStart
	}
	if t.CreateConcurrency > 0 {
		cfg.CreateConcurrency = t.CreateConcurrency
	}
	return cfg
}

// coreConfig maps the dispatch section onto the scheduler config.
func coreConfig(d Dispatch) core.Config {
	cfg := core.DefaultConfig()
	if d.Interval > 0 {
		cfg.Interval = d.Interval
	}
	cfg.AdaptiveDispatch = d.Adaptive
	if d.MinInterval > 0 {
		cfg.MinInterval = d.MinInterval
	}
	cfg.MaxGroupSize = d.MaxGroupSize
	switch {
	case d.MaxRetries < 0:
		cfg.MaxRetries = 0
	case d.MaxRetries > 0:
		cfg.MaxRetries = d.MaxRetries
	}
	return cfg
}

// phaseAgg accumulates one phase's streaming completions.
type phaseAgg struct {
	submitted   int64
	completed   int64
	failed      int64
	retries     int64
	totalMicros []int64
	schedMicros []int64
}

// simRun is the mutable state of one simulated execution.
type simRun struct {
	sc   *Scenario
	eng  *sim.Engine
	cl   *cluster.Cluster
	inj  *chaos.Injector
	slos *slo.Tracker
	// bal is the effective balancing after the routing block's override.
	bal cluster.Balancing

	submitted    int64
	completed    int64
	phases       []*phaseAgg
	events       []Event
	samples      []Sample
	workloadDone bool
}

func (r *Runner) runSim(sc *Scenario) (*Body, error) {
	eng := r.eng
	eng.Reset(sc.Seed)
	eng.Grow(8192)
	inj := chaos.MustNew(chaos.Config{
		Seed:            subSeed(sc.Seed, "chaos"),
		ColdStartFactor: sc.Chaos.ColdStartFactor,
		HangDuration:    sc.Chaos.Hang,
	})
	bal := sc.Dispatch.Balancing
	var pullCfg *pullsched.Config
	if sc.Routing != nil {
		switch sc.Routing.Policy {
		case "pull":
			bal = cluster.Pull
			pullCfg = &pullsched.Config{
				QueueDepth: sc.Routing.QueueDepth,
				BatchSize:  sc.Routing.Batch,
				Capacity:   sc.Routing.Capacity,
			}
		case "hash":
			bal = cluster.ConsistentHash
		}
	}
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:       sc.Fleet.Workers,
		NodeConfigs: buildFleet(sc),
		Core:        coreConfig(sc.Dispatch),
		Balancing:   bal,
		Pull:        pullCfg,
		Chaos:       inj,
		Autoscale:   sc.Autoscale,
	})
	if err != nil {
		return nil, err
	}
	slos, err := newSLOTracker(sc)
	if err != nil {
		return nil, err
	}
	s := &simRun{sc: sc, eng: eng, cl: cl, inj: inj, slos: slos, bal: bal}
	for range sc.Phases {
		s.phases = append(s.phases, &phaseAgg{})
	}

	lastControl := s.scheduleTimeline()
	s.startSampler()

	end := sc.TotalDuration()
	if lastControl > end {
		end = lastControl
	}
	deadline := end + sc.MaxDrain
	for {
		if s.workloadDone && s.completed == s.submitted && eng.Now().Duration() > end {
			break
		}
		if !eng.Step() {
			break
		}
		if eng.Now().Duration() > deadline {
			return nil, fmt.Errorf("scenario: run did not quiesce within %v after the workload (%d/%d complete)",
				sc.MaxDrain, s.completed, s.submitted)
		}
	}
	if err := cl.Close(); err != nil {
		return nil, err
	}
	return s.report(), nil
}

// scheduleTimeline installs the phase starts (arrivals + chaos swaps),
// the outage events and the end-of-workload marker, returning the latest
// control-event time.
func (s *simRun) scheduleTimeline() time.Duration {
	var offset, lastControl time.Duration
	for pi, p := range s.sc.Phases {
		pi, p := pi, p
		start := offset
		s.eng.Schedule(start, func() {
			s.event("phase", fmt.Sprintf("phase %q starts (arrival %s, rate %g/s)", p.Name, p.Arrival, p.Rate))
			rates := p.Chaos // nil zeroes every kind: phases without chaos run clean
			if err := s.inj.SetRates(rates); err == nil && len(rates) > 0 {
				s.event("chaos", fmt.Sprintf("fault rates set for phase %q", p.Name))
			}
		})
		if p.Rate > 0 {
			s.startArrivals(pi, p, start, start+p.Duration)
		}
		for _, o := range p.Outages {
			t := s.scheduleOutage(o, start)
			if t > lastControl {
				lastControl = t
			}
		}
		offset += p.Duration
	}
	s.eng.Schedule(offset, func() { s.workloadDone = true })
	if offset > lastControl {
		lastControl = offset
	}
	return lastControl
}

// scheduleOutage installs one zone failure: the zone's workers go down
// (staggered across Cascade when set), drain their in-flight work, and
// come back Duration later. Returns the recovery completion time.
func (s *simRun) scheduleOutage(o Outage, phaseStart time.Duration) time.Duration {
	var members []int
	for i := 0; i < s.sc.Fleet.Workers; i++ {
		if i%s.sc.Fleet.Zones == o.Zone {
			members = append(members, i)
		}
	}
	var step time.Duration
	if o.Cascade > 0 && len(members) > 1 {
		step = o.Cascade / time.Duration(len(members)-1)
	}
	var last time.Duration
	for j, idx := range members {
		idx := idx
		downAt := phaseStart + o.At + step*time.Duration(j)
		upAt := downAt + o.Duration
		s.eng.Schedule(downAt, func() {
			_ = s.cl.SetDown(idx, true)
			s.event("outage-down", fmt.Sprintf("zone %d: worker %d down", o.Zone, idx))
		})
		s.eng.Schedule(upAt, func() {
			_ = s.cl.SetDown(idx, false)
			s.event("outage-up", fmt.Sprintf("zone %d: worker %d recovered", o.Zone, idx))
		})
		if upAt > last {
			last = upAt
		}
	}
	return last
}

// event appends a timeline entry stamped with the current virtual time.
func (s *simRun) event(kind, detail string) {
	s.events = append(s.events, Event{
		TimeMillis: s.eng.Now().Duration().Milliseconds(),
		Kind:       kind,
		Detail:     detail,
	})
}

// mixEntry is a phase's pre-resolved function mix: cached specs and
// instance names so the per-arrival work is one rng draw and one map-free
// lookup.
type mixEntry struct {
	cum   float64 // cumulative weight
	io    bool
	fibN  int
	specs []workload.Spec // io entries: per-instance cached specs
	names []string        // fib entries: per-instance function names
}

// buildMix resolves a phase's mix into sampling tables.
func buildMix(p Phase) ([]mixEntry, float64, error) {
	var cum float64
	out := make([]mixEntry, 0, len(p.Mix))
	for _, e := range p.Mix {
		cum += e.Weight
		me := mixEntry{cum: cum, io: e.IO, fibN: e.FibN}
		for i := 0; i < e.Instances; i++ {
			name := e.Fn
			if e.Instances > 1 {
				name = fmt.Sprintf("%s-%d", e.Fn, i)
			}
			if e.IO {
				me.specs = append(me.specs, workload.IOSpec(name))
			} else {
				me.names = append(me.names, name)
			}
		}
		out = append(out, me)
	}
	return out, cum, nil
}

// startArrivals installs a phase's lazy arrival process. Each firing
// submits (unless thinned out by the ramp) and schedules its successor,
// so the heap holds one pending arrival event per phase at any instant.
func (s *simRun) startArrivals(pi int, p Phase, start, end time.Duration) {
	rng := rand.New(rand.NewSource(subSeed(s.sc.Seed, fmt.Sprintf("arrivals-%d", pi))))
	gen := workload.NewGenerator(subSeed(s.sc.Seed, fmt.Sprintf("fib-%d", pi)))
	mix, totalWeight, _ := buildMix(p)
	fibCache := map[int]workload.Spec{}

	submit := func() {
		u := rng.Float64() * totalWeight
		var me *mixEntry
		for i := range mix {
			if u < mix[i].cum {
				me = &mix[i]
				break
			}
		}
		if me == nil {
			me = &mix[len(mix)-1]
		}
		var spec workload.Spec
		if me.io {
			spec = me.specs[rng.Intn(len(me.specs))]
		} else {
			n := me.fibN
			if n == 0 {
				n = gen.SampleFibN()
			}
			base, ok := fibCache[n]
			if !ok {
				var err error
				base, err = workload.FibSpec(n)
				if err != nil {
					return // validated N ranges make this unreachable
				}
				fibCache[n] = base
			}
			spec = base
			spec.Name = me.names[rng.Intn(len(me.names))]
		}
		s.submitOne(pi, spec)
	}
	// accept applies the linear ramp by thinning.
	accept := func() bool {
		if p.Ramp <= 0 {
			return true
		}
		into := s.eng.Now().Duration() - start
		if into >= p.Ramp {
			return true
		}
		return rng.Float64() < float64(into)/float64(p.Ramp)
	}
	// gap draws the next inter-arrival time for the process head.
	meanGap := time.Duration(float64(time.Second) / p.Rate)
	gap := func() time.Duration {
		switch p.Arrival {
		case "constant":
			return meanGap
		case "bursty":
			// Heads arrive rate/size times per second; the burst body is
			// scheduled separately.
			return expDuration(rng, p.Rate/float64(p.BurstSize))
		default: // poisson
			return expDuration(rng, p.Rate)
		}
	}
	var tick func()
	tick = func() {
		now := s.eng.Now().Duration()
		if now >= end {
			return
		}
		if p.Arrival == "bursty" {
			if accept() {
				size := 1 + rng.Intn(2*p.BurstSize-1) // mean ~= BurstSize
				var at time.Duration
				for i := 0; i < size; i++ {
					if i > 0 {
						at += expDuration(rng, float64(time.Second)/float64(p.BurstIaT))
					}
					if now+at >= end {
						break
					}
					s.eng.Schedule(at, submit)
				}
			}
		} else if accept() {
			submit()
		}
		s.eng.Schedule(gap(), tick)
	}
	s.eng.Schedule(start, tick)
}

// expDuration draws an exponential inter-arrival gap for the given rate
// (events per second), capped at an hour so a tiny rate cannot fling an
// event past any drain bound.
func expDuration(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return time.Hour
	}
	d := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	if d > time.Hour {
		return time.Hour
	}
	return d
}

// submitOne routes one invocation into the cluster and streams its
// completion into the phase aggregate.
func (s *simRun) submitOne(pi int, spec workload.Spec) {
	agg := s.phases[pi]
	id := s.submitted
	s.submitted++
	agg.submitted++
	inv := fnruntime.NewInvocation(id, spec, s.eng.Now())
	s.cl.Submit(inv, func(done *fnruntime.Invocation) {
		s.completed++
		agg.completed++
		rec := done.Rec
		s.slos.Observe(done.Spec.Name, rec.Total(), rec.Failed, s.eng.Now().Duration())
		if rec.Failed {
			agg.failed++
		}
		agg.retries += int64(rec.Retries)
		agg.totalMicros = append(agg.totalMicros, rec.Total().Microseconds())
		agg.schedMicros = append(agg.schedMicros, rec.Sched.Microseconds())
	})
}

// startSampler installs the self-rescheduling metrics sampler; it keeps
// firing through the drain so the tail is visible in the report.
func (s *simRun) startSampler() {
	interval := s.sc.Sampling
	var tick func()
	tick = func() {
		live := 0
		for _, nd := range s.cl.Nodes() {
			live += nd.LiveContainers()
		}
		down := 0
		for i := 0; i < s.sc.Fleet.Workers; i++ {
			if s.cl.Down(i) {
				down++
			}
		}
		s.samples = append(s.samples, Sample{
			TimeMillis:     s.eng.Now().Duration().Milliseconds(),
			Submitted:      s.submitted,
			Completed:      s.completed,
			Inflight:       s.submitted - s.completed,
			LiveContainers: int64(live),
			WorkersDown:    down,
			WorkersReady:   s.cl.ReadyNodes(),
		})
		s.eng.Schedule(interval, tick)
	}
	s.eng.Schedule(interval, tick)
}

// mergeScaleEvents interleaves the autoscaler's decision log into the
// control-event timeline by timestamp (stable: control events first at
// equal instants), keeping the report's event order chronological.
func mergeScaleEvents(events []Event, cl *cluster.Cluster) []Event {
	ds := cl.AutoscaleDecisions()
	if len(ds) == 0 {
		return events
	}
	scale := make([]Event, len(ds))
	for i, d := range ds {
		scale[i] = Event{TimeMillis: d.At.Milliseconds(), Kind: "scale", Detail: d.String()}
	}
	out := make([]Event, 0, len(events)+len(scale))
	i, j := 0, 0
	for i < len(events) && j < len(scale) {
		if events[i].TimeMillis <= scale[j].TimeMillis {
			out = append(out, events[i])
			i++
		} else {
			out = append(out, scale[j])
			j++
		}
	}
	out = append(out, events[i:]...)
	return append(out, scale[j:]...)
}

// autoscaleReport assembles the control plane's report block (nil when
// the scenario ran a static fleet).
func (s *simRun) autoscaleReport() *AutoscaleReport {
	if !s.cl.AutoscaleEnabled() {
		return nil
	}
	st := s.cl.AutoscaleStatus()
	cfg := *s.sc.Autoscale
	maxW := cfg.MaxWorkers
	if maxW <= 0 || maxW > s.sc.Fleet.Workers {
		maxW = s.sc.Fleet.Workers
	}
	peak := 0
	for _, smp := range s.samples {
		if smp.WorkersReady > peak {
			peak = smp.WorkersReady
		}
	}
	return &AutoscaleReport{
		MinWorkers:       cfg.MinWorkers,
		MaxWorkers:       maxW,
		PeakReady:        peak,
		FinalReady:       s.cl.ReadyNodes(),
		ScaleUps:         int64(st.ScaleUps),
		ScaleDowns:       int64(st.ScaleDowns),
		Wakes:            int64(st.Wakes),
		Drained:          int64(st.Drained),
		DrainMillis:      st.DrainTime.Milliseconds(),
		BusyWorkerMillis: s.cl.AutoscaleBusyIntegral().Milliseconds(),
	}
}

// routingReport assembles the routing-policy report block (nil when the
// scenario declared no routing section).
func (s *simRun) routingReport() *RoutingReport {
	if s.sc.Routing == nil {
		return nil
	}
	rep := &RoutingReport{
		Policy:      s.sc.Routing.Policy,
		QueueDepth:  s.sc.Routing.QueueDepth,
		LoadCVMilli: int64(math.Round(metrics.LoadCV(s.cl.RoutedPerNode()) * 1000)),
	}
	if s.cl.PullEnabled() {
		st := s.cl.PullStats()
		rep.Granted = int64(st.Granted)
		rep.Requeues = int64(st.Requeues)
		rep.Expired = int64(st.Expired)
		rep.Shed = int64(st.Shed)
	}
	return rep
}

// report assembles the deterministic body from the run's aggregates.
func (s *simRun) report() *Body {
	b := &Body{
		Version:   ReportVersion,
		Scenario:  s.sc.Name,
		Mode:      s.sc.Mode.String(),
		Seed:      s.sc.Seed,
		Workers:   s.sc.Fleet.Workers,
		Zones:     s.sc.Fleet.Zones,
		Balancing: s.bal.String(),
		Events:    mergeScaleEvents(s.events, s.cl),
		Samples:   s.samples,
		Autoscale: s.autoscaleReport(),
		Routing:   s.routingReport(),
	}
	var allTotal []int64
	var failed, retries int64
	for pi, p := range s.sc.Phases {
		agg := s.phases[pi]
		allTotal = append(allTotal, agg.totalMicros...)
		failed += agg.failed
		retries += agg.retries
		b.Phases = append(b.Phases, PhaseReport{
			Name:      p.Name,
			Arrival:   p.Arrival,
			Rate:      p.Rate,
			Submitted: agg.submitted,
			Completed: agg.completed,
			Failed:    agg.failed,
			Retries:   agg.retries,
			Total:     summarize(agg.totalMicros),
			Sched:     summarize(agg.schedMicros),
		})
	}
	b.Totals = Totals{
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    failed,
		Retries:   retries,
		Total:     summarize(allTotal),
	}
	var schedSubmitted int64
	for _, sched := range s.cl.Schedulers() {
		st := sched.Stats()
		b.Scheduler.Submitted += st.Submitted
		b.Scheduler.Groups += st.Groups
		if st.MaxGroupSize > b.Scheduler.MaxGroupSize {
			b.Scheduler.MaxGroupSize = st.MaxGroupSize
		}
		b.Scheduler.Retries += st.Retries
		b.Scheduler.Failed += st.Failed
		b.Scheduler.GroupRedispatches += st.GroupRedispatches
		b.Scheduler.FastPathDispatches += st.FastPathDispatches
		b.Scheduler.EarlyCloses += st.EarlyCloses
		b.Scheduler.WindowDispatches += st.WindowDispatches
	}
	schedSubmitted = b.Scheduler.Submitted
	for _, nd := range s.cl.Nodes() {
		b.Fleet.ContainersCreated += int64(nd.TotalCreated())
		b.Fleet.ColdStarts += int64(nd.ColdStarts())
		b.Fleet.WarmStarts += int64(nd.WarmStarts())
		b.Fleet.Evictions += int64(nd.Evictions())
		b.Fleet.Crashes += int64(nd.Crashes())
		b.Fleet.BootFailures += int64(nd.BootFailures())
		b.Fleet.SlowBoots += int64(nd.SlowBoots())
		b.Fleet.PeakMemBytes += nd.MemPeak()
	}
	b.Chaos = chaosCounts(s.inj)
	down := 0
	for i := 0; i < s.sc.Fleet.Workers; i++ {
		if s.cl.Down(i) {
			down++
		}
	}
	peakReady := 0
	for _, smp := range s.samples {
		if smp.WorkersReady > peakReady {
			peakReady = smp.WorkersReady
		}
	}
	// Under the pull policy, depth-bound sheds complete at the router
	// without ever reaching a node scheduler, so they join the LHS of
	// the accounting identity.
	consLHS := schedSubmitted
	consExpr := "sum(scheduler submitted) == harness submitted"
	if s.cl.PullEnabled() {
		consLHS += int64(s.cl.PullShed())
		consExpr = "sum(scheduler submitted) + pull shed == harness submitted"
	}
	b.Invariants = evalInvariants(s.sc.Invariants, invariantInputs{
		submitted:        s.submitted,
		completed:        s.completed,
		failed:           failed,
		conservationLHS:  consLHS,
		conservationRHS:  s.submitted,
		conservationExpr: consExpr,
		downAtEnd:        down,
		routedPerNode:    s.cl.RoutedPerNode(),
		autoscaleOn:      s.cl.AutoscaleEnabled(),
		peakReady:        peakReady,
		readyAtEnd:       s.cl.ReadyNodes(),
		slo:              sloVerdicts(s.sc, s.slos, s.eng.Now().Duration()),
	})
	b.MakespanMillis = s.eng.Now().Duration().Milliseconds()
	return b
}

// chaosCounts snapshots the injector totals as a kind-ordered slice.
func chaosCounts(inj *chaos.Injector) []ChaosCount {
	counts := inj.Counts()
	var out []ChaosCount
	for _, k := range chaos.Kinds() {
		if counts[k] > 0 {
			out = append(out, ChaosCount{Kind: k.String(), Count: int64(counts[k])})
		}
	}
	return out
}
