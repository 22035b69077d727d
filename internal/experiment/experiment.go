// Package experiment drives complete evaluation runs: it wires a trace,
// a worker node, a scheduler policy and the resource sampler into one
// deterministic simulation and aggregates the metrics the paper reports —
// latency CDFs per component, provisioned containers, memory usage, CPU
// utilisation and per-client memory footprint.
//
// The figure/table reproductions of cmd/faasbench and bench_test.go are
// registered in figures.go.
package experiment

import (
	"fmt"
	"time"

	"faasbatch/internal/chaos"
	"faasbatch/internal/core"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/node"
	"faasbatch/internal/obs"
	"faasbatch/internal/policy"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
)

// PolicyKind selects the scheduler under test.
type PolicyKind int

// The four evaluated policies (§IV).
const (
	PolicyVanilla PolicyKind = iota + 1
	PolicySFS
	PolicyKraken
	PolicyFaaSBatch
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case PolicyVanilla:
		return "vanilla"
	case PolicySFS:
		return "sfs"
	case PolicyKraken:
		return "kraken"
	case PolicyFaaSBatch:
		return "faasbatch"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// AllPolicies lists the evaluated policies in the paper's order.
var AllPolicies = []PolicyKind{PolicyVanilla, PolicySFS, PolicyKraken, PolicyFaaSBatch}

// Config describes one evaluation run.
type Config struct {
	// Policy is the scheduler under test.
	Policy PolicyKind
	// Trace is the invocation workload.
	Trace trace.Trace
	// Interval is FaaSBatch's dispatch interval and Kraken's
	// provisioning window (the paper sweeps 0.01 s – 0.5 s).
	Interval time.Duration
	// AdaptiveDispatch replaces FaaSBatch's fixed interval with the
	// load-aware controller (core.Config.AdaptiveDispatch): idle
	// fast-path and EWMA-sized windows in [MinInterval, MaxInterval].
	AdaptiveDispatch bool
	// MinInterval is the adaptive window floor (zero:
	// dispatch.DefaultMinInterval).
	MinInterval time.Duration
	// MaxInterval is the adaptive window cap (zero: Interval).
	MaxInterval time.Duration
	// MaxGroupSize early-closes windows, fixed or adaptive, at this
	// group size (zero: unbounded).
	MaxGroupSize int
	// Seed drives the simulation's random source.
	Seed int64
	// Node configures the worker VM; zero value means node.DefaultConfig.
	Node node.Config
	// DisableMultiplex turns the Resource Multiplexer off for FaaSBatch
	// (ablation).
	DisableMultiplex bool
	// Prewarm enables FaaSBatch's predictive pre-warming (extension).
	Prewarm bool
	// SLO supplies Kraken's per-function objectives. When nil, the run
	// derives them from a Vanilla pre-run (p98 per function, §IV).
	SLO map[string]time.Duration
	// KrakenMaxBatch caps Kraken's batch size. Zero selects the
	// paper-implied value per workload family: ~5 for I/O functions
	// (400 invocations / 76 containers, §V-B2) and ~30 for CPU-intensive
	// functions (where Kraken provisioned close to FaaSBatch, Fig. 13b).
	// The difference reflects Kraken's profiled execution times on the
	// authors' congested testbed, which our cleaner substrate cannot
	// derive from first principles (see DESIGN.md §7).
	KrakenMaxBatch int
	// SamplePeriod is the resource sampling period (default 1 s, as in
	// the paper).
	SamplePeriod time.Duration
	// Chaos enables seeded fault injection for the run (nil means no
	// faults — the default, leaving every existing figure bit-identical).
	// The injector seed defaults to Seed when Chaos.Seed is zero, so one
	// experiment seed fixes both arrivals and the fault schedule.
	Chaos *chaos.Config
	// ChaosSchedule reconfigures the injector's rates mid-run: at each
	// entry's virtual-time offset the rate table is swapped in place
	// (chaos.Injector.SetRates), so a run can move through quiet and
	// noisy phases — the scenario harness's per-phase chaos, available
	// to single-node experiments too. Entries must be sorted by At.
	// When Chaos is nil, a non-empty schedule starts the run with an
	// all-zero injector seeded from Seed.
	ChaosSchedule []ChaosPhase
	// Tracer, when non-nil, receives the run's invocation decomposition
	// spans on the virtual timeline (see EmitSpans). The simulation itself
	// is unaffected: spans are derived from completed records.
	Tracer *obs.Tracer
}

// ChaosPhase is one scheduled chaos reconfiguration: at offset At from
// the run's start the injector's rate table becomes Rates (absent kinds
// drop to zero).
type ChaosPhase struct {
	// At is the virtual-time offset the swap fires at.
	At time.Duration
	// Rates is the full rate table from At on.
	Rates map[chaos.Kind]float64
}

// Result aggregates one run's measurements.
type Result struct {
	// Policy names the scheduler that ran.
	Policy string
	// Interval echoes the configured dispatch interval.
	Interval time.Duration
	// Records holds one latency decomposition per invocation.
	Records []metrics.Record
	// Samples holds the once-per-second resource observations.
	Samples []metrics.Sample
	// TotalContainers is the number of containers provisioned.
	TotalContainers int
	// ColdStarts and WarmStarts split container acquisitions.
	ColdStarts, WarmStarts int
	// Evictions counts keep-alive evictions during the run.
	Evictions int
	// AvgMemBytes and PeakMemBytes summarise sampled node memory.
	AvgMemBytes  float64
	PeakMemBytes int64
	// CPUUtil is mean CPU utilisation (0..1) including container
	// background load.
	CPUUtil float64
	// ClientBytesAllocated is cumulative storage-client memory charged.
	ClientBytesAllocated int64
	// ClientMemPerInvocation is the average client memory footprint per
	// invocation (the Fig. 14d metric).
	ClientMemPerInvocation float64
	// Runner carries execution counters (clients built, cache hits).
	Runner fnruntime.Stats
	// Batch carries FaaSBatch batching stats (nil for baselines).
	Batch *core.Stats
	// Makespan is the completion time of the last invocation.
	Makespan time.Duration
	// Failures counts invocations that exhausted their retry budget
	// (zero without fault injection).
	Failures int
	// Retries counts extra scheduling attempts across all invocations.
	Retries int
	// Crashes, BootFailures and SlowBoots report injected-fault effects
	// observed at the node.
	Crashes, BootFailures, SlowBoots int
	// FaultSummary renders the injected-fault counts ("none" when chaos
	// was disabled or nothing fired).
	FaultSummary string
}

// CDF extracts a latency-component CDF from the records.
func (r *Result) CDF(c metrics.Component) metrics.CDF {
	return metrics.NewCDF(metrics.Extract(r.Records, c))
}

// normalise fills config defaults.
func (c *Config) normalise() error {
	if c.Policy < PolicyVanilla || c.Policy > PolicyFaaSBatch {
		return fmt.Errorf("experiment: unknown policy %d", int(c.Policy))
	}
	if c.Trace.Len() == 0 {
		return fmt.Errorf("experiment: trace is empty")
	}
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = time.Second
	}
	if c.Node.Cores == 0 {
		c.Node = node.DefaultConfig()
	}
	return nil
}

// Run executes one evaluation run to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if cfg.Policy == PolicyKraken && cfg.SLO == nil {
		slo, err := SLOFromVanilla(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: derive kraken SLOs: %w", err)
		}
		cfg.SLO = slo
	}

	eng := sim.New(cfg.Seed)
	var inj *chaos.Injector
	if cfg.Chaos != nil || len(cfg.ChaosSchedule) > 0 {
		ccfg := chaos.Config{Seed: cfg.Seed}
		if cfg.Chaos != nil {
			ccfg = *cfg.Chaos
			if ccfg.Seed == 0 {
				ccfg.Seed = cfg.Seed
			}
		}
		var cerr error
		inj, cerr = chaos.New(ccfg)
		if cerr != nil {
			return nil, fmt.Errorf("experiment: %w", cerr)
		}
	}
	for i, ph := range cfg.ChaosSchedule {
		if ph.At < 0 {
			return nil, fmt.Errorf("experiment: chaos schedule entry %d: negative offset %v", i, ph.At)
		}
		if i > 0 && ph.At < cfg.ChaosSchedule[i-1].At {
			return nil, fmt.Errorf("experiment: chaos schedule not sorted at entry %d", i)
		}
		// Validate the rate table up front so a bad entry fails the run
		// before any event fires, not mid-flight.
		if _, err := chaos.New(chaos.Config{Rates: ph.Rates}); err != nil {
			return nil, fmt.Errorf("experiment: chaos schedule entry %d: %w", i, err)
		}
		rates := ph.Rates
		eng.Schedule(ph.At, func() {
			// Rates were validated above; SetRates cannot fail here.
			_ = inj.SetRates(rates)
		})
	}
	nd, runner, sched, batch, err := buildScheduler(eng, cfg, inj)
	if err != nil {
		return nil, err
	}

	sampler, err := metrics.StartSampler(eng, cfg.SamplePeriod, func(t sim.Time) metrics.Sample {
		return metrics.Sample{
			T:               t,
			MemBytes:        nd.MemUsed(),
			Containers:      nd.LiveContainers(),
			BusyCoreSeconds: nd.BusyCoreSeconds(),
		}
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	res := &Result{Policy: sched.Name(), Interval: cfg.Interval}
	total := cfg.Trace.Len()
	specs, err := trace.SpecsFor(cfg.Trace)
	if err != nil {
		return nil, err
	}
	for i, inv := range cfg.Trace.Invocations {
		i := i
		spec := specs[i]
		eng.Schedule(inv.Offset, func() {
			fi := fnruntime.NewInvocation(int64(i), spec, eng.Now())
			sched.Submit(fi, func(done *fnruntime.Invocation) {
				res.Records = append(res.Records, done.Rec)
			})
		})
	}

	for len(res.Records) < total {
		if !eng.Step() {
			return nil, fmt.Errorf("experiment: engine drained with %d/%d invocations complete", len(res.Records), total)
		}
	}
	res.Makespan = eng.Now().Duration()
	if err := sched.Close(); err != nil {
		return nil, fmt.Errorf("experiment: close scheduler: %w", err)
	}
	sampler.Stop()

	res.Samples = sampler.Samples()
	res.TotalContainers = nd.TotalCreated()
	res.ColdStarts = nd.ColdStarts()
	res.WarmStarts = nd.WarmStarts()
	res.Evictions = nd.Evictions()
	res.AvgMemBytes = sampler.AvgMemBytes()
	res.PeakMemBytes = sampler.PeakMemBytes()
	res.CPUUtil = sampler.AvgCPUUtil(nd.Config().Cores)
	res.ClientBytesAllocated = nd.ClientBytesAllocated()
	if total > 0 {
		res.ClientMemPerInvocation = float64(nd.ClientBytesAllocated()) / float64(total)
	}
	res.Runner = runner.Stats()
	if batch != nil {
		st := batch.Stats()
		res.Batch = &st
	}
	for _, r := range res.Records {
		res.Retries += r.Retries
		if r.Failed {
			res.Failures++
		}
	}
	res.Crashes = nd.Crashes()
	res.BootFailures = nd.BootFailures()
	res.SlowBoots = nd.SlowBoots()
	res.FaultSummary = inj.Summary()
	if err := emitRunTrace(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// buildScheduler wires a node, runner and the configured policy's
// scheduler on the given engine, threading the optional fault injector
// through the node (boot faults) and runner (execution faults).
func buildScheduler(eng *sim.Engine, cfg Config, inj *chaos.Injector) (*node.Node, *fnruntime.Runner, policy.Scheduler, *core.FaaSBatch, error) {
	ncfg := cfg.Node
	if cfg.Policy == PolicySFS {
		ncfg.Discipline = cpusched.NewMLFQ()
	}
	ncfg.Chaos = inj
	nd, err := node.New(eng, ncfg)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("experiment: %w", err)
	}
	runner := fnruntime.NewRunner(eng)
	runner.SetChaos(inj)
	env := policy.Env{Eng: eng, Node: nd, Runner: runner}

	var (
		sched policy.Scheduler
		batch *core.FaaSBatch
	)
	switch cfg.Policy {
	case PolicyVanilla:
		sched, err = policy.NewVanilla(env)
	case PolicySFS:
		sched, err = policy.NewSFS(env, policy.DefaultSFSConfig())
	case PolicyKraken:
		kcfg := policy.DefaultKrakenConfig()
		kcfg.Window = cfg.Interval
		kcfg.SLO = cfg.SLO
		kcfg.MaxBatch = cfg.KrakenMaxBatch
		if kcfg.MaxBatch == 0 {
			kcfg.MaxBatch = krakenMaxBatchFor(cfg.Trace)
		}
		sched, err = policy.NewKraken(env, kcfg)
	case PolicyFaaSBatch:
		fcfg := core.DefaultConfig()
		fcfg.Interval = cfg.Interval
		fcfg.Multiplex = !cfg.DisableMultiplex
		fcfg.Prewarm = cfg.Prewarm
		fcfg.AdaptiveDispatch = cfg.AdaptiveDispatch
		fcfg.MinInterval = cfg.MinInterval
		fcfg.MaxInterval = cfg.MaxInterval
		fcfg.MaxGroupSize = cfg.MaxGroupSize
		batch, err = core.New(env, fcfg)
		sched = batch
	}
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("experiment: build %v scheduler: %w", cfg.Policy, err)
	}
	return nd, runner, sched, batch, nil
}

// krakenMaxBatchFor picks the paper-implied Kraken batch cap for a trace:
// I/O-dominated traces use ~5 (the paper's 5.26 invocations per Kraken
// container), CPU-intensive traces ~30 (Kraken provisioned close to
// FaaSBatch there, Fig. 13b).
func krakenMaxBatchFor(tr trace.Trace) int {
	io := 0
	for _, inv := range tr.Invocations {
		if inv.FibN == 0 {
			io++
		}
	}
	if io*2 >= tr.Len() {
		return 5
	}
	return 30
}

// SLOFromVanilla runs the trace under Vanilla and returns each function's
// p98 end-to-end latency, the paper's fair-comparison SLO for Kraken.
func SLOFromVanilla(cfg Config) (map[string]time.Duration, error) {
	pre := cfg
	pre.Policy = PolicyVanilla
	pre.SLO = nil
	// The SLO pre-run is an implementation detail; keep it out of the
	// caller's trace.
	pre.Tracer = nil
	res, err := Run(pre)
	if err != nil {
		return nil, err
	}
	perFn := map[string][]time.Duration{}
	for _, r := range res.Records {
		perFn[r.Fn] = append(perFn[r.Fn], r.Total())
	}
	out := make(map[string]time.Duration, len(perFn))
	for fn, lats := range perFn {
		out[fn] = metrics.NewCDF(lats).P(0.98)
	}
	return out, nil
}
