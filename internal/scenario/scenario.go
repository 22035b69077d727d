// Package scenario is the declarative proving ground for FaaSBatch: YAML
// scenarios declare a worker fleet (weighted templates), workload phases
// (arrival process, function mix, ramps), a seeded chaos schedule
// (per-phase fault rates, zone-style cascading outages), a metrics
// sampling interval and invariant assertions. The runner replays a
// scenario through the discrete-event simulator at fleet scale (hundreds
// of workers, millions of invocations in one seeded, reproducible run)
// or through the live platform for small smoke scenarios, and emits a
// versioned JSON report plus an HTML summary that CI can diff and
// archive. See docs/STRESS.md for the schema and the reproducibility
// contract.
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/chaos"
	"faasbatch/internal/cluster"
	"faasbatch/internal/slo"
)

// Mode selects the execution substrate.
type Mode int

// Execution modes.
const (
	// ModeSim replays the scenario through the discrete-event simulator:
	// deterministic, fleet-scale, virtual time.
	ModeSim Mode = iota + 1
	// ModeLive drives the in-process live platform (wall clock, real
	// goroutines) — for small smoke scenarios only.
	ModeLive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSim:
		return "sim"
	case ModeLive:
		return "live"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Template is one weighted worker shape in the fleet section. Zero
// fields inherit the simulator node defaults (node.DefaultConfig).
type Template struct {
	// Name labels the template in reports.
	Name string
	// Weight is the template's share of the fleet (default 1).
	Weight float64
	// Cores is the worker's CPU cores.
	Cores float64
	// MemBytes is the worker's memory capacity.
	MemBytes int64
	// KeepAlive is the idle-container retention window.
	KeepAlive time.Duration
	// ColdStart is the non-CPU part of a container boot.
	ColdStart time.Duration
	// CreateConcurrency bounds parallel container creations.
	CreateConcurrency int
}

// Fleet declares the simulated worker fleet.
type Fleet struct {
	// Workers is the fleet size.
	Workers int
	// Zones partitions workers into failure domains (worker i belongs to
	// zone i mod Zones); outages target zones. Default 1.
	Zones int
	// Templates are the weighted worker shapes; empty means one default
	// worker template.
	Templates []Template
}

// Dispatch configures every worker's FaaSBatch scheduler and the
// cluster's routing policy.
type Dispatch struct {
	// Adaptive enables the load-aware dispatch windows of PR 5.
	Adaptive bool
	// Interval is the fixed window (or adaptive cap). Zero: core default.
	Interval time.Duration
	// MinInterval is the adaptive floor. Zero: dispatch default.
	MinInterval time.Duration
	// MaxGroupSize early-closes windows, fixed or adaptive. Zero:
	// unbounded.
	MaxGroupSize int
	// Balancing is the routing strategy (default fn-affinity).
	Balancing cluster.Balancing
	// MaxRetries bounds re-batches after container faults. Negative
	// disables retries; zero takes the core default.
	MaxRetries int
}

// Routing selects the cluster's scheduling policy at the scenario top
// level, overriding dispatch.balancing: "pull" parks invocations in the
// sharded per-function queues of internal/pullsched and late-binds each
// to the least-loaded worker with free capacity; "hash" is the
// consistent-hash push baseline the pull experiments compare against.
// Sim mode only — the live smoke path has no fleet routing tier.
type Routing struct {
	// Policy is "pull" or "hash".
	Policy string
	// QueueDepth bounds each function queue before arrivals shed
	// (pull only; 0 = unbounded).
	QueueDepth int
	// Batch caps grants handed to one worker per pull (pull only;
	// 0 = pullsched default).
	Batch int
	// Capacity is the concurrent leases one worker absorbs (pull only;
	// 0 = pullsched default).
	Capacity int
}

// ChaosTuning carries the injector-wide knobs; per-phase rates live on
// the phases.
type ChaosTuning struct {
	// ColdStartFactor multiplies a SlowColdStart victim's boot. Zero: 5.
	ColdStartFactor float64
	// Hang is the injected handler-hang duration (live mode). Zero: 2s.
	Hang time.Duration
}

// MixEntry is one weighted workload family in a phase's function mix.
type MixEntry struct {
	// Fn is the function-name stem; with Instances > 1 the generated
	// functions are fn-0 .. fn-(Instances-1).
	Fn string
	// Weight is the entry's share of arrivals (default 1).
	Weight float64
	// Instances spreads the entry over that many distinct functions
	// (default 1). Distinct functions are what fleet routing distributes.
	Instances int
	// IO selects the storage-client workload family instead of fib.
	IO bool
	// FibN fixes the Fibonacci input; zero samples the paper's Fig. 9
	// duration distribution per invocation.
	FibN int
}

// Outage is one zone-style failure event inside a phase: the zone's
// workers are marked down (stopping new routing, draining in-flight
// work), in cascade order when Cascade is positive, and marked back up
// after Duration.
type Outage struct {
	// Zone is the failure domain (worker i is in zone i mod Zones).
	Zone int
	// At is the outage start, relative to the phase start.
	At time.Duration
	// Duration is how long each worker stays down.
	Duration time.Duration
	// Cascade staggers the zone's workers going down across this span —
	// a rolling failure instead of an instantaneous one. Zero downs the
	// whole zone at once.
	Cascade time.Duration
}

// Phase is one workload segment.
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// Duration is the phase length.
	Duration time.Duration
	// Arrival selects the arrival process: "poisson" (default),
	// "constant" or "bursty".
	Arrival string
	// Rate is the mean arrival rate in invocations per second. Zero
	// means a quiet phase (no arrivals).
	Rate float64
	// Ramp linearly ramps the rate from zero over this span at the
	// phase's start. Zero starts at full rate.
	Ramp time.Duration
	// BurstSize is the mean invocations per burst ("bursty" only;
	// default 20).
	BurstSize int
	// BurstIaT is the mean gap inside a burst ("bursty" only; default
	// 5ms).
	BurstIaT time.Duration
	// Mix is the weighted function mix. Required when Rate > 0.
	Mix []MixEntry
	// Chaos is the injector rate table for the phase's span; kinds
	// absent here inject nothing during the phase. A phase without a
	// chaos section runs clean.
	Chaos map[chaos.Kind]float64
	// Outages are the phase's zone failures.
	Outages []Outage
}

// Invariant names a run assertion, optionally parameterised.
type Invariant struct {
	// Name identifies the assertion (see invariants.go for the catalog).
	Name string
	// Value parameterises rate-style invariants (e.g. max-failure-rate).
	Value float64
	// SLO parameterises the "slo" invariant.
	SLO *SLOSpec
}

// SLOSpec declares one per-function burn-rate objective for the "slo"
// invariant: the run fails when the function's multi-window error-budget
// burn (internal/slo, windows scaled to the scenario span) crosses
// MaxBurn at any point of the run.
//
//   - slo: {function: f1, p99_ms: 250, max_burn: 2.0}
//   - slo: {function: f2, availability: 0.999, max_burn: 4}
type SLOSpec struct {
	// Function is the objective's target function name.
	Function string
	// Quantile is the objective quantile (0.99 for p99_ms, etc.); its
	// complement is the error budget.
	Quantile float64
	// Target is the latency bound; zero means a pure availability
	// objective (only failures burn budget).
	Target time.Duration
	// MaxBurn is the breach threshold on the paired burn rates
	// (default 2).
	MaxBurn float64
}

// Objective converts the spec to its internal/slo form.
func (s *SLOSpec) Objective() slo.Objective {
	return slo.Objective{Function: s.Function, Quantile: s.Quantile, Target: s.Target, MaxBurn: s.MaxBurn}
}

// key identifies the objective for dedupe and status lookup.
func (s *SLOSpec) key() string {
	return fmt.Sprintf("%s|%g|%s|%g", s.Function, s.Quantile, s.Target, s.MaxBurn)
}

// SLOObjectives collects the scenario's slo invariants in declaration
// order, for seeding a tracker.
func (s *Scenario) SLOObjectives() []slo.Objective {
	var out []slo.Objective
	for _, inv := range s.Invariants {
		if inv.Name == "slo" && inv.SLO != nil {
			out = append(out, inv.SLO.Objective())
		}
	}
	return out
}

// Scenario is a fully decoded scenario file.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Seed fixes arrivals, fleet generation and the fault schedule: two
	// sim runs of one (scenario, seed) produce byte-identical report
	// bodies.
	Seed int64
	// Mode selects sim or live execution (default sim).
	Mode Mode
	// Fleet declares the workers.
	Fleet Fleet
	// Dispatch configures scheduling and routing.
	Dispatch Dispatch
	// Routing optionally overrides the routing policy (sim mode only):
	// "pull" runs the worker-pull late-binding scheduler, "hash" the
	// consistent-hash push baseline.
	Routing *Routing
	// Autoscale optionally runs the predictive autoscaling control plane
	// over the fleet (sim mode only): fleet.workers bounds the maximum
	// size and the controller grows/shrinks ring membership with demand.
	// Note that with autoscaling on, standby workers count as "down" in
	// samples and the all-recovered invariant.
	Autoscale *autoscale.Config
	// Chaos carries injector-wide tuning.
	Chaos ChaosTuning
	// Sampling is the metrics sampling interval (default 1s).
	Sampling time.Duration
	// MaxDrain bounds the post-workload quiescence wait in virtual time
	// (default 1h): a scenario whose work cannot drain fails instead of
	// spinning forever.
	MaxDrain time.Duration
	// Phases is the workload timeline.
	Phases []Phase
	// Invariants are the scenario's extra assertions; the conservation
	// invariants are always checked.
	Invariants []Invariant
	// LiveTimeScale compresses live-mode wall time: phase durations and
	// arrival gaps are divided by it (default 1; sim ignores it).
	LiveTimeScale float64
}

// DisableChaos strips every phase's fault-injection rates, leaving
// arrivals, outages and invariants intact. cmd/faasstress -no-chaos uses
// it to prove an SLO invariant holds on the fault-free baseline of the
// same scenario.
func (s *Scenario) DisableChaos() {
	for i := range s.Phases {
		s.Phases[i].Chaos = nil
	}
}

// TotalDuration sums the phase durations.
func (s *Scenario) TotalDuration() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// ExpectedInvocations estimates the arrival count: the sum over phases
// of rate x effective duration (ramps count half).
func (s *Scenario) ExpectedInvocations() int64 {
	var total float64
	for _, p := range s.Phases {
		eff := p.Duration.Seconds()
		if p.Ramp > 0 {
			ramp := p.Ramp.Seconds()
			if ramp > eff {
				ramp = eff
			}
			eff -= ramp / 2
		}
		total += p.Rate * eff
	}
	return int64(total)
}

// Parse decodes and validates a scenario file.
func Parse(src []byte) (*Scenario, error) {
	root, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	m, ok := root.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: top level must be a mapping")
	}
	d := &decoder{}
	sc := d.scenario(m)
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// validate checks cross-field constraints after decoding.
func (s *Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing \"scenario\" name")
	}
	if s.Fleet.Workers <= 0 {
		return fmt.Errorf("scenario: fleet.workers must be positive, got %d", s.Fleet.Workers)
	}
	if s.Fleet.Zones <= 0 || s.Fleet.Zones > s.Fleet.Workers {
		return fmt.Errorf("scenario: fleet.zones must be in [1, workers], got %d", s.Fleet.Zones)
	}
	for i, t := range s.Fleet.Templates {
		if t.Weight < 0 {
			return fmt.Errorf("scenario: fleet template %d: negative weight", i)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: at least one phase is required")
	}
	for i, p := range s.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("scenario: phase %d (%s): duration must be positive", i, p.Name)
		}
		if p.Rate < 0 {
			return fmt.Errorf("scenario: phase %d (%s): negative rate", i, p.Name)
		}
		if p.Rate > 0 && len(p.Mix) == 0 {
			return fmt.Errorf("scenario: phase %d (%s): rate %g with an empty mix", i, p.Name, p.Rate)
		}
		switch p.Arrival {
		case "poisson", "constant", "bursty":
		default:
			return fmt.Errorf("scenario: phase %d (%s): unknown arrival process %q", i, p.Name, p.Arrival)
		}
		var weight float64
		for j, e := range p.Mix {
			if e.Fn == "" {
				return fmt.Errorf("scenario: phase %d mix %d: missing fn", i, j)
			}
			if e.Weight < 0 {
				return fmt.Errorf("scenario: phase %d mix %d: negative weight", i, j)
			}
			weight += e.Weight
			if e.Instances < 1 || e.Instances > 1<<20 {
				return fmt.Errorf("scenario: phase %d mix %d: instances must be in [1, 2^20], got %d", i, j, e.Instances)
			}
			if e.IO && e.FibN != 0 {
				return fmt.Errorf("scenario: phase %d mix %d: io and fib-n are mutually exclusive", i, j)
			}
		}
		if p.Rate > 0 && weight <= 0 {
			return fmt.Errorf("scenario: phase %d (%s): mix weights sum to zero", i, p.Name)
		}
		for k, r := range p.Chaos {
			if r < 0 || r >= 1 {
				return fmt.Errorf("scenario: phase %d (%s): chaos rate for %v must be in [0, 1), got %g", i, p.Name, k, r)
			}
		}
		for j, o := range p.Outages {
			if o.Zone < 0 || o.Zone >= s.Fleet.Zones {
				return fmt.Errorf("scenario: phase %d outage %d: zone %d out of range [0, %d)", i, j, o.Zone, s.Fleet.Zones)
			}
			if o.At < 0 || o.Duration <= 0 || o.Cascade < 0 {
				return fmt.Errorf("scenario: phase %d outage %d: at/duration/cascade must be non-negative (duration positive)", i, j)
			}
		}
	}
	for i, inv := range s.Invariants {
		if _, ok := invariantCatalog[inv.Name]; !ok {
			return fmt.Errorf("scenario: invariant %d: unknown name %q", i, inv.Name)
		}
		if inv.Name == "slo" {
			if inv.SLO == nil {
				return fmt.Errorf("scenario: invariant %d: slo needs its objective mapping", i)
			}
			if err := inv.SLO.Objective().Validate(); err != nil {
				return fmt.Errorf("scenario: invariant %d: %w", i, err)
			}
		}
	}
	if s.LiveTimeScale <= 0 {
		return fmt.Errorf("scenario: live-time-scale must be positive, got %g", s.LiveTimeScale)
	}
	if s.Routing != nil {
		if s.Mode != ModeSim {
			return fmt.Errorf("scenario: routing requires mode: sim (the live smoke path has no fleet routing tier)")
		}
		switch s.Routing.Policy {
		case "pull":
		case "hash":
			if s.Routing.QueueDepth != 0 || s.Routing.Batch != 0 || s.Routing.Capacity != 0 {
				return fmt.Errorf("scenario: routing queue-depth/batch/capacity tune the pull policy, not %q", s.Routing.Policy)
			}
		default:
			return fmt.Errorf("scenario: routing.policy must be \"pull\" or \"hash\", got %q", s.Routing.Policy)
		}
		if s.Routing.QueueDepth < 0 || s.Routing.Batch < 0 || s.Routing.Capacity < 0 {
			return fmt.Errorf("scenario: routing queue-depth/batch/capacity must be non-negative")
		}
	}
	if s.Autoscale != nil {
		if s.Mode != ModeSim {
			return fmt.Errorf("scenario: autoscale requires mode: sim (the live smoke path has no fleet driver)")
		}
		resolved := *s.Autoscale
		if resolved.MaxWorkers <= 0 || resolved.MaxWorkers > s.Fleet.Workers {
			resolved.MaxWorkers = s.Fleet.Workers
		}
		if err := resolved.WithDefaults().Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// decoder walks the parsed YAML tree, accumulating the first error with
// a dotted path for context.
type decoder struct {
	err error
}

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: %s: %s", path, fmt.Sprintf(format, args...))
	}
}

// section extracts a nested mapping (nil when absent).
func (d *decoder) section(m map[string]any, path, key string) map[string]any {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	sub, ok := v.(map[string]any)
	if !ok {
		d.fail(path+"."+key, "expected a mapping")
		return nil
	}
	return sub
}

// list extracts a nested sequence (nil when absent).
func (d *decoder) list(m map[string]any, path, key string) []any {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	seq, ok := v.([]any)
	if !ok {
		d.fail(path+"."+key, "expected a sequence")
		return nil
	}
	return seq
}

func (d *decoder) str(m map[string]any, path, key, def string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail(path+"."+key, "expected a string, got %T", v)
		return def
	}
	return s
}

func (d *decoder) boolean(m map[string]any, path, key string, def bool) bool {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		d.fail(path+"."+key, "expected a boolean, got %T", v)
		return def
	}
	return b
}

func (d *decoder) integer(m map[string]any, path, key string, def int64) int64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	n, ok := v.(int64)
	if !ok {
		d.fail(path+"."+key, "expected an integer, got %T", v)
		return def
	}
	return n
}

func (d *decoder) float(m map[string]any, path, key string, def float64) float64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	default:
		d.fail(path+"."+key, "expected a number, got %T", v)
		return def
	}
}

// duration reads a time.ParseDuration string ("250ms", "1m30s").
func (d *decoder) duration(m map[string]any, path, key string, def time.Duration) time.Duration {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.fail(path+"."+key, "expected a duration string like \"250ms\", got %T", v)
		return def
	}
	dur, err := time.ParseDuration(s)
	if err != nil {
		d.fail(path+"."+key, "bad duration %q", s)
		return def
	}
	return dur
}

// bytes reads a byte size: an integer, or a string with a KiB/MiB/GiB/
// KB/MB/GB suffix.
func (d *decoder) bytes(m map[string]any, path, key string, def int64) int64 {
	v, ok := m[key]
	if !ok || v == nil {
		return def
	}
	switch n := v.(type) {
	case int64:
		return n
	case string:
		b, err := parseBytes(n)
		if err != nil {
			d.fail(path+"."+key, "%v", err)
			return def
		}
		return b
	default:
		d.fail(path+"."+key, "expected a byte size, got %T", v)
		return def
	}
}

// parseBytes converts "16GiB" / "512MB" / "64" style sizes.
func parseBytes(s string) (int64, error) {
	units := []struct {
		suffix string
		mult   int64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			f, err := strconv.ParseFloat(num, 64)
			if err != nil || f < 0 {
				return 0, fmt.Errorf("bad byte size %q", s)
			}
			return int64(f * float64(u.mult)), nil
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n, nil
}

// known rejects unrecognised keys, the defence against typo'd scenarios
// silently running with defaults.
func (d *decoder) known(m map[string]any, path string, keys ...string) {
	allowed := map[string]bool{}
	for _, k := range keys {
		allowed[k] = true
	}
	var unknown []string
	for k := range m {
		if !allowed[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		d.fail(path, "unknown key %q", unknown[0])
	}
}

func (d *decoder) scenario(m map[string]any) *Scenario {
	d.known(m, "top level", "scenario", "seed", "mode", "fleet", "dispatch", "routing",
		"autoscale", "chaos", "sampling", "max-drain", "phases", "invariants", "live-time-scale")
	sc := &Scenario{
		Name:          d.str(m, "", "scenario", ""),
		Seed:          d.integer(m, "", "seed", 1),
		Sampling:      d.duration(m, "", "sampling", time.Second),
		MaxDrain:      d.duration(m, "", "max-drain", time.Hour),
		LiveTimeScale: d.float(m, "", "live-time-scale", 1),
	}
	switch mode := d.str(m, "", "mode", "sim"); mode {
	case "sim":
		sc.Mode = ModeSim
	case "live":
		sc.Mode = ModeLive
	default:
		d.fail("mode", "must be \"sim\" or \"live\", got %q", mode)
	}
	sc.Fleet = d.fleet(d.section(m, "", "fleet"))
	sc.Dispatch = d.dispatch(d.section(m, "", "dispatch"))
	sc.Routing = d.routing(d.section(m, "", "routing"))
	sc.Autoscale = d.autoscale(d.section(m, "", "autoscale"))
	sc.Chaos = d.chaosTuning(d.section(m, "", "chaos"))
	for i, v := range d.list(m, "", "phases") {
		path := fmt.Sprintf("phases[%d]", i)
		pm, ok := v.(map[string]any)
		if !ok {
			d.fail(path, "expected a mapping")
			continue
		}
		sc.Phases = append(sc.Phases, d.phase(pm, path))
	}
	for i, v := range d.list(m, "", "invariants") {
		path := fmt.Sprintf("invariants[%d]", i)
		switch iv := v.(type) {
		case string:
			sc.Invariants = append(sc.Invariants, Invariant{Name: iv})
		case map[string]any:
			if len(iv) != 1 {
				d.fail(path, "expected one \"name: value\" pair")
				continue
			}
			for name, val := range iv {
				if name == "slo" {
					sm, ok := val.(map[string]any)
					if !ok {
						d.fail(path, "slo expects a mapping like {function: f1, p99_ms: 250, max_burn: 2}")
						continue
					}
					sc.Invariants = append(sc.Invariants, Invariant{Name: name, SLO: d.sloSpec(sm, path)})
					continue
				}
				f, ok := toFloat(val)
				if !ok {
					d.fail(path, "expected a numeric value for %q", name)
					continue
				}
				sc.Invariants = append(sc.Invariants, Invariant{Name: name, Value: f})
			}
		default:
			d.fail(path, "expected an invariant name or \"name: value\"")
		}
	}
	return sc
}

// sloQuantileKeys maps the latency-objective keys to their quantiles.
var sloQuantileKeys = []struct {
	key      string
	quantile float64
}{
	{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p95_ms", 0.95}, {"p99_ms", 0.99},
}

// sloSpec decodes one slo invariant mapping: a function, exactly one
// objective key (pXX_ms latency bound or availability quantile) and an
// optional max_burn threshold.
func (d *decoder) sloSpec(m map[string]any, path string) *SLOSpec {
	d.known(m, path, "function", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "availability", "max_burn")
	spec := &SLOSpec{
		Function: d.str(m, path, "function", ""),
		MaxBurn:  d.float(m, path, "max_burn", 2),
	}
	objectives := 0
	for _, qk := range sloQuantileKeys {
		if _, ok := m[qk.key]; !ok {
			continue
		}
		objectives++
		spec.Quantile = qk.quantile
		ms := d.float(m, path, qk.key, 0)
		if ms <= 0 {
			d.fail(path, "%s must be a positive millisecond bound, got %g", qk.key, ms)
		}
		spec.Target = time.Duration(ms * float64(time.Millisecond))
	}
	if _, ok := m["availability"]; ok {
		objectives++
		spec.Quantile = d.float(m, path, "availability", 0)
	}
	if objectives != 1 {
		d.fail(path, "slo needs exactly one objective key (p50_ms/p90_ms/p95_ms/p99_ms or availability), got %d", objectives)
	}
	return spec
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	default:
		return 0, false
	}
}

func (d *decoder) fleet(m map[string]any) Fleet {
	f := Fleet{Workers: 1, Zones: 1}
	if m == nil {
		return f
	}
	d.known(m, "fleet", "workers", "zones", "templates")
	f.Workers = int(d.integer(m, "fleet", "workers", 1))
	f.Zones = int(d.integer(m, "fleet", "zones", 1))
	for i, v := range d.list(m, "fleet", "templates") {
		path := fmt.Sprintf("fleet.templates[%d]", i)
		tm, ok := v.(map[string]any)
		if !ok {
			d.fail(path, "expected a mapping")
			continue
		}
		d.known(tm, path, "name", "weight", "cores", "mem", "keepalive", "coldstart", "create-concurrency")
		f.Templates = append(f.Templates, Template{
			Name:              d.str(tm, path, "name", fmt.Sprintf("template-%d", i)),
			Weight:            d.float(tm, path, "weight", 1),
			Cores:             d.float(tm, path, "cores", 0),
			MemBytes:          d.bytes(tm, path, "mem", 0),
			KeepAlive:         d.duration(tm, path, "keepalive", 0),
			ColdStart:         d.duration(tm, path, "coldstart", 0),
			CreateConcurrency: int(d.integer(tm, path, "create-concurrency", 0)),
		})
	}
	return f
}

func (d *decoder) dispatch(m map[string]any) Dispatch {
	dc := Dispatch{Balancing: cluster.FnAffinity}
	if m == nil {
		return dc
	}
	d.known(m, "dispatch", "adaptive", "interval", "min-interval", "max-group", "balancing", "max-retries")
	dc.Adaptive = d.boolean(m, "dispatch", "adaptive", false)
	dc.Interval = d.duration(m, "dispatch", "interval", 0)
	dc.MinInterval = d.duration(m, "dispatch", "min-interval", 0)
	dc.MaxGroupSize = int(d.integer(m, "dispatch", "max-group", 0))
	dc.MaxRetries = int(d.integer(m, "dispatch", "max-retries", 0))
	switch b := d.str(m, "dispatch", "balancing", "fn-affinity"); b {
	case "fn-affinity":
		dc.Balancing = cluster.FnAffinity
	case "least-loaded":
		dc.Balancing = cluster.LeastLoaded
	case "round-robin":
		dc.Balancing = cluster.RoundRobin
	case "consistent-hash":
		dc.Balancing = cluster.ConsistentHash
	default:
		d.fail("dispatch.balancing", "unknown strategy %q", b)
	}
	return dc
}

// routing decodes the optional routing-policy block.
func (d *decoder) routing(m map[string]any) *Routing {
	if m == nil {
		return nil
	}
	d.known(m, "routing", "policy", "queue-depth", "batch", "capacity")
	return &Routing{
		Policy:     d.str(m, "routing", "policy", ""),
		QueueDepth: int(d.integer(m, "routing", "queue-depth", 0)),
		Batch:      int(d.integer(m, "routing", "batch", 0)),
		Capacity:   int(d.integer(m, "routing", "capacity", 0)),
	}
}

// autoscale decodes the optional autoscaling block. Absent keys keep
// autoscale.Config defaults; max-workers 0 clamps to the fleet size at
// run time. target-per-worker is the one required knob.
func (d *decoder) autoscale(m map[string]any) *autoscale.Config {
	if m == nil {
		return nil
	}
	d.known(m, "autoscale", "min-workers", "max-workers", "target-per-worker",
		"headroom", "eval-interval", "warmup", "drain-budget", "scale-down-after",
		"scale-to-zero-after", "prewarm-quantile", "alpha")
	return &autoscale.Config{
		MinWorkers:       int(d.integer(m, "autoscale", "min-workers", 0)),
		MaxWorkers:       int(d.integer(m, "autoscale", "max-workers", 0)),
		TargetPerWorker:  d.float(m, "autoscale", "target-per-worker", 0),
		Headroom:         d.float(m, "autoscale", "headroom", 0),
		EvalInterval:     d.duration(m, "autoscale", "eval-interval", 0),
		Warmup:           d.duration(m, "autoscale", "warmup", 0),
		DrainBudget:      d.duration(m, "autoscale", "drain-budget", 0),
		ScaleDownAfter:   int(d.integer(m, "autoscale", "scale-down-after", 0)),
		ScaleToZeroAfter: d.duration(m, "autoscale", "scale-to-zero-after", 0),
		PrewarmQuantile:  d.float(m, "autoscale", "prewarm-quantile", 0),
		Alpha:            d.float(m, "autoscale", "alpha", 0),
	}
}

func (d *decoder) chaosTuning(m map[string]any) ChaosTuning {
	var c ChaosTuning
	if m == nil {
		return c
	}
	d.known(m, "chaos", "cold-start-factor", "hang")
	c.ColdStartFactor = d.float(m, "chaos", "cold-start-factor", 0)
	c.Hang = d.duration(m, "chaos", "hang", 0)
	return c
}

func (d *decoder) phase(m map[string]any, path string) Phase {
	d.known(m, path, "name", "duration", "arrival", "rate", "ramp",
		"burst-size", "burst-iat", "mix", "chaos", "outages")
	p := Phase{
		Name:      d.str(m, path, "name", ""),
		Duration:  d.duration(m, path, "duration", 0),
		Arrival:   d.str(m, path, "arrival", "poisson"),
		Rate:      d.float(m, path, "rate", 0),
		Ramp:      d.duration(m, path, "ramp", 0),
		BurstSize: int(d.integer(m, path, "burst-size", 20)),
		BurstIaT:  d.duration(m, path, "burst-iat", 5*time.Millisecond),
	}
	if p.Name == "" {
		p.Name = strings.TrimPrefix(path, "phases")
	}
	for i, v := range d.list(m, path, "mix") {
		mpath := fmt.Sprintf("%s.mix[%d]", path, i)
		mm, ok := v.(map[string]any)
		if !ok {
			d.fail(mpath, "expected a mapping")
			continue
		}
		d.known(mm, mpath, "fn", "weight", "instances", "io", "fib-n")
		p.Mix = append(p.Mix, MixEntry{
			Fn:        d.str(mm, mpath, "fn", ""),
			Weight:    d.float(mm, mpath, "weight", 1),
			Instances: int(d.integer(mm, mpath, "instances", 1)),
			IO:        d.boolean(mm, mpath, "io", false),
			FibN:      int(d.integer(mm, mpath, "fib-n", 0)),
		})
	}
	if cm := d.section(m, path, "chaos"); cm != nil {
		p.Chaos = map[chaos.Kind]float64{}
		for name, v := range cm {
			kind, ok := chaos.KindByName(name)
			if !ok {
				d.fail(path+".chaos", "unknown fault kind %q", name)
				continue
			}
			rate, ok := toFloat(v)
			if !ok {
				d.fail(path+".chaos", "expected a numeric rate for %q", name)
				continue
			}
			p.Chaos[kind] = rate
		}
	}
	for i, v := range d.list(m, path, "outages") {
		opath := fmt.Sprintf("%s.outages[%d]", path, i)
		om, ok := v.(map[string]any)
		if !ok {
			d.fail(opath, "expected a mapping")
			continue
		}
		d.known(om, opath, "zone", "at", "duration", "cascade")
		p.Outages = append(p.Outages, Outage{
			Zone:     int(d.integer(om, opath, "zone", 0)),
			At:       d.duration(om, opath, "at", 0),
			Duration: d.duration(om, opath, "duration", 0),
			Cascade:  d.duration(om, opath, "cascade", 0),
		})
	}
	return p
}
