// Package trace synthesises the Azure-derived workloads of the evaluation.
//
// The paper reduces the Azure Functions trace to two published artefacts —
// the Fig. 9 duration distribution and the Fig. 10 replay slice (800
// invocations within one minute of day 13) — and the Azure Blob trace to
// the Fig. 3 inter-arrival-time CDF. This package generates all three with
// deterministic seeding, plus the Fig. 2 day-long invocation patterns of
// hot functions, and round-trips traces through CSV for inspection with
// cmd/tracegen.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"faasbatch/internal/workload"
)

// Invocation is one function request in a trace.
type Invocation struct {
	// Offset is the arrival time relative to the trace start.
	Offset time.Duration
	// Fn is the function identity used for grouping.
	Fn string
	// FibN is the Fibonacci input for CPU-intensive invocations
	// (0 for I/O invocations).
	FibN int
}

// Trace is a time-ordered sequence of invocations.
type Trace struct {
	// Name labels the trace in output.
	Name string
	// Span is the covered time window.
	Span time.Duration
	// Invocations are sorted by Offset.
	Invocations []Invocation
}

// Len reports the number of invocations.
func (t Trace) Len() int { return len(t.Invocations) }

// Head returns a copy of the trace truncated to the first n invocations
// (the paper evaluates I/O functions on the first 400 of the 800).
func (t Trace) Head(n int) Trace {
	if n > len(t.Invocations) {
		n = len(t.Invocations)
	}
	out := Trace{Name: t.Name, Span: t.Span}
	out.Invocations = make([]Invocation, n)
	copy(out.Invocations, t.Invocations[:n])
	if n > 0 {
		out.Span = out.Invocations[n-1].Offset
	}
	return out
}

// PerSecondCounts bins arrivals per second, the Fig. 10 rendering.
func (t Trace) PerSecondCounts() []int {
	secs := int(math.Ceil(t.Span.Seconds()))
	if secs < 1 {
		secs = 1
	}
	counts := make([]int, secs)
	for _, inv := range t.Invocations {
		i := int(inv.Offset.Seconds())
		if i >= len(counts) {
			i = len(counts) - 1
		}
		counts[i]++
	}
	return counts
}

// Functions reports the distinct function names, sorted.
func (t Trace) Functions() []string {
	set := map[string]bool{}
	for _, inv := range t.Invocations {
		set[inv.Fn] = true
	}
	out := make([]string, 0, len(set))
	for fn := range set {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// BurstConfig parameterises SynthesizeBurst.
type BurstConfig struct {
	// Seed drives deterministic generation.
	Seed int64
	// N is the number of invocations (the paper replays 800).
	N int
	// Span is the window length (the paper replays one minute).
	Span time.Duration
	// Kind selects the workload family.
	Kind workload.Kind
	// IOName is the function name used when Kind is IO.
	IOName string
	// BurstFraction is the share of invocations arriving in bursts
	// (the rest are background Poisson arrivals).
	BurstFraction float64
	// MeanBurstSize is the mean invocations per burst cluster.
	MeanBurstSize int
	// IntraBurstIaT is the mean gap between invocations inside a burst.
	IntraBurstIaT time.Duration
}

// DefaultBurstConfig returns the paper's replay parameters (Fig. 10):
// 800 invocations within one minute, dominated by bursts.
func DefaultBurstConfig(kind workload.Kind) BurstConfig {
	return BurstConfig{
		Seed:          13, // Azure day 13
		N:             800,
		Span:          time.Minute,
		Kind:          kind,
		IOName:        "s3func",
		BurstFraction: 0.95,
		MeanBurstSize: 80,
		IntraBurstIaT: 8 * time.Millisecond,
	}
}

// SynthesizeBurst generates a bursty one-window trace reproducing the
// Fig. 10 invocation pattern: most arrivals cluster into spikes with tight
// temporal locality, over a low-rate Poisson background.
func SynthesizeBurst(cfg BurstConfig) (Trace, error) {
	if cfg.N <= 0 {
		return Trace{}, fmt.Errorf("trace: burst N must be positive, got %d", cfg.N)
	}
	if cfg.Span <= 0 {
		return Trace{}, fmt.Errorf("trace: burst span must be positive, got %v", cfg.Span)
	}
	if cfg.BurstFraction < 0 || cfg.BurstFraction > 1 {
		return Trace{}, fmt.Errorf("trace: burst fraction must be in [0, 1], got %v", cfg.BurstFraction)
	}
	if cfg.MeanBurstSize <= 0 {
		cfg.MeanBurstSize = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewGenerator(cfg.Seed + 1)

	offsets := make([]time.Duration, 0, cfg.N)
	burstN := int(float64(cfg.N) * cfg.BurstFraction)
	for len(offsets) < burstN {
		center := time.Duration(rng.Float64() * float64(cfg.Span))
		size := 1 + rng.Intn(2*cfg.MeanBurstSize) // mean ~= MeanBurstSize
		at := center
		for i := 0; i < size && len(offsets) < burstN; i++ {
			at += time.Duration(rng.ExpFloat64() * float64(cfg.IntraBurstIaT))
			if at >= cfg.Span {
				break
			}
			offsets = append(offsets, at)
		}
	}
	for len(offsets) < cfg.N {
		offsets = append(offsets, time.Duration(rng.Float64()*float64(cfg.Span)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	tr := Trace{Name: fmt.Sprintf("azure-burst-%s", cfg.Kind), Span: cfg.Span}
	tr.Invocations = make([]Invocation, cfg.N)
	for i, off := range offsets {
		inv := Invocation{Offset: off}
		switch cfg.Kind {
		case workload.IO:
			inv.Fn = cfg.IOName
		default:
			// One deployed function ("fib") invoked with varying N, as in
			// the paper's benchmark — the Invoke Mapper groups by function
			// identity, not by input.
			inv.Fn = "fib"
			inv.FibN = gen.SampleFibN()
		}
		tr.Invocations[i] = inv
	}
	return tr, nil
}

// SynthesizeSteady generates a Poisson arrival stream (no bursts) with
// the same invocation count and span as a burst config — the control
// workload for the burstiness ablation: FaaSBatch's batching edge depends
// on temporal locality, so steady low-rate arrivals shrink it.
func SynthesizeSteady(cfg BurstConfig) (Trace, error) {
	if cfg.N <= 0 {
		return Trace{}, fmt.Errorf("trace: steady N must be positive, got %d", cfg.N)
	}
	if cfg.Span <= 0 {
		return Trace{}, fmt.Errorf("trace: steady span must be positive, got %v", cfg.Span)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewGenerator(cfg.Seed + 1)
	offsets := make([]time.Duration, cfg.N)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(cfg.Span))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	tr := Trace{Name: fmt.Sprintf("steady-%s", cfg.Kind), Span: cfg.Span}
	tr.Invocations = make([]Invocation, cfg.N)
	for i, off := range offsets {
		inv := Invocation{Offset: off}
		switch cfg.Kind {
		case workload.IO:
			inv.Fn = cfg.IOName
		default:
			inv.Fn = "fib"
			inv.FibN = gen.SampleFibN()
		}
		tr.Invocations[i] = inv
	}
	return tr, nil
}

// DailyConfig parameterises SynthesizeDaily.
type DailyConfig struct {
	// Seed drives deterministic generation.
	Seed int64
	// Functions is the number of hot functions (the paper plots three).
	Functions int
	// MinPerFn is the minimum invocations per function over the day
	// (the paper selects functions invoked more than 1000 times).
	MinPerFn int
}

// DefaultDailyConfig returns the Fig. 2 parameters.
func DefaultDailyConfig() DailyConfig {
	return DailyConfig{Seed: 2, Functions: 3, MinPerFn: 1000}
}

// SynthesizeDaily generates day-long invocation patterns for hot functions
// (Fig. 2): bursty activity windows with tight temporal locality over a
// sparse background.
func SynthesizeDaily(cfg DailyConfig) (Trace, error) {
	if cfg.Functions <= 0 {
		return Trace{}, fmt.Errorf("trace: daily functions must be positive, got %d", cfg.Functions)
	}
	if cfg.MinPerFn < 0 {
		return Trace{}, fmt.Errorf("trace: daily min-per-fn must be non-negative, got %d", cfg.MinPerFn)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	day := 24 * time.Hour
	tr := Trace{Name: "azure-daily", Span: day}
	for f := 0; f < cfg.Functions; f++ {
		fn := fmt.Sprintf("hot%c", 'A'+f%26)
		var offsets []time.Duration
		// Bursty on-periods: a handful of active windows with high rate.
		windows := 4 + rng.Intn(8)
		for w := 0; w < windows; w++ {
			start := time.Duration(rng.Float64() * float64(day))
			dur := time.Duration((5 + rng.Float64()*40) * float64(time.Minute))
			rate := 2 + rng.Float64()*18 // invocations per minute
			n := int(dur.Minutes() * rate)
			for i := 0; i < n; i++ {
				at := start + time.Duration(rng.Float64()*float64(dur))
				if at < day {
					offsets = append(offsets, at)
				}
			}
		}
		// Sparse background so the function is never fully silent.
		for i := 0; i < 48; i++ {
			offsets = append(offsets, time.Duration(rng.Float64()*float64(day)))
		}
		// Top up to the hotness threshold.
		for len(offsets) < cfg.MinPerFn {
			start := time.Duration(rng.Float64() * float64(day))
			for i := 0; i < 50 && len(offsets) < cfg.MinPerFn; i++ {
				at := start + time.Duration(rng.ExpFloat64()*float64(2*time.Second))
				if at < day {
					offsets = append(offsets, at)
				}
			}
		}
		for _, off := range offsets {
			tr.Invocations = append(tr.Invocations, Invocation{Offset: off, Fn: fn})
		}
	}
	sort.Slice(tr.Invocations, func(i, j int) bool { return tr.Invocations[i].Offset < tr.Invocations[j].Offset })
	return tr, nil
}

// MinuteCounts bins one function's arrivals into the 1440 minutes of a
// day (the Fig. 2 rendering).
func MinuteCounts(t Trace, fn string) []int {
	counts := make([]int, 24*60)
	for _, inv := range t.Invocations {
		if inv.Fn != fn {
			continue
		}
		i := int(inv.Offset.Minutes())
		if i >= len(counts) {
			i = len(counts) - 1
		}
		counts[i]++
	}
	return counts
}

// SpecsFor maps trace invocations to function specs: fib(N) entries become
// CPU-intensive specs, the rest I/O specs.
func SpecsFor(tr Trace) ([]workload.Spec, error) {
	specs := make([]workload.Spec, tr.Len())
	fibCache := map[int]workload.Spec{}
	ioCache := map[string]workload.Spec{}
	for i, inv := range tr.Invocations {
		if inv.FibN > 0 {
			s, ok := fibCache[inv.FibN]
			if !ok {
				var err error
				s, err = workload.FibSpec(inv.FibN)
				if err != nil {
					return nil, fmt.Errorf("trace: invocation %d: %w", i, err)
				}
				fibCache[inv.FibN] = s
			}
			// Group by the trace's function identity (one deployed "fib"
			// function with varying N), not by input value.
			s.Name = inv.Fn
			specs[i] = s
			continue
		}
		s, ok := ioCache[inv.Fn]
		if !ok {
			s = workload.IOSpec(inv.Fn)
			ioCache[inv.Fn] = s
		}
		specs[i] = s
	}
	return specs, nil
}
