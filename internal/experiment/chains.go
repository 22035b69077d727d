package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// ChainConfig describes a chained-function workload: every trace arrival
// triggers a sequential chain of function invocations (stage k+1 is
// submitted when stage k completes), the microservice-workflow setting
// the original Kraken targets.
type ChainConfig struct {
	// Policy is the scheduler under test.
	Policy PolicyKind
	// Trace supplies the chain heads (arrival times and base functions).
	Trace trace.Trace
	// Stages is the chain length (>= 1).
	Stages int
	// Seed drives the simulation.
	Seed int64
	// Interval is the dispatch/provisioning window.
	Interval time.Duration
	// SLO supplies Kraken's objectives (nil derives p98 from a Vanilla
	// chain pre-run's stage latencies).
	SLO map[string]time.Duration
}

// ChainRecord is one completed chain.
type ChainRecord struct {
	// Head identifies the chain (the trace invocation index).
	Head int64
	// Total is the head-arrival-to-last-stage-completion latency.
	Total time.Duration
	// Stages holds each stage's latency decomposition.
	Stages []metrics.Record
}

// ChainResult aggregates a chain replay.
type ChainResult struct {
	// Policy names the scheduler that ran.
	Policy string
	// Stages echoes the configured chain length.
	Stages int
	// Chains holds one record per completed chain.
	Chains []ChainRecord
	// TotalContainers counts containers provisioned.
	TotalContainers int
	// Makespan is the completion time of the last chain.
	Makespan time.Duration
}

// TotalCDF returns the distribution of end-to-end chain latencies.
func (r *ChainResult) TotalCDF() metrics.CDF {
	vals := make([]time.Duration, len(r.Chains))
	for i, c := range r.Chains {
		vals[i] = c.Total
	}
	return metrics.NewCDF(vals)
}

// stageSpec derives stage k's function spec from the head spec: the same
// body under a per-stage function identity, so every stage forms its own
// groups.
func stageSpec(head workload.Spec, k int) workload.Spec {
	s := head
	s.Name = fmt.Sprintf("%s#s%d", head.Name, k+1)
	return s
}

// RunChain executes the chained workload to completion.
func RunChain(cfg ChainConfig) (*ChainResult, error) {
	if cfg.Stages < 1 {
		return nil, fmt.Errorf("experiment: chain stages must be >= 1, got %d", cfg.Stages)
	}
	base := Config{
		Policy:   cfg.Policy,
		Trace:    cfg.Trace,
		Interval: cfg.Interval,
		Seed:     cfg.Seed,
		SLO:      cfg.SLO,
	}
	if err := base.normalise(); err != nil {
		return nil, err
	}
	if cfg.Policy == PolicyKraken && base.SLO == nil {
		// Derive stage SLOs from a Vanilla chain pre-run.
		pre, err := RunChain(ChainConfig{
			Policy:   PolicyVanilla,
			Trace:    cfg.Trace,
			Stages:   cfg.Stages,
			Seed:     cfg.Seed,
			Interval: cfg.Interval,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: derive chain SLOs: %w", err)
		}
		perFn := map[string][]time.Duration{}
		for _, ch := range pre.Chains {
			for _, st := range ch.Stages {
				perFn[st.Fn] = append(perFn[st.Fn], st.Total())
			}
		}
		base.SLO = make(map[string]time.Duration, len(perFn))
		for fn, lats := range perFn {
			base.SLO[fn] = metrics.NewCDF(lats).P(0.98)
		}
	}

	eng := sim.New(base.Seed)
	nd, _, sched, _, err := buildScheduler(eng, base, nil)
	if err != nil {
		return nil, err
	}
	specs, err := trace.SpecsFor(base.Trace)
	if err != nil {
		return nil, err
	}

	res := &ChainResult{Policy: sched.Name(), Stages: cfg.Stages}
	total := base.Trace.Len()
	done := 0
	var nextID int64
	for i, inv := range base.Trace.Invocations {
		i := i
		head := specs[i]
		eng.Schedule(inv.Offset, func() {
			rec := ChainRecord{Head: int64(i)}
			start := eng.Now()
			var runStage func(k int)
			runStage = func(k int) {
				nextID++
				fi := fnruntime.NewInvocation(nextID, stageSpec(head, k), eng.Now())
				sched.Submit(fi, func(fin *fnruntime.Invocation) {
					rec.Stages = append(rec.Stages, fin.Rec)
					if k+1 < cfg.Stages {
						runStage(k + 1)
						return
					}
					rec.Total = eng.Now().Sub(start)
					res.Chains = append(res.Chains, rec)
					done++
				})
			}
			runStage(0)
		})
	}
	for done < total {
		if !eng.Step() {
			return nil, fmt.Errorf("experiment: engine drained with %d/%d chains complete", done, total)
		}
	}
	res.Makespan = eng.Now().Duration()
	if err := sched.Close(); err != nil {
		return nil, fmt.Errorf("experiment: close scheduler: %w", err)
	}
	res.TotalContainers = nd.TotalCreated()
	return res, nil
}

// RunExtensionChains compares the four policies on sequential function
// chains of growing length.
func RunExtensionChains(w io.Writer, opts Options) error {
	cfg := trace.DefaultBurstConfig(workload.CPUIntensive)
	cfg.Seed = opts.Seed
	cfg.N = opts.scaled(200) // chains multiply invocations by stage count
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		return err
	}
	for _, stages := range []int{1, 3, 5} {
		tbl := metrics.NewTable(
			fmt.Sprintf("Extension — %d-stage function chains (%d chains)", stages, tr.Len()),
			"policy", "containers", "chain p50", "chain p99")
		for _, p := range AllPolicies {
			res, err := RunChain(ChainConfig{
				Policy: p,
				Trace:  tr,
				Stages: stages,
				Seed:   opts.Seed,
			})
			if err != nil {
				return fmt.Errorf("chains %v x%d: %w", p, stages, err)
			}
			cdf := res.TotalCDF()
			tbl.AddRow(res.Policy, res.TotalContainers,
				cdf.P(0.5).Round(time.Millisecond), cdf.P(0.99).Round(time.Millisecond))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
