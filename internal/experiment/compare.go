package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/cluster"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// The three comparisons below keep fixed sizes and ignore Options.Scale:
// shrunk, their traces would prove nothing.

// ms is d in milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// dispatchRun is one (trace, mode) replay's scheduling summary.
type dispatchRun struct {
	trace, mode        string
	invocations        int
	schedP50, schedP99 time.Duration
	avgGroup           float64
	fastPaths          int64
}

// compareDispatch replays a sparse and a dense-burst I/O trace under
// fixed and adaptive 200ms windows, in that order: sparse fixed, sparse
// adaptive, bursty fixed, bursty adaptive.
func compareDispatch(seed int64) ([]dispatchRun, error) {
	scfg := trace.DefaultBurstConfig(workload.IO)
	scfg.Seed, scfg.N = seed, 200
	sparse, err := trace.SynthesizeSteady(scfg)
	if err != nil {
		return nil, err
	}
	// No background Poisson arrivals, and long bursts that amortise the
	// one idle fast path each burst head pays before the rate estimate
	// re-primes.
	bcfg := trace.DefaultBurstConfig(workload.IO)
	bcfg.Seed, bcfg.BurstFraction, bcfg.MeanBurstSize = seed, 1.0, 160
	bursty, err := trace.SynthesizeBurst(bcfg)
	if err != nil {
		return nil, err
	}
	var runs []dispatchRun
	for _, tc := range []struct {
		name string
		tr   trace.Trace
	}{{"sparse", sparse}, {"bursty", bursty}} {
		for _, mode := range []string{"fixed", "adaptive"} {
			res, err := Run(Config{Policy: PolicyFaaSBatch, Trace: tc.tr, Seed: seed,
				Interval: 200 * time.Millisecond, AdaptiveDispatch: mode == "adaptive"})
			if err != nil {
				return nil, fmt.Errorf("dispatch %s %s: %w", tc.name, mode, err)
			}
			sched := res.CDF(metrics.Scheduling)
			runs = append(runs, dispatchRun{trace: tc.name, mode: mode, invocations: tc.tr.Len(),
				schedP50: sched.P(0.5), schedP99: sched.P(0.99),
				avgGroup: res.Batch.AvgGroupSize(), fastPaths: res.Batch.FastPathDispatches})
		}
	}
	return runs, nil
}

// sparseSpeedup is fixed/adaptive sched p50 on the sparse trace.
func sparseSpeedup(runs []dispatchRun) float64 { return ms(runs[0].schedP50) / ms(runs[1].schedP50) }

// burstyGroupRatio is adaptive/fixed average group size on the bursty
// trace (1.0: batching fully preserved).
func burstyGroupRatio(runs []dispatchRun) float64 { return runs[3].avgGroup / runs[2].avgGroup }

// RunExtensionDispatch compares fixed windows with the adaptive Invoke
// Mapper (DESIGN.md §11): the idle fast path should remove a sparse
// arrival's window wait without giving up a dense burst's batching.
func RunExtensionDispatch(w io.Writer, opts Options) error {
	runs, err := compareDispatch(opts.Seed)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("Extension — fixed vs adaptive dispatch windows (interval 200ms)",
		"trace", "mode", "invocations", "sched p50 (ms)", "sched p99 (ms)", "avg group", "fast paths")
	for _, r := range runs {
		tbl.AddRow(r.trace, r.mode, r.invocations, ms(r.schedP50), ms(r.schedP99), r.avgGroup, r.fastPaths)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nsparse sched p50, fixed/adaptive: %.3f×\nbursty avg group, adaptive/fixed: %.3f\n",
		sparseSpeedup(runs), burstyGroupRatio(runs))
	return err
}

// arrival is one scheduled submission of a fleet replay.
type arrival struct {
	at   time.Duration
	spec workload.Spec
}

// fleetRun is one replay of an arrival schedule through a simulated
// cluster.
type fleetRun struct {
	label                  string
	invocations, completed int
	p50, p99               time.Duration
	coldStarts             int     // containers created across the fleet
	loadCV                 float64 // metrics.LoadCV of per-worker routed counts
	// workerSeconds is the provisioned worker-time: the autoscaler's
	// busy integral, or nodes × horizon for a static fleet.
	workerSeconds        float64
	scaleUps, scaleDowns uint64
	finalReady           int
}

// replayFleet submits each arrival at its offset to a fresh cluster,
// runs to the horizon and summarises the invocations that completed.
// before, when set, schedules extra events (such as an outage) first.
func replayFleet(label string, seed int64, ccfg cluster.Config, arrivals []arrival,
	horizon time.Duration, before func(*sim.Engine, *cluster.Cluster)) (fleetRun, error) {
	eng := sim.New(seed)
	cl, err := cluster.New(eng, ccfg)
	if err != nil {
		return fleetRun{}, fmt.Errorf("%s fleet: %w", label, err)
	}
	if before != nil {
		before(eng, cl)
	}
	var latencies []time.Duration
	for i, a := range arrivals {
		eng.Schedule(a.at, func() {
			cl.Submit(fnruntime.NewInvocation(int64(i), a.spec, eng.Now()), func(*fnruntime.Invocation) {
				latencies = append(latencies, eng.Now().Duration()-a.at)
			})
		})
	}
	eng.RunUntil(sim.Time(horizon))
	if err := cl.Close(); err != nil {
		return fleetRun{}, fmt.Errorf("%s fleet: %w", label, err)
	}
	cdf := metrics.NewCDF(latencies)
	st := cl.AutoscaleStatus()
	run := fleetRun{label: label, invocations: len(arrivals), completed: len(latencies),
		p50: cdf.P(0.5), p99: cdf.P(0.99), coldStarts: cl.TotalContainers(),
		loadCV:        metrics.LoadCV(cl.RoutedPerNode()),
		workerSeconds: float64(ccfg.Nodes) * horizon.Seconds(),
		scaleUps:      st.ScaleUps, scaleDowns: st.ScaleDowns, finalReady: cl.ReadyNodes()}
	if ccfg.Autoscale != nil {
		run.workerSeconds = cl.AutoscaleBusyIntegral().Seconds()
	}
	return run, nil
}

// compareAutoscale replays one schedule (a trickle, a dense burst phase,
// then a quiet tail to a 16s horizon) through a static fleet and an
// elastic one that may scale to zero in the tail.
func compareAutoscale(seed int64) (static, elastic fleetRun, err error) {
	fns := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var arr []arrival
	add := func(at time.Duration) { arr = append(arr, arrival{at, workload.IOSpec(fns[len(arr)%len(fns)])}) }
	// Offsets avoid the controller's 200ms tick multiples so the replay
	// is unambiguous. Trickle: 20/s for 2s.
	for t := 3 * time.Millisecond; t < 2*time.Second; t += 50 * time.Millisecond {
		add(t)
	}
	// Spike: a 20-arrival burst every 100ms for 4s (~200/s).
	for burst := 2 * time.Second; burst < 6*time.Second; burst += 100 * time.Millisecond {
		for i := 0; i < 20; i++ {
			add(burst + 3*time.Millisecond + time.Duration(i)*time.Millisecond)
		}
	}
	ccfg := cluster.Config{Nodes: 8, Balancing: cluster.ConsistentHash}
	if static, err = replayFleet("static", seed, ccfg, arr, 16*time.Second, nil); err != nil {
		return
	}
	ccfg.Autoscale = &autoscale.Config{
		MaxWorkers:       8,
		TargetPerWorker:  40,
		EvalInterval:     200 * time.Millisecond,
		Warmup:           100 * time.Millisecond,
		DrainBudget:      400 * time.Millisecond,
		ScaleDownAfter:   2,
		ScaleToZeroAfter: 2 * time.Second,
	}
	elastic, err = replayFleet("elastic", seed, ccfg, arr, 16*time.Second, nil)
	return
}

// RunExtensionAutoscale compares a static fleet with the predictive
// autoscaler (DESIGN.md §12): the worker-seconds elasticity saves against
// the tail latency its extra cold starts cost.
func RunExtensionAutoscale(w io.Writer, opts Options) error {
	static, elastic, err := compareAutoscale(opts.Seed)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable(
		"Extension — elastic vs static fleet (8 workers, horizon 16s)",
		"fleet", "completed", "p50 (ms)", "p99 (ms)", "cold starts", "worker-s", "scale-ups", "scale-downs", "final ready")
	for _, r := range []fleetRun{static, elastic} {
		tbl.AddRow(r.label, fmt.Sprintf("%d/%d", r.completed, r.invocations), ms(r.p50), ms(r.p99),
			r.coldStarts, r.workerSeconds, r.scaleUps, r.scaleDowns, r.finalReady)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nworker-seconds, static/elastic: %.3f×\n", static.workerSeconds/elastic.workerSeconds)
	return err
}

// compareRouting replays a 90/10-skewed schedule, 200/s for 12s and run
// to a 20s horizon, through
// consistent hashing and worker-pull late binding, with worker 1 down
// from 4s to 8s. Nine in ten arrivals hit one hot CPU-bound function:
// ~55 cores of demand that hashing pins to one 32-core owner, a quarter
// of the fleet's cores. The rest rotate over eight cold functions.
func compareRouting(seed int64) (hash, pull fleetRun, err error) {
	hot, err := workload.FibSpec(30)
	if err != nil {
		return
	}
	cold, err := workload.FibSpec(24)
	if err != nil {
		return
	}
	hot.Name = "hot"
	var arr []arrival
	for t := 3 * time.Millisecond; t < 12*time.Second; t += 5 * time.Millisecond {
		spec := hot
		if i := len(arr); i%10 == 9 {
			spec = cold
			spec.Name = fmt.Sprintf("cold-%d", (i/10)%8)
		}
		arr = append(arr, arrival{t, spec})
	}
	// SetDown fails only for a worker index outside the fleet.
	outage := func(eng *sim.Engine, cl *cluster.Cluster) {
		eng.Schedule(4*time.Second, func() { _ = cl.SetDown(1, true) })
		eng.Schedule(8*time.Second, func() { _ = cl.SetDown(1, false) })
	}
	ccfg := cluster.Config{Nodes: 8, Balancing: cluster.ConsistentHash}
	if hash, err = replayFleet("hash", seed, ccfg, arr, 20*time.Second, outage); err != nil {
		return
	}
	// Capacity sizes each worker's lease window to its cores: enough to
	// keep its scheduler fed, few enough that late binding still
	// equalises queue depth.
	ccfg.Balancing, ccfg.Pull = cluster.Pull, &pullsched.Config{QueueDepth: 1 << 16, Capacity: 32}
	pull, err = replayFleet("pull", seed, ccfg, arr, 20*time.Second, outage)
	return
}

// RunExtensionRouting compares consistent-hash push routing with
// worker-pull late binding (DESIGN.md §13) on skewed traffic with a
// mid-run worker failure: the locality vs late-binding trade-off.
func RunExtensionRouting(w io.Writer, opts Options) error {
	hash, pull, err := compareRouting(opts.Seed)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable(
		"Extension — hash vs pull routing (8 workers, 90/10 skew, worker 1 down 4s–8s)",
		"policy", "invocations", "lost", "p50 (ms)", "p99 (ms)", "load CV")
	for _, r := range []fleetRun{hash, pull} {
		tbl.AddRow(r.label, r.invocations, r.invocations-r.completed, ms(r.p50), ms(r.p99), r.loadCV)
	}
	return tbl.Render(w)
}
