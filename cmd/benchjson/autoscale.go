package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/cluster"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// autoscaleRun summarises one fleet mode's replay of the shared burst
// schedule.
type autoscaleRun struct {
	Mode        string  `json:"mode"`
	Invocations int     `json:"invocations"`
	P50Millis   float64 `json:"latency_p50_ms"`
	P99Millis   float64 `json:"latency_p99_ms"`
	// ColdStarts counts containers created across the fleet — each one
	// paid a cold-start penalty somewhere in the latency distribution.
	ColdStarts int `json:"cold_starts"`
	// WorkerSeconds is the provisioned worker-time the run consumed:
	// the busy integral for the elastic fleet, nodes × horizon for the
	// static one. The elastic/static gap is what autoscaling buys.
	WorkerSeconds float64 `json:"worker_seconds"`
	ScaleUps      uint64  `json:"scale_ups,omitempty"`
	ScaleDowns    uint64  `json:"scale_downs,omitempty"`
	Wakes         uint64  `json:"wakes,omitempty"`
	FinalReady    int     `json:"final_ready_workers"`
}

// autoscaleReport is the BENCH_autoscale.json shape: the same bursty
// schedule replayed through a static 8-worker fleet and an elastic one
// that starts at a single worker and may scale to zero in the quiet
// tail. Both replays are deterministic simulations.
type autoscaleReport struct {
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	NumCPU        int            `json:"num_cpu"`
	Nodes         int            `json:"nodes"`
	HorizonMillis float64        `json:"horizon_ms"`
	Runs          []autoscaleRun `json:"runs"`
	// WorkerSecondsRatio is static/elastic provisioned worker-time —
	// how many times over the static fleet pays for capacity the
	// elastic one releases.
	WorkerSecondsRatio float64 `json:"worker_seconds_ratio"`
	// P99PenaltyMillis is elastic p99 minus static p99: the latency
	// price of the extra cold starts elasticity incurs, which batching
	// through the dispatch idle reset is meant to amortise.
	P99PenaltyMillis float64 `json:"p99_penalty_ms"`
}

const (
	autoscaleNodes   = 8
	autoscaleHorizon = 16 * time.Second
)

// autoscaleSchedule is the shared arrival schedule: a trickle, then a
// dense burst phase, then a long quiet tail that lets the elastic fleet
// drain. Offsets avoid the controller's 200ms tick multiples so the
// replay is unambiguous.
func autoscaleSchedule() []time.Duration {
	var offs []time.Duration
	// Trickle: 20/s for 2s.
	for t := 3 * time.Millisecond; t < 2*time.Second; t += 50 * time.Millisecond {
		offs = append(offs, t)
	}
	// Spike: a 20-arrival burst every 100ms for 4s (~200/s).
	for burst := 2 * time.Second; burst < 6*time.Second; burst += 100 * time.Millisecond {
		for i := 0; i < 20; i++ {
			offs = append(offs, burst+3*time.Millisecond+time.Duration(i)*time.Millisecond)
		}
	}
	// Quiet tail: nothing until the horizon.
	return offs
}

// runAutoscale replays the schedule through both fleet modes and writes
// the comparison report.
func runAutoscale(w io.Writer) error {
	rep := autoscaleReport{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Nodes:         autoscaleNodes,
		HorizonMillis: float64(autoscaleHorizon.Milliseconds()),
	}
	var elastic *autoscale.Config = &autoscale.Config{
		MinWorkers:       0,
		MaxWorkers:       autoscaleNodes,
		TargetPerWorker:  40,
		EvalInterval:     200 * time.Millisecond,
		Warmup:           100 * time.Millisecond,
		DrainBudget:      400 * time.Millisecond,
		ScaleDownAfter:   2,
		ScaleToZeroAfter: 2 * time.Second,
	}
	for _, mode := range []struct {
		name string
		acfg *autoscale.Config
	}{{"static", nil}, {"elastic", elastic}} {
		run, err := autoscaleReplay(mode.name, mode.acfg)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, run)
	}
	static, elasticRun := rep.Runs[0], rep.Runs[1]
	if elasticRun.WorkerSeconds > 0 {
		rep.WorkerSecondsRatio = round3(static.WorkerSeconds / elasticRun.WorkerSeconds)
	}
	rep.P99PenaltyMillis = round3(elasticRun.P99Millis - static.P99Millis)

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// autoscaleReplay runs the shared schedule through one fleet mode.
func autoscaleReplay(mode string, acfg *autoscale.Config) (autoscaleRun, error) {
	eng := sim.New(11)
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:     autoscaleNodes,
		Balancing: cluster.ConsistentHash,
		Autoscale: acfg,
	})
	if err != nil {
		return autoscaleRun{}, err
	}
	fns := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	offs := autoscaleSchedule()
	var latencies []time.Duration
	for i, off := range offs {
		i, off := i, off
		spec := workload.IOSpec(fns[i%len(fns)])
		eng.Schedule(off, func() {
			inv := fnruntime.NewInvocation(int64(i), spec, eng.Now())
			cl.Submit(inv, func(*fnruntime.Invocation) {
				latencies = append(latencies, eng.Now().Duration()-off)
			})
		})
	}
	eng.RunUntil(sim.Time(autoscaleHorizon))
	if len(latencies) != len(offs) {
		return autoscaleRun{}, fmt.Errorf("autoscale %s: %d/%d invocations completed by the horizon", mode, len(latencies), len(offs))
	}
	cdf := metrics.NewCDF(latencies)
	run := autoscaleRun{
		Mode:        mode,
		Invocations: len(offs),
		P50Millis:   durMillis(cdf.P(0.50)),
		P99Millis:   durMillis(cdf.P(0.99)),
		ColdStarts:  cl.TotalContainers(),
		FinalReady:  cl.ReadyNodes(),
	}
	if acfg != nil {
		st := cl.AutoscaleStatus()
		run.WorkerSeconds = round3(cl.AutoscaleBusyIntegral().Seconds())
		run.ScaleUps, run.ScaleDowns, run.Wakes = st.ScaleUps, st.ScaleDowns, st.Wakes
	} else {
		run.WorkerSeconds = round3(float64(autoscaleNodes) * autoscaleHorizon.Seconds())
	}
	if err := cl.Close(); err != nil {
		return autoscaleRun{}, err
	}
	return run, nil
}

func durMillis(d time.Duration) float64 {
	return round3(float64(d.Microseconds()) / 1000)
}
