package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"faasbatch/internal/cluster"
	"faasbatch/internal/fnruntime"
	"faasbatch/internal/metrics"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/sim"
	"faasbatch/internal/workload"
)

// routingRun summarises one policy's replay of the shared skewed
// schedule.
type routingRun struct {
	Policy      string  `json:"policy"`
	Invocations int     `json:"invocations"`
	Lost        int     `json:"lost"`
	P50Millis   float64 `json:"latency_p50_ms"`
	P99Millis   float64 `json:"latency_p99_ms"`
	// LoadCV is the coefficient of variation (stddev/mean) of per-worker
	// routed-invocation counts: 0 is a perfectly even spread.
	LoadCV float64 `json:"load_cv"`
	// Requeues counts leases reclaimed from the failed worker and
	// re-granted (pull only) — the zero-lost mechanism at work.
	Requeues uint64 `json:"requeues,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
}

// routingReport is the BENCH_routing.json shape: one 90/10-skewed
// arrival schedule with a mid-run worker failure, replayed through the
// consistent-hash push policy and the worker-pull late-binding policy.
// Both replays are deterministic simulations over the same fleet.
type routingReport struct {
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	NumCPU        int          `json:"num_cpu"`
	Nodes         int          `json:"nodes"`
	HorizonMillis float64      `json:"horizon_ms"`
	Runs          []routingRun `json:"runs"`
	// PullBeatsHashP99 / PullBeatsHashLoadCV are the headline claims CI
	// gates on: late binding must spread a skewed workload more evenly
	// and cut its tail latency.
	PullBeatsHashP99    bool `json:"pull_beats_hash_p99"`
	PullBeatsHashLoadCV bool `json:"pull_beats_hash_load_cv"`
	// ZeroLost holds when both policies completed every invocation
	// despite the mid-run worker failure.
	ZeroLost bool `json:"zero_lost"`
}

const (
	routingNodes   = 8
	routingHorizon = 20 * time.Second
	// The victim worker fails mid-run and recovers before the tail.
	routingVictim       = 1
	routingOutageStart  = 4 * time.Second
	routingOutageEnd    = 8 * time.Second
	routingArrivalGap   = 5 * time.Millisecond // 200/s
	routingArrivalStart = 3 * time.Millisecond
	routingWorkloadEnd  = 12 * time.Second
)

// routingSchedule is the shared 90/10 skewed arrival schedule: nine of
// every ten invocations hit one hot CPU-bound function (which
// consistent hashing pins to a single owner whose cores it overwhelms
// — ~55 cores of demand against one 32-core worker, but only a quarter
// of the 8-worker fleet), the rest rotate over eight cold functions.
func routingSchedule() ([]workload.Spec, error) {
	hot, err := workload.FibSpec(30)
	if err != nil {
		return nil, err
	}
	hot.Name = "hot"
	cold, err := workload.FibSpec(24)
	if err != nil {
		return nil, err
	}
	var specs []workload.Spec
	i := 0
	for t := routingArrivalStart; t < routingWorkloadEnd; t += routingArrivalGap {
		if i%10 == 9 {
			c := cold
			c.Name = fmt.Sprintf("cold-%d", (i/10)%routingNodes)
			specs = append(specs, c)
		} else {
			specs = append(specs, hot)
		}
		i++
	}
	return specs, nil
}

// runRouting replays the schedule through both policies and writes the
// comparison report.
func runRouting(w io.Writer) error {
	rep := routingReport{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Nodes:         routingNodes,
		HorizonMillis: float64(routingHorizon.Milliseconds()),
	}
	for _, mode := range []string{"hash", "pull"} {
		run, err := routingReplay(mode)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, run)
	}
	hash, pull := rep.Runs[0], rep.Runs[1]
	rep.PullBeatsHashP99 = pull.P99Millis < hash.P99Millis
	rep.PullBeatsHashLoadCV = pull.LoadCV < hash.LoadCV
	rep.ZeroLost = hash.Lost == 0 && pull.Lost == 0

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// routingReplay runs the shared schedule through one policy, failing
// the victim worker mid-run and recovering it before the quiet tail.
func routingReplay(mode string) (routingRun, error) {
	eng := sim.New(17)
	ccfg := cluster.Config{
		Nodes:     routingNodes,
		Balancing: cluster.ConsistentHash,
	}
	if mode == "pull" {
		ccfg.Balancing = cluster.Pull
		// Capacity sizes the per-worker lease window to the worker's
		// cores: wide enough to keep the node's scheduler fed, narrow
		// enough that late binding still equalises queue depth.
		ccfg.Pull = &pullsched.Config{
			QueueDepth: 1 << 16,
			Capacity:   32,
		}
	}
	cl, err := cluster.New(eng, ccfg)
	if err != nil {
		return routingRun{}, err
	}
	fns, err := routingSchedule()
	if err != nil {
		return routingRun{}, err
	}
	var latencies []time.Duration
	for i, spec := range fns {
		i, spec := i, spec
		off := routingArrivalStart + time.Duration(i)*routingArrivalGap
		eng.Schedule(off, func() {
			inv := fnruntime.NewInvocation(int64(i), spec, eng.Now())
			cl.Submit(inv, func(*fnruntime.Invocation) {
				latencies = append(latencies, eng.Now().Duration()-off)
			})
		})
	}
	eng.Schedule(routingOutageStart, func() { _ = cl.SetDown(routingVictim, true) })
	eng.Schedule(routingOutageEnd, func() { _ = cl.SetDown(routingVictim, false) })
	eng.RunUntil(sim.Time(routingHorizon))
	cdf := metrics.NewCDF(latencies)
	run := routingRun{
		Policy:      mode,
		Invocations: len(fns),
		Lost:        len(fns) - len(latencies),
		P50Millis:   durMillis(cdf.P(0.50)),
		P99Millis:   durMillis(cdf.P(0.99)),
		LoadCV:      round3(routedCV(cl.RoutedPerNode())),
	}
	if mode == "pull" {
		st := cl.PullStats()
		run.Requeues = st.Requeues
		run.Shed = st.Shed
	}
	if err := cl.Close(); err != nil {
		return routingRun{}, err
	}
	return run, nil
}

// routedCV is the coefficient of variation of per-worker routed counts.
func routedCV(routed []int) float64 {
	if len(routed) == 0 {
		return 0
	}
	var sum float64
	for _, r := range routed {
		sum += float64(r)
	}
	mean := sum / float64(len(routed))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, r := range routed {
		d := float64(r) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(routed))) / mean
}
