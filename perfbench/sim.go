package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"faasbatch/internal/obs"
	"faasbatch/internal/scenario"
)

// fleetYAML is scenarios/fleet-1m.yaml scaled to ~205k invocations over
// 100 workers, keeping its chaos and outages.
//
//go:embed fleet-200k.yaml
var fleetYAML []byte

// simWarmScale is the arrival-rate share of the set-up's warm-up run,
// which primes the runner's reusable engine before timing.
const simWarmScale = 0.1

// minSimRuns is the fewest timed runs: two runs of one seed must
// produce the same report hash.
const minSimRuns = 2

// loadFleet parses the scenario with the given seed and rate scale.
func loadFleet(seed int64, scale float64) (*scenario.Scenario, error) {
	sc, err := scenario.Parse(fleetYAML)
	if err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	sc.Seed = seed
	for i := range sc.Phases {
		sc.Phases[i].Rate *= scale
	}
	return sc, nil
}

// simSetup parses the scenario and primes a runner with a warm-up run,
// reporting the thread CPU time it took (see simRun).
func simSetup(c config) (*scenario.Runner, *scenario.Scenario, time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	sc, err := loadFleet(c.seed, c.simScale)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, err := loadFleet(c.seed, c.simScale*simWarmScale)
	if err != nil {
		return nil, nil, 0, err
	}
	runner := scenario.NewRunner()
	if _, err := runner.RunBody(warm); err != nil {
		return nil, nil, 0, fmt.Errorf("warm-up run: %w", err)
	}
	return runner, sc, threadCPU() - t0, nil
}

// simRun is one timed scenario.Runner.RunBody and its report.
type simRun struct {
	body *scenario.Body
	sha  string
	// start, mid and end bound RunBody and the report on the wall clock.
	start, mid, end time.Time
	// run and report are the simulating thread's CPU time in RunBody
	// and in the marshalling and hashing of its body. The simulator is
	// single-threaded, so on an otherwise idle core this is its wall
	// time; unlike wall time, it excludes the stretches in which other
	// tenants of a shared host hold the core.
	run, report time.Duration
	// cpu is the whole process's CPU time, collector workers included.
	cpu time.Duration
}

// runSim runs the scenario once: RunBody, then the canonical body
// marshalling and its sha256 (the report's determinism fingerprint).
func runSim(r *scenario.Runner, sc *scenario.Scenario) (simRun, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, start, t0 := cpuTime(), time.Now(), threadCPU()
	body, err := r.RunBody(sc)
	if err != nil {
		return simRun{}, fmt.Errorf("run scenario: %w", err)
	}
	t1, mid := threadCPU(), time.Now()
	b, err := body.Marshal()
	if err != nil {
		return simRun{}, fmt.Errorf("marshal report: %w", err)
	}
	sum := sha256.Sum256(b)
	t2 := threadCPU()
	return simRun{
		body: body, sha: hex.EncodeToString(sum[:]),
		start: start, mid: mid, end: time.Now(),
		run: t1 - t0, report: t2 - t1,
		cpu: cpuTime() - cpu0,
	}, nil
}

// simCheck checks one run: every invariant holds and the report hash
// matches the first run of the same seed.
func simCheck(o *outcome, s simRun, wantSHA string) {
	o.attempted++
	bad := false
	for _, v := range s.body.Violations() {
		o.problem("invariant %s failed: %s", v.Name, v.Detail)
		bad = true
	}
	if s.sha != wantSHA {
		o.problem("report body_sha256 %s differs from %s for the same seed", s.sha, wantSHA)
		bad = true
	}
	if bad {
		o.failed++
	}
}

func runSimFleet(ctx context.Context, c config) (*outcome, error) {
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var setups []float64
	var runner *scenario.Runner
	var sc *scenario.Scenario
	for i := 0; i < reps; i++ {
		var took time.Duration
		var err error
		runner, sc, took, err = simSetup(c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	o := newOutcome()
	var runs []simRun
	// reports and walls are each run's thread CPU and wall time in ms,
	// RunBody to hashed body; the wall times pace the window.
	var reports, walls []float64
	wantSHA := ""
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	mem := startRSS()
	// Run while the next run, at the median pace so far, still ends
	// inside the window.
	for len(runs) < minSimRuns || !time.Now().Add(time.Duration(median(walls)*float64(time.Millisecond))).After(deadline) {
		if err := ctx.Err(); err != nil {
			mem.finish()
			return nil, err
		}
		s, err := runSim(runner, sc)
		if err != nil {
			mem.finish()
			return nil, err
		}
		if wantSHA == "" {
			wantSHA = s.sha
			if c.corrupt {
				wantSHA = "not-" + wantSHA
			}
		}
		simCheck(o, s, wantSHA)
		runs = append(runs, s)
		reports = append(reports, ms(s.run+s.report))
		walls = append(walls, ms(s.end.Sub(s.start)))
	}
	rss := mem.finish()
	var runCPU, cpus, peaks []float64
	for _, s := range runs {
		inv := float64(s.body.Totals.Submitted)
		runCPU = append(runCPU, s.run.Seconds())
		cpus = append(cpus, ratio(ms(s.cpu), inv))
		peaks = append(peaks, peakMB(rss, s.start, s.end))
	}
	first := runs[0].body
	inv := float64(first.Totals.Submitted)
	o.notes = append(o.notes, fmt.Sprintf("scenario %s seed %d: %d simulated invocations per run, %d runs, body_sha256 %s",
		first.Scenario, first.Seed, first.Totals.Submitted, len(runs), runs[0].sha),
		fmt.Sprintf("set-ups %.4g s of thread CPU; reports %.5g ms of thread CPU, %.5g ms of wall time", setups, reports, walls))
	if !c.trace {
		// A simulator user waits for a report: latency is the time from
		// RunBody to the hashed body, per run, in thread CPU time (see
		// simRun).
		o.set("latency_p50_ms", median(reports), len(runs))
		o.set("latency_p99_ms", quantile(sortedCopy(reports), 0.99), len(runs))
		o.set("slo_attainment", ratio(float64(first.Totals.Completed-first.Totals.Failed), inv), int(first.Totals.Submitted))
		o.set("success_share", float64(o.attempted-o.failed)/float64(o.attempted), int(o.attempted))
		o.set("cpu_ms_per_inv", median(cpus), len(runs))
		o.set("kinv_per_s", inv/median(runCPU)/1000, len(runs))
		o.set("peak_rss_mb", median(peaks), len(peaks))
		o.set("setup_s", median(setups), len(setups))
		return o, nil
	}
	return o, simTraced(c, o, runner, sc, wantSHA, median(runCPU))
}

// runtimeKeys are the runtime/metrics samples the traced run reads.
var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// simTraced runs the scenario once more under a CPU profile and the
// runtime's counters and fills in the sim-fleet per-layer metrics;
// untracedRun is the untraced runs' median RunBody time.
func simTraced(c config, o *outcome, runner *scenario.Runner, sc *scenario.Scenario, wantSHA string, untracedRun float64) error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(c.out, fmt.Sprintf("cpu-%s-seed%d.pprof", c.workload, c.seed))
	fh, err := os.Create(profPath)
	if err != nil {
		return err
	}
	tracer, err := obs.NewWallTracer(16, 1)
	if err != nil {
		_ = fh.Close()
		return err
	}
	if err := pprof.StartCPUProfile(fh); err != nil {
		_ = fh.Close()
		return err
	}
	before := readRuntime()
	s, err := runSim(runner, sc)
	after := readRuntime()
	pprof.StopCPUProfile()
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	simCheck(o, s, wantSHA)
	id := tracer.Begin()
	tracer.Record(obs.Span{Trace: id, Name: "sim.run", Start: tracer.Stamp(s.start), End: tracer.Stamp(s.mid)})
	tracer.Record(obs.Span{Trace: id, Name: "scenario.report", Start: tracer.Stamp(s.mid), End: tracer.Stamp(s.end)})
	spanPath := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := writeSpans(spanPath, tracer); err != nil {
		return err
	}
	o.notes = append(o.notes, "span file "+spanPath, "cpu profile "+profPath)

	pf, err := os.Open(profPath)
	if err != nil {
		return err
	}
	samples, err := readCPUProfile(pf)
	_ = pf.Close() // read-only
	if err != nil {
		return err
	}
	inv := float64(s.body.Totals.Submitted)
	d := func(i int) float64 { return after[i] - before[i] }
	o.set("sim.run_s", s.run.Seconds(), 1)
	o.set("scenario.report_s", s.report.Seconds(), 1)
	o.set("sim.allocs_per_inv", d(0)/inv, int(inv))
	o.set("sim.bytes_per_inv", d(1)/inv, int(inv))
	o.set("sim.gc_cycles", d(2), 0)
	o.set("sim.gc_cpu_share", ratio(d(3), d(4)), 0)
	shares, total := cpuShares(samples)
	for _, pkg := range []string{"sim", "cpusched", "node", "core", "cluster", "scenario", "fnruntime", "gc"} {
		o.set("sim.cpu_share."+pkg, shares[pkg], int(total))
	}
	o.set("scenario.groups", float64(s.body.Scheduler.Groups), 0)
	o.set("scenario.cold_starts", float64(s.body.Fleet.ColdStarts), 0)
	o.set("trace.overhead_share", ratio(s.run.Seconds()-untracedRun, untracedRun), 1)
	return nil
}
