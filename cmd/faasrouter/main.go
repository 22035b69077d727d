// Command faasrouter runs the live FaaSBatch routing tier: a front door
// over N faasgate workers that preserves batching locality across the
// fleet with consistent-hash function affinity, health-checked worker
// membership, bounded-retry failover, and admission control.
//
// Usage:
//
//	faasgate   -addr :8081 -worker-id w1 &
//	faasgate   -addr :8082 -worker-id w2 &
//	faasrouter -workers 'w1=http://127.0.0.1:8081,w2=http://127.0.0.1:8082'
//
//	curl -s localhost:8090/invoke -d '{"fn":"fib","payload":{"n":30}}'
//	curl -s localhost:8090/workers
//	curl -s localhost:8090/stats
//
// Each function name hashes to one worker, so that function's whole
// dispatch windows keep batching inside one container even behind the
// router. A worker that exceeds its load bound spills to the
// least-loaded replica; a worker that stops answering probes is marked
// down and its ring segments reassign to the survivors.
//
// With -policy=pull the router instead queues invocations per function
// and late-binds each to the least-loaded worker with free capacity,
// trading hash affinity for load spread under skewed traffic; tune the
// queues with the -pull-* flags.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flag"

	"faasbatch/internal/autoscale"
	"faasbatch/internal/chaos"
	"faasbatch/internal/hashmix"
	"faasbatch/internal/obs"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/router"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faasrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faasrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	workers := fs.String("workers", "", "comma-separated fleet, id=url pairs (e.g. 'w1=http://127.0.0.1:8081,w2=http://127.0.0.1:8082')")
	probeInterval := fs.Duration("probe-interval", time.Second, "worker health-probe period")
	probeTimeout := fs.Duration("probe-timeout", 500*time.Millisecond, "per-probe deadline")
	markDown := fs.Int("mark-down-after", 2, "consecutive failures before a worker is marked down")
	markUp := fs.Int("mark-up-after", 2, "consecutive probe successes before a down worker is marked up")
	vnodes := fs.Int("vnodes", router.DefaultVNodes, "virtual nodes per worker on the hash ring")
	loadBound := fs.Float64("load-bound", router.DefaultLoadBound, "bounded-load factor (>= 1); a loaded owner spills to the least-loaded replica")
	maxAttempts := fs.Int("max-attempts", 3, "forward attempts per invocation across ring replicas")
	retryBackoff := fs.Duration("retry-backoff", 10*time.Millisecond, "base forward retry delay, doubled per attempt")
	fnConcurrency := fs.Int("fn-concurrency", 0, "admission: concurrent forwards per function (0 = no admission control)")
	queueDepth := fs.Int("queue-depth", 64, "admission: queued invocations per function beyond the concurrency cap")
	queueWait := fs.Duration("queue-wait", time.Second, "admission: max queue wait before shedding with 429")
	forwardTimeout := fs.Duration("forward-timeout", 30*time.Second, "per-forward-attempt deadline")
	policy := fs.String("policy", router.PolicyHash, "scheduling policy: hash (consistent-hash push) or pull (worker-pull late binding)")
	pullQueueDepth := fs.Int("pull-queue-depth", 0, "pull: bounded per-function queue depth before shedding (0 = unbounded)")
	pullBatch := fs.Int("pull-batch", 0, "pull: max grants handed to one worker per pull (0 = default)")
	pullCapacity := fs.Int("pull-capacity", 0, "pull: concurrent leases one worker absorbs (0 = default)")
	pullShards := fs.Int("pull-shards", 0, "pull: function-queue shard count (0 = default)")
	pullLeaseBudget := fs.Duration("pull-lease-budget", 0, "pull: lease age reclaimed by the probe-tick sweep (0 = off; forward timeouts already bound live leases)")
	scrapeTimeout := fs.Duration("scrape-timeout", 2*time.Second, "per-worker deadline when federating /cluster/metrics and /cluster/stats")
	autoscaleOn := fs.Bool("autoscale", false, "enable the predictive autoscaling control loop over the registered fleet")
	asMin := fs.Int("min-workers", 0, "autoscale: ready-worker floor (0 enables scale-to-zero)")
	asMax := fs.Int("max-workers", 0, "autoscale: fleet ceiling (0 = all registered workers)")
	asTarget := fs.Float64("target-rate", 10, "autoscale: demand (invocations/second) one ready worker absorbs")
	asHeadroom := fs.Float64("headroom", 0, "autoscale: fractional spare capacity above the forecast (0 = default 0.2)")
	asEval := fs.Duration("eval-interval", 0, "autoscale: control-loop tick period (0 = default 500ms)")
	asWarmup := fs.Duration("warmup", 0, "autoscale: provision-to-ready pre-warm delay")
	asDrainBudget := fs.Duration("drain-budget", 0, "autoscale: modelled drain duration (0 = 2x eval-interval)")
	asScaleDownAfter := fs.Int("scale-down-after", 0, "autoscale: over-provisioned ticks before draining (0 = default 3)")
	asScaleToZero := fs.Duration("scale-to-zero-after", 0, "autoscale: idle time before the fleet retires entirely (0 = 10x eval-interval)")
	chaosRate := fs.Float64("chaos-rate", 0, "inject worker-failure faults at this rate in [0,1) (0 = off)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the fault schedule")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file here on exit (enables router tracing)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "HTTP drain deadline on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := parseWorkers(*workers)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	cfg := router.Config{
		Workers:        specs,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		MarkDownAfter:  *markDown,
		MarkUpAfter:    *markUp,
		VNodes:         *vnodes,
		LoadBound:      *loadBound,
		MaxAttempts:    *maxAttempts,
		RetryBackoff:   *retryBackoff,
		FnConcurrency:  *fnConcurrency,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		ForwardTimeout: *forwardTimeout,
		ScrapeTimeout:  *scrapeTimeout,
		Policy:         *policy,
		Logger:         logger,
	}
	// router.New rejects pull tuning under any policy but pull.
	if *pullQueueDepth != 0 || *pullBatch != 0 || *pullCapacity != 0 ||
		*pullShards != 0 || *pullLeaseBudget != 0 {
		cfg.Pull = &pullsched.Config{
			Shards:      *pullShards,
			BatchSize:   *pullBatch,
			Capacity:    *pullCapacity,
			QueueDepth:  *pullQueueDepth,
			LeaseBudget: *pullLeaseBudget,
		}
	}
	if *autoscaleOn {
		cfg.Autoscale = &autoscale.Config{
			MinWorkers:       *asMin,
			MaxWorkers:       *asMax,
			TargetPerWorker:  *asTarget,
			Headroom:         *asHeadroom,
			EvalInterval:     *asEval,
			Warmup:           *asWarmup,
			DrainBudget:      *asDrainBudget,
			ScaleDownAfter:   *asScaleDownAfter,
			ScaleToZeroAfter: *asScaleToZero,
		}
	}
	if *chaosRate < 0 || *chaosRate >= 1 {
		return fmt.Errorf("-chaos-rate must be in [0, 1), got %v", *chaosRate)
	}
	if *chaosRate > 0 {
		inj, err := chaos.New(chaos.Config{
			Seed:  *chaosSeed,
			Rates: map[chaos.Kind]float64{chaos.WorkerFailure: *chaosRate},
		})
		if err != nil {
			return err
		}
		cfg.Chaos = inj
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		// Salt locally minted trace IDs with the router identity so the
		// router's lanes never alias a worker's in a stitched trace
		// (workers salt with their -worker-id).
		tracer, err = obs.NewWallTracerWithSalt(0, 1, hashmix.String("faasrouter"))
		if err != nil {
			return err
		}
		cfg.Tracer = tracer
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rt.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "faasrouter: close:", cerr)
		}
		if tracer != nil {
			if terr := writeTraceFile(*traceOut, tracer); terr != nil {
				fmt.Fprintln(os.Stderr, "faasrouter: trace:", terr)
			}
		}
	}()
	rt.Start()
	fmt.Printf("faasrouter: %d workers, policy %s, vnodes %d, load bound %.2f, listening on %s\n",
		len(specs), rt.Policy().Name(), *vnodes, *loadBound, *addr)
	if cfg.Autoscale != nil {
		fmt.Printf("faasrouter: autoscale on, min %d, target %.1f inv/s per worker\n",
			cfg.Autoscale.MinWorkers, *asTarget)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           router.NewHTTPHandler(rt),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntilSignal(srv, *shutdownTimeout)
}

// parseWorkers parses the -workers flag: comma-separated id=url pairs.
func parseWorkers(s string) ([]router.WorkerSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-workers is required (e.g. 'w1=http://127.0.0.1:8081,w2=http://127.0.0.1:8082')")
	}
	var specs []router.WorkerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad worker %q, want id=url", part)
		}
		specs = append(specs, router.WorkerSpec{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-workers lists no workers")
	}
	return specs, nil
}

// writeTraceFile exports the tracer's ring buffer to path.
func writeTraceFile(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("faasrouter: wrote trace to %s (%d spans dropped)\n", path, tracer.Dropped())
	return nil
}

// serveUntilSignal runs the server until it fails or the process
// receives SIGINT/SIGTERM, then drains in-flight requests.
func serveUntilSignal(srv *http.Server, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case sig := <-sigc:
		fmt.Printf("faasrouter: %v, draining ...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}
