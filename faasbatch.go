// Package faasbatch is a Go implementation of FaaSBatch (Wu et al.,
// ICDCS 2023): a serverless scheduling framework that batches concurrent
// function invocations per dispatch window, expands each batch in
// parallel inside a single container, and multiplexes redundant resources
// (storage clients) created during execution.
//
// The package exposes two complementary surfaces through type aliases to
// the implementation packages:
//
//   - The live platform (Platform, NewPlatform): a wall-clock runtime
//     that executes registered Go handlers with FaaSBatch scheduling and
//     serves them over HTTP (NewHTTPHandler). See examples/quickstart.
//
//   - The evaluation harness (RunExperiment, Figures): a deterministic
//     discrete-event reproduction of the paper's testbed — worker node,
//     container lifecycle, CPU contention, Azure-derived workloads —
//     that regenerates every table and figure of the paper in seconds.
//     See cmd/faasbench and examples/azurereplay.
//
// DESIGN.md maps the paper's systems to packages; EXPERIMENTS.md records
// paper-reported versus measured results.
package faasbatch

import (
	"io"
	"log/slog"
	"net/http"

	"faasbatch/internal/cluster"
	"faasbatch/internal/experiment"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/obs"
	"faasbatch/internal/platform"
	"faasbatch/internal/pullsched"
	"faasbatch/internal/router"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// Live platform API.
type (
	// Platform is the live FaaSBatch runtime.
	Platform = platform.Platform
	// PlatformConfig parameterises the live runtime.
	PlatformConfig = platform.Config
	// Mode selects batching (FaaSBatch) or per-invocation (Vanilla)
	// scheduling.
	Mode = platform.Mode
	// Handler is a registered serverless function.
	Handler = platform.Handler
	// Invocation is a handler's view of one request.
	Invocation = platform.Invocation
	// Resources is the handler-facing Resource Multiplexer facade.
	Resources = platform.Resources
	// Result is one completed invocation with its latency decomposition.
	Result = platform.Result
	// Outcome classifies how a Resources.GetContext call was served
	// (hit, miss, coalesced, stale, negative, error).
	Outcome = platform.Outcome
	// MultiplexerConfig tunes per-container Resource Multiplexer caches:
	// shard count, capacity bound, TTL, stale-while-revalidate window and
	// negative-caching backoff.
	MultiplexerConfig = multiplex.Config
)

// Outcomes of Resources.GetContext.
const (
	// OutcomeMiss means the caller built the instance.
	OutcomeMiss = platform.OutcomeMiss
	// OutcomeHit means a ready cached instance was served.
	OutcomeHit = platform.OutcomeHit
	// OutcomeCoalesced means the caller waited on an in-flight build.
	OutcomeCoalesced = platform.OutcomeCoalesced
	// OutcomeStale means a stale instance was served while a background
	// refresh ran.
	OutcomeStale = platform.OutcomeStale
	// OutcomeNegative means the negative cache denied the creation during
	// failure backoff.
	OutcomeNegative = platform.OutcomeNegative
	// OutcomeError means the call failed (build error, closed cache or
	// done context).
	OutcomeError = platform.OutcomeError
)

// Typed errors surfaced by Resources.GetContext (match with errors.Is).
var (
	// ErrBuildFailed marks a failed resource construction.
	ErrBuildFailed = platform.ErrBuildFailed
	// ErrCacheClosed marks a torn-down container cache.
	ErrCacheClosed = platform.ErrCacheClosed
)

// Live platform modes.
const (
	// ModeBatch is FaaSBatch scheduling.
	ModeBatch = platform.ModeBatch
	// ModeVanilla is one container per invocation.
	ModeVanilla = platform.ModeVanilla
)

// NewPlatform starts a live platform. Close it when done.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return platform.New(cfg) }

// DefaultPlatformConfig returns live-runtime defaults (FaaSBatch mode,
// 200 ms window, multiplexing on).
func DefaultPlatformConfig() PlatformConfig { return platform.DefaultConfig() }

// NewHTTPHandler exposes a platform over HTTP (POST /invoke, GET /stats,
// GET /metrics, GET /debug/traces, GET /healthz). See
// docs/OBSERVABILITY.md.
func NewHTTPHandler(p *Platform) http.Handler { return platform.NewHTTPHandler(p) }

// Observability API (see docs/OBSERVABILITY.md).
type (
	// Tracer records per-invocation lifecycle spans and exports Chrome
	// trace-event JSON. Set PlatformConfig.Tracer (or
	// ExperimentConfig.Tracer) to enable tracing; a nil tracer is free.
	Tracer = obs.Tracer
	// TracerConfig parameterises a tracer (ring capacity, sampling,
	// clock).
	TracerConfig = obs.TracerConfig
	// TraceSpan is one completed invocation lifecycle span.
	TraceSpan = obs.Span
)

// NewWallTracer builds a wall-clock tracer for the live platform. Zero
// capacity/sample select the defaults (65536 spans, sample every trace).
func NewWallTracer(capacity, sample int) (*Tracer, error) {
	return obs.NewWallTracer(capacity, sample)
}

// NewTracer builds a tracer from cfg; virtual-time users supply the
// clock.
func NewTracer(cfg TracerConfig) (*Tracer, error) { return obs.NewTracer(cfg) }

// NewLogger builds the platform's structured logger. Level is one of
// debug/info/warn/error, format text or json. Set the result as
// PlatformConfig.Logger.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// Evaluation harness API.
type (
	// ExperimentConfig describes one evaluation run.
	ExperimentConfig = experiment.Config
	// ExperimentResult aggregates one run's measurements.
	ExperimentResult = experiment.Result
	// PolicyKind selects the scheduler under test.
	PolicyKind = experiment.PolicyKind
	// Figure is one reproducible table/figure of the paper.
	Figure = experiment.Figure
	// FigureOptions tunes a figure reproduction run.
	FigureOptions = experiment.Options
	// Trace is a time-ordered invocation workload.
	Trace = trace.Trace
	// BurstConfig parameterises trace synthesis.
	BurstConfig = trace.BurstConfig
	// WorkloadKind distinguishes CPU-intensive and I/O functions.
	WorkloadKind = workload.Kind
)

// Evaluated policies.
const (
	// PolicyVanilla launches one container per invocation.
	PolicyVanilla = experiment.PolicyVanilla
	// PolicySFS adds the SFS user-space CPU scheduler.
	PolicySFS = experiment.PolicySFS
	// PolicyKraken batches by SLO slack.
	PolicyKraken = experiment.PolicyKraken
	// PolicyFaaSBatch is the paper's contribution.
	PolicyFaaSBatch = experiment.PolicyFaaSBatch
)

// Workload kinds.
const (
	// CPUIntensive is the fib(N) family.
	CPUIntensive = workload.CPUIntensive
	// IO is the storage-client family.
	IO = workload.IO
)

// RunExperiment executes one evaluation run in virtual time.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return experiment.Run(cfg) }

// Figures lists every reproducible table/figure of the paper.
func Figures() []Figure { return experiment.Figures() }

// FigureByID looks a reproduction up by id (e.g. "fig11").
func FigureByID(id string) (Figure, bool) { return experiment.FigureByID(id) }

// SynthesizeBurst generates the paper's bursty one-minute Azure replay.
func SynthesizeBurst(cfg BurstConfig) (Trace, error) { return trace.SynthesizeBurst(cfg) }

// DefaultBurstConfig returns the paper's replay parameters for a
// workload kind.
func DefaultBurstConfig(kind WorkloadKind) BurstConfig { return trace.DefaultBurstConfig(kind) }

// Cluster scale-out API (beyond the paper's single worker VM).
type (
	// ClusterConfig parameterises a multi-node FaaSBatch fleet.
	ClusterConfig = cluster.Config
	// ClusterReplayConfig describes a cluster replay run.
	ClusterReplayConfig = cluster.ReplayConfig
	// ClusterResult aggregates one cluster replay.
	ClusterResult = cluster.Result
	// Balancing selects the cluster dispatcher's routing strategy.
	Balancing = cluster.Balancing
)

// Cluster routing strategies.
const (
	// FnAffinity pins each function to one node, preserving batching
	// locality.
	FnAffinity = cluster.FnAffinity
	// LeastLoaded routes each invocation to the lightest node.
	LeastLoaded = cluster.LeastLoaded
	// RoundRobin cycles nodes per invocation.
	RoundRobin = cluster.RoundRobin
	// ConsistentHash routes by ring ownership (the sim analogue of the
	// live router's hash policy).
	ConsistentHash = cluster.ConsistentHash
	// PullBalancing queues invocations per function and lets nodes with
	// free capacity pull them in batches (the sim analogue of the live
	// router's pull policy).
	PullBalancing = cluster.Pull
)

// ReplayCluster runs a trace through a multi-node FaaSBatch fleet.
func ReplayCluster(cfg ClusterReplayConfig) (*ClusterResult, error) { return cluster.Replay(cfg) }

// Routing tier API (cmd/faasrouter's programmatic surface).
type (
	// Router fronts a fleet of worker gateways.
	Router = router.Router
	// RouterConfig parameterises the router: fleet, probing, retries,
	// admission, autoscale, and the scheduling policy.
	RouterConfig = router.Config
	// RouterPolicy is the router's scheduling strategy interface,
	// implemented by the hash and pull policies.
	RouterPolicy = router.Policy
	// RouterWorkerSpec names one worker gateway behind the router.
	RouterWorkerSpec = router.WorkerSpec
	// PullConfig tunes the pull policy's decision core (shards, batch
	// size, per-worker capacity, queue depth, lease budget).
	PullConfig = pullsched.Config
)

// Router scheduling policies (RouterConfig.Policy).
const (
	// RouterPolicyHash is consistent-hash push scheduling (default).
	RouterPolicyHash = router.PolicyHash
	// RouterPolicyPull is late-binding worker-pull scheduling.
	RouterPolicyPull = router.PolicyPull
)

// NewRouter builds a routing tier over a worker fleet. Close it when
// done; Start launches its health prober.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// NewRouterHandler exposes a router over HTTP (/invoke, /stats,
// /metrics, /cluster/*, /healthz — see docs/CLUSTER.md).
func NewRouterHandler(rt *Router) http.Handler { return router.NewHTTPHandler(rt) }

// Function-chain workloads (sequential workflows).
type (
	// ChainConfig describes a chained-function replay.
	ChainConfig = experiment.ChainConfig
	// ChainResult aggregates a chain replay.
	ChainResult = experiment.ChainResult
	// ChainRecord is one completed chain.
	ChainRecord = experiment.ChainRecord
)

// RunChain executes a chained-function workload: stage k+1 of each chain
// is submitted when stage k completes.
func RunChain(cfg ChainConfig) (*ChainResult, error) { return experiment.RunChain(cfg) }

// Azure Functions dataset support.
type (
	// AzureFunctionRow is one row of the public Azure Functions 2019
	// per-minute invocation schema.
	AzureFunctionRow = trace.AzureFunctionRow
	// AzureReplayOptions selects a replay window from Azure rows.
	AzureReplayOptions = trace.AzureReplayOptions
)

// ReadAzureInvocationsCSV parses the Azure Functions per-minute schema.
func ReadAzureInvocationsCSV(r io.Reader) ([]AzureFunctionRow, error) {
	return trace.ReadAzureInvocationsCSV(r)
}

// FromAzureRows converts a window of Azure per-minute counts into a
// replayable trace.
func FromAzureRows(rows []AzureFunctionRow, opts AzureReplayOptions) (Trace, error) {
	return trace.FromAzureRows(rows, opts)
}

// DefaultAzureReplayOptions mirrors the paper's replay slice (one minute
// starting at 22:10).
func DefaultAzureReplayOptions() AzureReplayOptions { return trace.DefaultAzureReplayOptions() }
