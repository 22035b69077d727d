// Package obs is the platform's observability subsystem: invocation
// lifecycle tracing, labeled latency histograms and structured-logging
// helpers, built on the standard library only.
//
// The three pieces mirror the paper's measurement needs (§IV):
//
//   - Tracer records per-invocation spans — one child span per latency
//     component (scheduling, cold start, in-container queuing, execution)
//     plus resource builds and retry backoffs — into a bounded in-memory
//     ring buffer, and exports them as Chrome trace-event JSON that loads
//     directly into Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//     The tracer is clock-agnostic: the live platform stamps spans with
//     wall-clock offsets, the discrete-event simulator with virtual time.
//   - Metrics aggregates per-function, per-component latency histograms
//     and a batch-group-size histogram, rendered in the Prometheus text
//     exposition format.
//   - NewLogger/Nop construct log/slog loggers for the platform's
//     structured logs (dispatch decisions, container lifecycle, faults),
//     correlated with trace IDs.
//
// Tracing is pay-for-what-you-use: every method is safe on a nil *Tracer
// and the disabled hot path performs no allocations (guarded by
// TestDisabledTracerZeroAlloc and BenchmarkTracerDisabled).
package obs

// Span names for the paper's four-component latency decomposition (§IV),
// shared by the live platform and the simulator so one round-trip test
// covers both. Additional spans refine the picture without entering the
// decomposition sum.
const (
	// SpanScheduling covers arrival to dispatch: the invocation's window
	// wait plus the dispatch hop.
	SpanScheduling = "scheduling"
	// SpanColdStart covers booting the group's container (absent on warm
	// starts).
	SpanColdStart = "cold-start"
	// SpanQueuing covers waiting inside the container before the handler
	// starts.
	SpanQueuing = "queuing"
	// SpanExecution covers one handler execution attempt.
	SpanExecution = "execution"
	// SpanResourceBuild covers one Resource Multiplexer client build.
	SpanResourceBuild = "resource-build"
	// SpanRetryBackoff covers the wait before a failed invocation
	// re-enters a dispatch window.
	SpanRetryBackoff = "retry-backoff"
	// SpanDispatchWindow covers an invocation's wait inside a dispatch
	// window, from arrival to window close; Detail carries the
	// chosen interval and the close reason (window deadline, idle
	// fast-path or early close). It refines SpanScheduling without
	// entering the decomposition sum.
	SpanDispatchWindow = "dispatch-window"
)

// Span names of the routing tier (internal/router): the router fronts a
// fleet of worker gateways and records its own lifecycle spans, disjoint
// from the per-worker decomposition above.
const (
	// SpanRoute covers picking a worker (and its failover order) for one
	// invocation on the consistent-hash ring.
	SpanRoute = "route"
	// SpanProbe covers one worker health probe.
	SpanProbe = "probe"
	// SpanForward covers one forward attempt to one worker (Detail names
	// the worker).
	SpanForward = "forward"
	// SpanForwardRetry covers the backoff before a forward attempt is
	// retried on the same or the next ring replica.
	SpanForwardRetry = "forward-retry"
	// SpanShed marks an invocation rejected by admission control.
	SpanShed = "shed"
	// SpanScale marks one autoscaling decision applied to the fleet
	// (Detail carries the action, worker, and target, e.g.
	// "provision w2 target=3").
	SpanScale = "scale-event"
)

// ComponentEndToEnd labels the whole-invocation latency in the metrics
// registry (it is a histogram label, never a span: the end-to-end value
// is the sum of the four decomposition spans).
const ComponentEndToEnd = "end-to-end"

// DecompositionSpans lists the spans whose durations sum to an
// invocation's end-to-end latency, in pipeline order.
var DecompositionSpans = []string{SpanScheduling, SpanColdStart, SpanQueuing, SpanExecution}
