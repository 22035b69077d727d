// Package httpapi defines the wire types of the live FaaSBatch gateway
// (internal/platform, cmd/faasgate) and of the routing tier that fronts a
// fleet of gateways (internal/router, cmd/faasrouter).
package httpapi

import (
	"encoding/json"
	"fmt"
)

// InvokeRequest asks the gateway to invoke a function.
type InvokeRequest struct {
	// Fn is the registered function name.
	Fn string `json:"fn"`
	// Payload is passed to the handler verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// DecodeInvokeRequest parses and validates an /invoke request body.
// Malformed input yields an error, never a panic. Canonical bodies take
// a byte-oriented fast path (wire.go) whose Payload aliases body —
// callers must not recycle body while the request is live; unusual
// shapes fall back to encoding/json with identical semantics.
func DecodeInvokeRequest(body []byte) (InvokeRequest, error) {
	if w, ok := parseInvokeWire(body); ok {
		if len(w.fn) == 0 {
			return InvokeRequest{}, fmt.Errorf("httpapi: invoke request missing fn")
		}
		req := InvokeRequest{Fn: string(w.fn)}
		if len(w.payload) > 0 {
			req.Payload = json.RawMessage(w.payload)
		}
		return req, nil
	}
	var req InvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return InvokeRequest{}, fmt.Errorf("httpapi: decode invoke request: %w", err)
	}
	if req.Fn == "" {
		return InvokeRequest{}, fmt.Errorf("httpapi: invoke request missing fn")
	}
	return req, nil
}

// Latency is the wall-clock latency decomposition of one invocation,
// mirroring the paper's metric split (§IV).
type Latency struct {
	// SchedMillis is the scheduling latency (window wait + dispatch).
	SchedMillis float64 `json:"schedMillis"`
	// ColdMillis is the container boot time (0 on warm starts).
	ColdMillis float64 `json:"coldMillis"`
	// QueueMillis is the in-container queuing latency (container ready
	// until the handler starts).
	QueueMillis float64 `json:"queueMillis"`
	// ExecMillis is the handler execution time.
	ExecMillis float64 `json:"execMillis"`
	// TotalMillis is the end-to-end latency: the sum of the four
	// components above, completing the paper's §IV decomposition.
	TotalMillis float64 `json:"totalMillis"`
}

// InvokeResponse reports one completed invocation.
type InvokeResponse struct {
	// Fn echoes the function name.
	Fn string `json:"fn"`
	// Result is the handler's JSON-encoded return value.
	Result json.RawMessage `json:"result"`
	// ContainerID identifies the serving container.
	ContainerID string `json:"containerId"`
	// Worker identifies the gateway that served the invocation, when it
	// runs as a fleet worker (Config.WorkerID); empty on a standalone
	// gateway.
	Worker string `json:"worker,omitempty"`
	// Cold reports whether the invocation paid a cold start.
	Cold bool `json:"cold"`
	// Attempts is how many execution attempts the invocation consumed:
	// 1 on a first-try success, more when the platform retried it.
	Attempts int `json:"attempts"`
	// TraceID is the invocation's trace identity as 16 lowercase hex
	// digits, matching the low 64 bits of the W3C traceparent trace-id.
	// Empty when tracing is disabled. A hex string survives JSON clients
	// that round numbers through float64.
	TraceID string `json:"traceId,omitempty"`
	// Latency is the invocation's latency decomposition.
	Latency Latency `json:"latency"`
}

// StatsResponse is the gateway's counters snapshot.
type StatsResponse struct {
	// Submitted counts invocations accepted by the gateway.
	Submitted int64 `json:"submitted"`
	// Canceled counts invocations dropped before execution because their
	// caller's context ended while they waited.
	Canceled int64 `json:"canceled"`
	// Invocations counts completed invocations (including failures).
	Invocations int64 `json:"invocations"`
	// Failures counts invocations that exhausted their retry budget.
	Failures int64 `json:"failures"`
	// Retries counts extra execution attempts granted after faults.
	Retries int64 `json:"retries"`
	// Timeouts counts handler attempts killed by the invoke deadline.
	Timeouts int64 `json:"timeouts"`
	// Panics counts recovered handler panics.
	Panics int64 `json:"panics"`
	// Crashes counts containers lost mid-batch.
	Crashes int64 `json:"crashes"`
	// BootFailures counts failed container boots.
	BootFailures int64 `json:"bootFailures"`
	// Groups counts dispatched batches.
	Groups int64 `json:"groups"`
	// FastPathDispatches counts adaptive idle fast-path dispatches.
	FastPathDispatches int64 `json:"fastPathDispatches"`
	// EarlyCloses counts windows, fixed or adaptive, closed at the
	// group-size cap.
	EarlyCloses int64 `json:"earlyCloses"`
	// WindowDispatches counts adaptive windows closed by their deadline
	// (fixed windows are not counted).
	WindowDispatches int64 `json:"windowDispatches"`
	// DispatchWindowMicros is the most recently chosen dispatch window,
	// in microseconds: the interval with fixed windows (zero before the
	// first batched arrival and in vanilla mode).
	DispatchWindowMicros int64 `json:"dispatchWindowMicros"`
	// ContainersCreated counts cold starts.
	ContainersCreated int64 `json:"containersCreated"`
	// WarmStarts counts container reuses.
	WarmStarts int64 `json:"warmStarts"`
	// LiveContainers counts currently alive containers.
	LiveContainers int `json:"liveContainers"`
	// CacheHits counts resource creations served by the multiplexer
	// (ready hits plus coalesced waits).
	CacheHits uint64 `json:"cacheHits"`
	// CacheMisses counts actual resource builds.
	CacheMisses uint64 `json:"cacheMisses"`
	// CacheBytesSaved is duplicate memory avoided by the multiplexer.
	CacheBytesSaved int64 `json:"cacheBytesSaved"`
	// CacheStaleHits counts creations served a stale instance while a
	// background refresh ran.
	CacheStaleHits uint64 `json:"cacheStaleHits"`
	// CacheNegativeHits counts creations denied by the negative cache
	// during failure backoff.
	CacheNegativeHits uint64 `json:"cacheNegativeHits"`
	// CacheEvictions counts cached instances dropped by the LRU bound or
	// their TTL.
	CacheEvictions uint64 `json:"cacheEvictions"`
	// CacheShards counts lock-striped shards across live container caches.
	CacheShards int `json:"cacheShards"`
	// CacheMaxShardOccupancy is the ready-entry count of the fullest
	// shard in any live cache (skew diagnostic).
	CacheMaxShardOccupancy int `json:"cacheMaxShardOccupancy"`
}

// RoutedInvokeRequest asks the routing tier to invoke a function on
// whichever worker owns it on the consistent-hash ring. It is a superset
// of InvokeRequest, so plain gateway clients can talk to a router
// unchanged.
type RoutedInvokeRequest struct {
	// Fn is the function name (the ring key).
	Fn string `json:"fn"`
	// Payload is passed to the handler verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
	// TimeoutMillis optionally bounds the whole routed invocation
	// (admission wait + forwards + retries). Zero means no client bound.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// DecodeRoutedInvokeRequest parses and validates a router /invoke request
// body. Malformed input yields an error, never a panic. Canonical bodies
// take the same byte-oriented fast path as DecodeInvokeRequest (the
// Payload aliases body); unusual shapes fall back to encoding/json.
func DecodeRoutedInvokeRequest(body []byte) (RoutedInvokeRequest, error) {
	if w, ok := parseInvokeWire(body); ok {
		if len(w.fn) == 0 {
			return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke request missing fn")
		}
		if w.timeout < 0 {
			return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke timeout must be non-negative, got %d", w.timeout)
		}
		req := RoutedInvokeRequest{Fn: string(w.fn), TimeoutMillis: w.timeout}
		if len(w.payload) > 0 {
			req.Payload = json.RawMessage(w.payload)
		}
		return req, nil
	}
	var req RoutedInvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: decode routed invoke request: %w", err)
	}
	if req.Fn == "" {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke request missing fn")
	}
	if req.TimeoutMillis < 0 {
		return RoutedInvokeRequest{}, fmt.Errorf("httpapi: routed invoke timeout must be non-negative, got %d", req.TimeoutMillis)
	}
	return req, nil
}

// RoutedInvokeResponse reports one invocation completed through the
// router: the worker's InvokeResponse plus routing provenance. Its Worker
// field shadows the embedded one — the router always reports which worker
// it forwarded to, even when the worker omits its own identity.
type RoutedInvokeResponse struct {
	InvokeResponse
	// Worker identifies the worker that served the invocation.
	Worker string `json:"worker"`
	// ForwardAttempts is how many forward attempts the router spent
	// (1 on the happy path; connection errors and failovers add one each).
	ForwardAttempts int `json:"forwardAttempts"`
}

// Health states reported by /healthz.
const (
	// HealthOK means the worker is registered, ready and accepting work.
	HealthOK = "ok"
	// HealthUnready means the worker is up but has not completed function
	// registration yet.
	HealthUnready = "unready"
	// HealthDraining means the worker is shutting down and draining
	// in-flight work.
	HealthDraining = "draining"
)

// HealthResponse is the /healthz body of a worker gateway: a truthful
// readiness signal plus the worker-initiated capacity report the router's
// prober consumes (Hiku-style pull signals instead of blind push).
type HealthResponse struct {
	// Status is one of the Health* states above. Only HealthOK travels
	// with a 200; the other states ride a 503.
	Status string `json:"status"`
	// Worker is the gateway's fleet identity (empty when standalone).
	Worker string `json:"worker,omitempty"`
	// Capacity is the advertised concurrency capacity (0 = unbounded).
	Capacity int `json:"capacity,omitempty"`
	// Inflight counts invocations accepted but not yet completed.
	Inflight int64 `json:"inflight"`
}

// WorkerStatus is one worker's row in the router's /workers table.
type WorkerStatus struct {
	// ID is the worker's fleet identity.
	ID string `json:"id"`
	// URL is the worker's base URL.
	URL string `json:"url"`
	// State is "up", "down", "draining", or "standby".
	State string `json:"state"`
	// Inflight counts forwards currently outstanding against the worker.
	Inflight int64 `json:"inflight"`
	// Capacity is the worker's last advertised concurrency capacity.
	Capacity int `json:"capacity"`
	// Forwarded counts invocations this worker served through the router.
	Forwarded int64 `json:"forwarded"`
	// Failures counts forward attempts and probes that failed against it.
	Failures int64 `json:"failures"`
}

// RouterStatsResponse is the router's counters snapshot.
type RouterStatsResponse struct {
	// Routed counts invocations admitted past admission control.
	Routed int64 `json:"routed"`
	// Completed counts invocations that returned a worker response.
	Completed int64 `json:"completed"`
	// Forwarded counts forward attempts that reached a worker.
	Forwarded int64 `json:"forwarded"`
	// Retries counts extra forward attempts after transient failures.
	Retries int64 `json:"retries"`
	// Failovers counts attempts that moved to a different ring replica.
	Failovers int64 `json:"failovers"`
	// Shed counts invocations rejected by admission control (429).
	Shed int64 `json:"shed"`
	// NoWorkers counts invocations rejected with no healthy worker (503).
	NoWorkers int64 `json:"noWorkers"`
	// Errors counts invocations that exhausted their forward attempts.
	Errors int64 `json:"errors"`
	// Probes counts health probes sent.
	Probes int64 `json:"probes"`
	// ProbeFailures counts health probes that failed.
	ProbeFailures int64 `json:"probeFailures"`
	// MarkDowns counts worker up→down transitions.
	MarkDowns int64 `json:"markDowns"`
	// MarkUps counts worker down→up transitions (recoveries, not boot).
	MarkUps int64 `json:"markUps"`
	// WorkersUp counts workers currently marked up.
	WorkersUp int `json:"workersUp"`
	// ForwardImbalance is max/mean of per-worker forwarded counts
	// (1 = perfectly balanced, 0 = nothing forwarded).
	ForwardImbalance float64 `json:"forwardImbalance"`
	// Scrapes counts member scrape attempts made for the cluster view.
	Scrapes int64 `json:"scrapes"`
	// ScrapeFailures counts member scrapes that failed (the cluster view
	// then served the member's last good snapshot, if any).
	ScrapeFailures int64 `json:"scrapeFailures"`
	// Workers is the per-worker breakdown.
	Workers []WorkerStatus `json:"workers"`
	// Autoscale is the autoscaling control loop's snapshot (omitted
	// when autoscaling is disabled).
	Autoscale *AutoscaleStatus `json:"autoscale,omitempty"`
	// Policy is the scheduling policy's snapshot (omitted by routers
	// predating the policy API).
	Policy *PolicyStats `json:"policy,omitempty"`
}

// PolicyStats is the router scheduling policy's snapshot inside the
// /stats reply. The queue/lease fields are only live under the pull
// policy; hash reports the name with zero counters.
type PolicyStats struct {
	// Policy names the active policy ("hash" or "pull").
	Policy string `json:"policy"`
	// Queued counts invocations waiting in per-function pull queues.
	Queued int `json:"queued"`
	// Leases counts invocations currently leased to workers.
	Leases int `json:"leases"`
	// Granted counts leases handed out (including re-grants).
	Granted uint64 `json:"granted"`
	// Requeues counts failed or expired leases returned to their queue.
	Requeues uint64 `json:"requeues"`
	// Expired counts leases reclaimed by the lease-budget sweep.
	Expired uint64 `json:"expired"`
	// Shed counts arrivals refused at the queue-depth bound.
	Shed uint64 `json:"shed"`
}

// AutoscaleStatus is the autoscaling control plane's snapshot inside
// the router's /stats reply.
type AutoscaleStatus struct {
	// Target is the control loop's current desired ready-worker count.
	Target int `json:"target"`
	// Ready / Warming / Draining / Standby count workers per lifecycle
	// state as the controller sees them.
	Ready    int `json:"ready"`
	Warming  int `json:"warming"`
	Draining int `json:"draining"`
	Standby  int `json:"standby"`
	// Forecast is the short-horizon aggregate demand estimate
	// (invocations/second).
	Forecast float64 `json:"forecast"`
	// Floor is the pre-warm floor in workers.
	Floor int `json:"floor"`
	// ScaleUps / ScaleDowns / Wakes count scaling decisions.
	ScaleUps   int64 `json:"scaleUps"`
	ScaleDowns int64 `json:"scaleDowns"`
	Wakes      int64 `json:"wakes"`
	// Drained counts completed graceful drains; DrainSeconds sums their
	// durations.
	Drained      int64   `json:"drained"`
	DrainSeconds float64 `json:"drainSeconds"`
}

// MemberStats is one worker's stats snapshot inside the router's
// federated /cluster/stats reply.
type MemberStats struct {
	// Worker is the member's fleet identity.
	Worker string `json:"worker"`
	// Fresh reports whether the snapshot came from this scrape round;
	// false means the member failed to answer and its last good snapshot
	// is being served.
	Fresh bool `json:"fresh"`
	// Stats is the member's gateway counters snapshot.
	Stats StatsResponse `json:"stats"`
}

// ClusterStatsResponse is the router's /cluster/stats reply: the
// router's own counters plus a fleet-wide roll-up of every member
// gateway's counters.
type ClusterStatsResponse struct {
	// Router is the routing tier's own counters snapshot.
	Router RouterStatsResponse `json:"router"`
	// Cluster is the field-wise sum of every member's StatsResponse.
	Cluster StatsResponse `json:"cluster"`
	// Members lists each member's individual snapshot.
	Members []MemberStats `json:"members"`
}
