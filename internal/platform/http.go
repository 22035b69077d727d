package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"

	"faasbatch/internal/httpapi"
	"faasbatch/internal/obs"
)

// respBufPool recycles /invoke response encode buffers. The buffer is
// fully written to the ResponseWriter before being recycled, so nothing
// aliases it after Put.
var respBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// statExport maps one numeric field of Stats — addressed by its
// dot-separated reflection path — onto a Prometheus metric. Keeping the
// mapping as data lets the conformance test walk Stats by reflection and
// prove that every counter reaches /metrics with HELP/TYPE lines.
type statExport struct {
	// path is the field path within Stats (e.g. "Multiplexer.Hits").
	path string
	// name is the Prometheus metric name.
	name string
	// typ is "counter" or "gauge".
	typ string
	// help is the HELP line text.
	help string
}

// statExports enumerates every numeric Stats field. A Stats field without
// an entry here fails TestMetricsConformance.
var statExports = []statExport{
	{"Submitted", "faasbatch_submitted_total", "counter", "Invocations accepted by Invoke."},
	{"Canceled", "faasbatch_canceled_total", "counter", "Invocations dropped before execution because their context ended."},
	{"Invocations", "faasbatch_invocations_total", "counter", "Completed invocations."},
	{"Failures", "faasbatch_failures_total", "counter", "Invocations that exhausted their retry budget."},
	{"Retries", "faasbatch_retries_total", "counter", "Extra execution attempts granted after faults."},
	{"Timeouts", "faasbatch_timeouts_total", "counter", "Handler attempts killed by the invoke deadline."},
	{"Panics", "faasbatch_panics_total", "counter", "Recovered handler panics."},
	{"Crashes", "faasbatch_crashes_total", "counter", "Containers lost mid-batch."},
	{"BootFailures", "faasbatch_boot_failures_total", "counter", "Failed container boots."},
	{"Groups", "faasbatch_groups_total", "counter", "Dispatched window batches."},
	{"FastPathDispatches", "faasbatch_fast_path_dispatches_total", "counter", "Adaptive idle fast-path dispatches (lone arrivals sent straight to a container)."},
	{"EarlyCloses", "faasbatch_early_closes_total", "counter", "Dispatch windows, fixed or adaptive, closed early at the group-size cap."},
	{"WindowDispatches", "faasbatch_window_dispatches_total", "counter", "Adaptive windows closed by their deadline (fixed windows are not counted)."},
	{"DispatchWindowMicros", "faasbatch_dispatch_window_micros", "gauge", "Most recently chosen dispatch window, in microseconds (the interval with fixed windows)."},
	{"ContainersCreated", "faasbatch_containers_created_total", "counter", "Cold starts."},
	{"WarmStarts", "faasbatch_warm_starts_total", "counter", "Warm container reuses."},
	{"LiveContainers", "faasbatch_live_containers", "gauge", "Containers currently alive."},
	{"Multiplexer.Hits", "faasbatch_multiplexer_hits_total", "counter", "Resource creations served from a ready cache entry."},
	{"Multiplexer.Coalesced", "faasbatch_multiplexer_coalesced_total", "counter", "Resource creations that waited on an in-flight build."},
	{"Multiplexer.Misses", "faasbatch_multiplexer_misses_total", "counter", "Resource builds performed."},
	{"Multiplexer.LiveInstances", "faasbatch_multiplexer_live_instances", "gauge", "Ready cached instances held."},
	{"Multiplexer.BytesLive", "faasbatch_multiplexer_bytes_live", "gauge", "Memory held by ready cached instances."},
	{"Multiplexer.BytesSaved", "faasbatch_multiplexer_bytes_saved_total", "counter", "Duplicate client memory avoided."},
	{"Multiplexer.Evictions", "faasbatch_multiplexer_evictions_total", "counter", "Cached instances dropped by the LRU bound."},
	{"Multiplexer.Expired", "faasbatch_multiplexer_expired_total", "counter", "Cached instances dropped at lookup after their TTL lapsed."},
	{"Multiplexer.StaleHits", "faasbatch_multiplexer_stale_hits_total", "counter", "Lookups served a stale instance while a background refresh ran."},
	{"Multiplexer.Refreshes", "faasbatch_multiplexer_refreshes_total", "counter", "Background stale-while-revalidate refreshes started."},
	{"Multiplexer.NegativeHits", "faasbatch_multiplexer_negative_hits_total", "counter", "Creations denied by the negative cache during failure backoff."},
	{"Multiplexer.BuildFailures", "faasbatch_multiplexer_build_failures_total", "counter", "Resource builds that returned an error."},
	{"Multiplexer.Invalidations", "faasbatch_multiplexer_invalidations_total", "counter", "Entries dropped by handler-feedback invalidation."},
	{"Multiplexer.Shards", "faasbatch_multiplexer_shards", "gauge", "Lock-striped shards across live container caches."},
	{"Multiplexer.MaxShardOccupancy", "faasbatch_multiplexer_max_shard_occupancy", "gauge", "Ready entries in the fullest shard of any live cache."},
}

// statValue resolves a statExport path against a Stats snapshot.
func statValue(st Stats, path string) (string, error) {
	v := reflect.ValueOf(st)
	for _, part := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return "", fmt.Errorf("platform: stats path %q crosses non-struct", path)
		}
		v = v.FieldByName(part)
		if !v.IsValid() {
			return "", fmt.Errorf("platform: stats path %q not found", path)
		}
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprintf("%d", v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return fmt.Sprintf("%d", v.Uint()), nil
	default:
		return "", fmt.Errorf("platform: stats path %q is not numeric", path)
	}
}

// NewHTTPHandler exposes a platform over HTTP:
//
//	POST /invoke        — body httpapi.InvokeRequest, reply httpapi.InvokeResponse
//	GET  /stats         — reply httpapi.StatsResponse
//	GET  /metrics       — Prometheus text: counters, gauges and histograms
//	GET  /functions     — registered function names
//	GET  /debug/traces  — Chrome trace-event JSON of the span ring buffer
//	GET  /healthz       — httpapi.HealthResponse readiness + capacity
//	                      report: 200 "ok" when ready, 503 "unready"
//	                      before SetReady(true), 503 "draining" once
//	                      Close begins
//
// Every route is also served under the /v1/ prefix (/v1/invoke,
// /v1/stats, ...) with identical behaviour; the unversioned paths remain
// as aliases for existing clients. See docs/OBSERVABILITY.md.
func NewHTTPHandler(p *Platform) http.Handler {
	mux := http.NewServeMux()
	// handle registers one route under both its legacy unversioned path
	// and the /v1 prefix, so the two surfaces cannot drift apart.
	handle := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, h)
		mux.HandleFunc("/v1"+path, h)
	}
	handle("/invoke", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxInvokeBodyBytes))
		if err != nil {
			// An oversize body is the client exceeding the advertised cap,
			// not a malformed request: answer 413, per RFC 9110 §15.5.14.
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("request body exceeds %d bytes", int64(httpapi.MaxInvokeBodyBytes)), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
			return
		}
		req, err := httpapi.DecodeInvokeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// An inbound traceparent header (minted by the router or an
		// external caller) joins this worker's spans to the caller's
		// trace; a malformed header is ignored rather than rejected, per
		// the W3C processing model.
		parent, _ := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
		res, err := p.InvokeWithTrace(r.Context(), req.Fn, req.Payload, parent)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		// Handlers that already return json.RawMessage pass through
		// verbatim: re-marshalling raw JSON would compact and HTML-escape
		// it (and double-encode a handler's pre-encoded reply) for no
		// benefit. Everything else takes the reflective encoder.
		var result json.RawMessage
		switch v := res.Value.(type) {
		case nil:
			// Rendered as result:null by the byte encoder.
		case json.RawMessage:
			if len(v) > 0 && !json.Valid(v) {
				http.Error(w, "encode result: handler returned invalid raw JSON", http.StatusInternalServerError)
				return
			}
			result = v
		default:
			value, err := json.Marshal(res.Value)
			if err != nil {
				http.Error(w, fmt.Sprintf("encode result: %v", err), http.StatusInternalServerError)
				return
			}
			result = value
		}
		if res.TraceID != 0 {
			// Echo the trace identity so callers can correlate the
			// response with their trace even when the worker minted it.
			w.Header().Set(obs.TraceParentHeader, obs.FormatTraceParent(res.TraceID))
		}
		out := httpapi.InvokeResponse{
			Fn:          req.Fn,
			Result:      result,
			ContainerID: res.ContainerID,
			Worker:      p.WorkerID(),
			Cold:        res.Cold,
			Attempts:    res.Attempts,
			Latency: httpapi.Latency{
				SchedMillis: float64(res.Sched.Microseconds()) / 1000,
				ColdMillis:  float64(res.ColdStart.Microseconds()) / 1000,
				QueueMillis: float64(res.Queue.Microseconds()) / 1000,
				ExecMillis:  float64(res.Exec.Microseconds()) / 1000,
				TotalMillis: float64(res.Total().Microseconds()) / 1000,
			},
		}
		// Byte-oriented encode through a pooled buffer: no Encoder, no
		// reflection, no per-response allocation. The non-zero trace ID is
		// stamped by the encoder itself (hex16), replacing the former
		// fmt.Sprintf. The trailing newline matches json.Encoder.Encode.
		bufp := respBufPool.Get().(*[]byte)
		b := httpapi.AppendInvokeResponse((*bufp)[:0], &out, res.TraceID)
		b = append(b, '\n')
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(b); err != nil {
			p.logger.Warn("response write failed", "path", r.URL.Path, "err", err)
		}
		*bufp = b
		respBufPool.Put(bufp)
	})
	handle("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		st := p.Stats()
		writeJSON(p.logger, w, r.URL.Path, httpapi.StatsResponse{
			Submitted:            st.Submitted,
			Canceled:             st.Canceled,
			Invocations:          st.Invocations,
			Failures:             st.Failures,
			Retries:              st.Retries,
			Timeouts:             st.Timeouts,
			Panics:               st.Panics,
			Crashes:              st.Crashes,
			BootFailures:         st.BootFailures,
			Groups:               st.Groups,
			FastPathDispatches:   st.FastPathDispatches,
			EarlyCloses:          st.EarlyCloses,
			WindowDispatches:     st.WindowDispatches,
			DispatchWindowMicros: st.DispatchWindowMicros,
			ContainersCreated:    st.ContainersCreated,
			WarmStarts:           st.WarmStarts,
			LiveContainers:       st.LiveContainers,
			CacheHits:            st.Multiplexer.Hits + st.Multiplexer.Coalesced,
			CacheMisses:          st.Multiplexer.Misses,
			CacheBytesSaved:      st.Multiplexer.BytesSaved,
			CacheStaleHits:       st.Multiplexer.StaleHits,
			CacheNegativeHits:    st.Multiplexer.NegativeHits,
			CacheEvictions:       st.Multiplexer.Evictions + st.Multiplexer.Expired,

			CacheShards:            st.Multiplexer.Shards,
			CacheMaxShardOccupancy: st.Multiplexer.MaxShardOccupancy,
		})
	})
	handle("/functions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(p.logger, w, r.URL.Path, p.Functions())
	})
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		st := p.Stats()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, ex := range statExports {
			val, err := statValue(st, ex.path)
			if err != nil {
				// Unreachable while statExports matches Stats; the
				// conformance test enforces that.
				p.logger.Error("stats export failed", "path", ex.path, "err", err)
				continue
			}
			fmt.Fprintf(w, "# HELP %s %s\n", ex.name, ex.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", ex.name, ex.typ)
			fmt.Fprintf(w, "%s %s\n", ex.name, val)
		}
		obs.WriteRuntimeGauges(w, "faasbatch")
		p.WriteSLOMetrics(w)
		p.metrics.WritePrometheus(w)
	})
	handle("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// A disabled tracer exports an empty trace, keeping the endpoint
		// probe-friendly either way.
		if err := p.tracer.WriteChromeTrace(w); err != nil {
			p.logger.Warn("trace export failed", "path", r.URL.Path, "err", err)
		}
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		health := httpapi.HealthResponse{
			Worker:   p.WorkerID(),
			Capacity: p.Capacity(),
			Inflight: p.Inflight(),
		}
		status := http.StatusOK
		switch {
		case p.Draining():
			// Truthful readiness for the routing tier's prober: a
			// draining worker must stop receiving new windows.
			health.Status = httpapi.HealthDraining
			status = http.StatusServiceUnavailable
		case !p.Ready():
			health.Status = httpapi.HealthUnready
			status = http.StatusServiceUnavailable
		default:
			health.Status = httpapi.HealthOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := json.NewEncoder(w).Encode(health); err != nil {
			p.logger.Warn("response encode failed", "path", r.URL.Path, "err", err)
		}
	})
	return mux
}

// writeJSON writes v as a JSON response. The response header is already
// out by the time encoding fails, so the error can only be reported
// through the structured log.
func writeJSON(logger *slog.Logger, w http.ResponseWriter, path string, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger.Warn("response encode failed", "path", path, "err", err)
	}
}
