package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultLatencyBuckets are the latency histogram upper bounds in
// seconds, spanning sub-millisecond handler times to multi-second
// cold-start tails.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultGroupSizeBuckets are the batch-group-size histogram upper
// bounds (invocations per dispatched group).
var DefaultGroupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket histogram in the Prometheus style: one
// counter per upper bound plus an implicit +Inf bucket, a running sum and
// a total count. Counts are floats so the histogram can decay
// exponentially (Decay); without decay they stay exact integers. It is
// not safe for concurrent use; Metrics serialises access for the
// platform.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []float64 // len(bounds)+1, the last is the +Inf bucket
	sum    float64
	total  float64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly increasing at index %d", i)
		}
	}
	return newHistogram(bounds), nil
}

// newHistogram builds a histogram over bounds already known to be valid.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]float64, len(bounds)+1)}
}

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
	h.sum += v
	h.total++
}

// Decay multiplies every bucket and the sum by f in (0, 1], so old
// observations fade; the quantiles stay where they were.
func (h *Histogram) Decay(f float64) {
	h.sum *= f
	h.total = 0
	for i := range h.counts {
		h.counts[i] *= f
		h.total += h.counts[i]
	}
}

// Quantile returns the upper bound of the bucket where the cumulative
// count first reaches q*total (the +Inf tail reports the last finite
// bound). It reports 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total <= 0 {
		return 0
	}
	target := q * h.total
	cum := 0.0
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Count reports the number of observations (truncated after Decay).
func (h *Histogram) Count() uint64 { return uint64(h.total) }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Cumulative reports the cumulative bucket counts, one per bound plus the
// trailing +Inf bucket (which equals Count).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	acc := 0.0
	for i, c := range h.counts {
		acc += c
		out[i] = uint64(acc)
	}
	return out
}

// Bounds returns a copy of the upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Buckets returns the raw (non-cumulative) bucket counts, one per bound
// plus the trailing +Inf bucket (truncated after Decay).
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts))
	for i, c := range h.counts {
		out[i] = uint64(c)
	}
	return out
}

// Merge folds other into h bucket-wise. Because both histograms share
// fixed bounds the merge is exact: merged bucket counts, sum and count
// equal those of a histogram that observed the union of both sample
// streams. Mismatched bounds are an error and leave h unchanged.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merge histograms with %d vs %d bounds", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("obs: merge histograms with different bounds at index %d (%v vs %v)", i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	h.total += other.total
	return nil
}

// latencyKey labels one latency histogram series.
type latencyKey struct {
	Fn        string
	Component string
}

// Metrics aggregates the platform's labeled histograms: per-function,
// per-component latency and the batch group size. It is safe for
// concurrent use.
type Metrics struct {
	mu        sync.Mutex
	lat       map[latencyKey]*Histogram
	fwd       map[string]*Histogram // per-worker forward latency (router)
	groupSize *Histogram
}

// NewMetrics builds a registry with the default buckets. Both default
// bound sets are validated here, once, so series created later cannot
// fail.
func NewMetrics() *Metrics {
	gs, err := NewHistogram(DefaultGroupSizeBuckets)
	if err == nil {
		_, err = NewHistogram(DefaultLatencyBuckets)
	}
	if err != nil {
		// The default bounds are valid by construction.
		panic(err)
	}
	return &Metrics{
		lat:       make(map[latencyKey]*Histogram),
		fwd:       make(map[string]*Histogram),
		groupSize: gs,
	}
}

// ObserveLatency counts one latency observation for (fn, component).
// Component names follow the obs span vocabulary (SpanScheduling, ...).
func (m *Metrics) ObserveLatency(fn, component string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := latencyKey{Fn: fn, Component: component}
	h, ok := m.lat[key]
	if !ok {
		h = newHistogram(DefaultLatencyBuckets)
		m.lat[key] = h
	}
	h.Observe(d.Seconds())
}

// ObserveForward counts one routed forward attempt's latency against the
// serving worker (internal/router). Workers appear as histogram labels in
// WritePrometheus, so per-worker tails stay visible behind the router.
func (m *Metrics) ObserveForward(worker string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.fwd[worker]
	if !ok {
		h = newHistogram(DefaultLatencyBuckets)
		m.fwd[worker] = h
	}
	h.Observe(d.Seconds())
}

// ObserveGroupSize counts one dispatched batch group's size.
func (m *Metrics) ObserveGroupSize(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupSize.Observe(float64(n))
}

// formatBound renders a bucket bound the Prometheus way.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// writeHistogram renders one labeled histogram series. labels is either
// empty or a comma-joined list of label="value" pairs.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	sumLabels := ""
	if labels != "" {
		sumLabels = "{" + labels + "}"
	}
	cum := h.Cumulative()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatBound(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sumLabels, strconv.FormatFloat(h.sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sumLabels, h.Count())
}

// WritePrometheus renders every histogram in the Prometheus text
// exposition format, deterministically ordered.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.\n")
	fmt.Fprintf(w, "# TYPE faasbatch_latency_seconds histogram\n")
	keys := make([]latencyKey, 0, len(m.lat))
	for k := range m.lat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fn != keys[j].Fn {
			return keys[i].Fn < keys[j].Fn
		}
		return keys[i].Component < keys[j].Component
	})
	for _, k := range keys {
		labels := fmt.Sprintf("fn=%q,component=%q", k.Fn, k.Component)
		writeHistogram(w, "faasbatch_latency_seconds", labels, m.lat[k])
	}
	if len(m.fwd) > 0 {
		fmt.Fprintf(w, "# HELP faasbatch_forward_latency_seconds Per-worker routed forward latency.\n")
		fmt.Fprintf(w, "# TYPE faasbatch_forward_latency_seconds histogram\n")
		workers := make([]string, 0, len(m.fwd))
		for wk := range m.fwd {
			workers = append(workers, wk)
		}
		sort.Strings(workers)
		for _, wk := range workers {
			writeHistogram(w, "faasbatch_forward_latency_seconds", fmt.Sprintf("worker=%q", wk), m.fwd[wk])
		}
	}
	fmt.Fprintf(w, "# HELP faasbatch_group_size Invocations per dispatched batch group.\n")
	fmt.Fprintf(w, "# TYPE faasbatch_group_size histogram\n")
	writeHistogram(w, "faasbatch_group_size", "", m.groupSize)
}
