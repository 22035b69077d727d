package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=5: +{3}; +Inf: +{100}.
	want := []uint64{2, 4, 5, 6}
	got := h.Cumulative()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	if h.Count() != 6 || h.Sum() != 108 {
		t.Fatalf("count = %d sum = %v", h.Count(), h.Sum())
	}
	if b := h.Bounds(); len(b) != 3 || b[2] != 5 {
		t.Fatalf("bounds = %v", b)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram([]float64{1, 10, 100})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // bucket ≤1
	}
	h.Observe(50) // bucket ≤100
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.95); got != 100 {
		t.Fatalf("p95 = %v, want 100", got)
	}
	h.Observe(1e9) // +Inf tail reports the last finite bound
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 with overflow = %v, want 100", got)
	}
	h.Decay(0.5)
	if b := h.Buckets(); b[0] != 5 || h.Count() != 6 {
		t.Fatalf("decay: buckets=%v count=%d, want 5 in the first bucket of 6", b, h.Count())
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 after decay = %v, want 1 (decay keeps quantiles)", got)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.ObserveLatency("f", SpanExecution, time.Second)
	m.ObserveGroupSize(3)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil metrics wrote %q", buf.String())
	}
}

func TestMetricsPrometheusOutput(t *testing.T) {
	m := NewMetrics()
	m.ObserveLatency("fib", SpanExecution, 30*time.Millisecond)
	m.ObserveLatency("fib", SpanExecution, 70*time.Millisecond)
	m.ObserveLatency("fib", SpanScheduling, 2*time.Millisecond)
	m.ObserveLatency("echo", SpanExecution, time.Millisecond)
	m.ObserveGroupSize(1)
	m.ObserveGroupSize(5)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP faasbatch_latency_seconds ",
		"# TYPE faasbatch_latency_seconds histogram",
		`faasbatch_latency_seconds_bucket{fn="fib",component="execution",le="0.05"} 1`,
		`faasbatch_latency_seconds_bucket{fn="fib",component="execution",le="+Inf"} 2`,
		`faasbatch_latency_seconds_count{fn="fib",component="execution"} 2`,
		`faasbatch_latency_seconds_count{fn="fib",component="scheduling"} 1`,
		`faasbatch_latency_seconds_count{fn="echo",component="execution"} 1`,
		"# TYPE faasbatch_group_size histogram",
		`faasbatch_group_size_bucket{le="1"} 1`,
		`faasbatch_group_size_bucket{le="8"} 2`,
		"faasbatch_group_size_count 2",
		"faasbatch_group_size_sum 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: echo sorts before fib.
	if strings.Index(out, `fn="echo"`) > strings.Index(out, `fn="fib"`) {
		t.Error("series not sorted by function")
	}
	// HELP/TYPE emitted once per family.
	if strings.Count(out, "# TYPE faasbatch_latency_seconds histogram") != 1 {
		t.Error("TYPE line repeated")
	}
}

func TestObserveLatencySteadyStateNoAlloc(t *testing.T) {
	m := NewMetrics()
	m.ObserveLatency("f", SpanExecution, time.Millisecond) // create the series
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveLatency("f", SpanExecution, time.Millisecond)
		m.ObserveGroupSize(4)
	})
	if allocs != 0 {
		t.Fatalf("steady-state observe allocates %v per op, want 0", allocs)
	}
}

func TestMetricsForwardHistogram(t *testing.T) {
	var nilM *Metrics
	nilM.ObserveForward("w1", time.Second) // nil-safe

	m := NewMetrics()
	var empty bytes.Buffer
	m.WritePrometheus(&empty)
	if strings.Contains(empty.String(), "faasbatch_forward_latency_seconds") {
		t.Fatal("forward family emitted with no observations")
	}

	m.ObserveForward("w2", 30*time.Millisecond)
	m.ObserveForward("w2", 70*time.Millisecond)
	m.ObserveForward("w1", 2*time.Millisecond)
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE faasbatch_forward_latency_seconds histogram",
		`faasbatch_forward_latency_seconds_bucket{worker="w2",le="0.05"} 1`,
		`faasbatch_forward_latency_seconds_count{worker="w2"} 2`,
		`faasbatch_forward_latency_seconds_count{worker="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: w1 sorts before w2.
	if strings.Index(out, `worker="w1"`) > strings.Index(out, `worker="w2"`) {
		t.Error("forward series not sorted by worker")
	}
}
