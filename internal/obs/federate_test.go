package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const memberA = `# HELP faasbatch_invocations_total Completed invocations.
# TYPE faasbatch_invocations_total counter
faasbatch_invocations_total 120
# HELP faasbatch_goroutines Goroutines currently running.
# TYPE faasbatch_goroutines gauge
faasbatch_goroutines 12
# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.
# TYPE faasbatch_latency_seconds histogram
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 3
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 5
faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.25
faasbatch_latency_seconds_count{fn="echo",component="execution"} 5
`

const memberB = `# HELP faasbatch_invocations_total Completed invocations.
# TYPE faasbatch_invocations_total counter
faasbatch_invocations_total 80
# HELP faasbatch_goroutines Goroutines currently running.
# TYPE faasbatch_goroutines gauge
faasbatch_goroutines 7
# HELP faasbatch_latency_seconds Per-function, per-component invocation latency.
# TYPE faasbatch_latency_seconds histogram
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 1
faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 2
faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.5
faasbatch_latency_seconds_count{fn="echo",component="execution"} 2
`

func parseDoc(t *testing.T, doc string) []*PromFamily {
	t.Helper()
	fams, err := ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

func TestParsePrometheus(t *testing.T) {
	fams := parseDoc(t, memberA)
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "faasbatch_invocations_total" || fams[0].Type != "counter" {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	if fams[0].Help == "" {
		t.Fatal("HELP text lost")
	}
	hist := fams[2]
	if hist.Type != "histogram" || len(hist.Samples) != 4 {
		t.Fatalf("histogram family = %+v, want 4 samples (_bucket x2, _sum, _count)", hist)
	}
	if hist.Samples[0].Labels != `fn="echo",component="execution",le="0.001"` {
		t.Fatalf("labels = %q", hist.Samples[0].Labels)
	}
}

func TestFederateMetrics(t *testing.T) {
	var out bytes.Buffer
	FederateMetrics(&out, []MemberMetrics{
		{Worker: "w1", Families: parseDoc(t, memberA)},
		{Worker: "w2", Families: parseDoc(t, memberB)},
	})
	doc := out.String()
	for _, want := range []string{
		// Counters sum: 120 + 80.
		"faasbatch_invocations_total 200\n",
		// Gauges tag per worker.
		`faasbatch_goroutines{worker="w1"} 12` + "\n",
		`faasbatch_goroutines{worker="w2"} 7` + "\n",
		// Histogram buckets merge bucket-wise: 3+1 and 5+2.
		`faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="0.001"} 4` + "\n",
		`faasbatch_latency_seconds_bucket{fn="echo",component="execution",le="+Inf"} 7` + "\n",
		`faasbatch_latency_seconds_sum{fn="echo",component="execution"} 0.75` + "\n",
		`faasbatch_latency_seconds_count{fn="echo",component="execution"} 7` + "\n",
		// Metadata is retained once.
		"# TYPE faasbatch_invocations_total counter\n",
		"# TYPE faasbatch_goroutines gauge\n",
		"# TYPE faasbatch_latency_seconds histogram\n",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("federated output missing %q\n---\n%s", want, doc)
		}
	}
	if n := strings.Count(doc, "# TYPE faasbatch_invocations_total counter"); n != 1 {
		t.Errorf("TYPE line emitted %d times, want once", n)
	}
	// The federated document must itself parse: federation is closed
	// over the exposition format.
	if _, err := ParsePrometheus(strings.NewReader(doc)); err != nil {
		t.Fatalf("federated output does not re-parse: %v", err)
	}
}

// TestFederationMatchesMergedHistogram cross-checks the two merge
// paths: federating N members' rendered histograms equals rendering the
// bucket-wise Histogram.Merge of the same data.
func TestFederationMatchesMergedHistogram(t *testing.T) {
	mk := func(values []time.Duration) *Metrics {
		m := NewMetrics()
		for _, v := range values {
			m.ObserveLatency("echo", SpanExecution, v)
		}
		return m
	}
	m1 := mk([]time.Duration{time.Millisecond, 40 * time.Millisecond, 3 * time.Second})
	m2 := mk([]time.Duration{2 * time.Millisecond, 90 * time.Millisecond})
	var d1, d2 bytes.Buffer
	m1.WritePrometheus(&d1)
	m2.WritePrometheus(&d2)
	f1, err := ParsePrometheus(&d1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParsePrometheus(&d2)
	if err != nil {
		t.Fatal(err)
	}
	var fed bytes.Buffer
	FederateMetrics(&fed, []MemberMetrics{{Worker: "w1", Families: f1}, {Worker: "w2", Families: f2}})

	union := mk([]time.Duration{time.Millisecond, 40 * time.Millisecond, 3 * time.Second, 2 * time.Millisecond, 90 * time.Millisecond})
	var want bytes.Buffer
	union.WritePrometheus(&want)
	wantFams, err := ParsePrometheus(&want)
	if err != nil {
		t.Fatal(err)
	}
	fedFams, err := ParsePrometheus(strings.NewReader(fed.String()))
	if err != nil {
		t.Fatal(err)
	}
	index := func(fams []*PromFamily) map[string]float64 {
		out := map[string]float64{}
		for _, f := range fams {
			if f.Name != "faasbatch_latency_seconds" {
				continue
			}
			for _, s := range f.Samples {
				out[s.Name+"{"+s.Labels+"}"] = s.Value
			}
		}
		return out
	}
	got, exp := index(fedFams), index(wantFams)
	if len(got) == 0 || len(exp) == 0 {
		t.Fatal("latency histogram series missing")
	}
	for k, v := range exp {
		if strings.Contains(k, "_sum{") {
			// The two paths add the same float64 terms in different
			// orders, so _sum matches to rounding, not bit-exactly.
			if diff := got[k] - v; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("federated %s = %v, want ~%v", k, got[k], v)
			}
			continue
		}
		if got[k] != v {
			t.Errorf("federated %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestHistogramMergeProperty is the satellite property test: splitting
// any sample stream across N shard histograms and merging them
// bucket-wise is indistinguishable from observing the union in one
// histogram — bucket counts, total count and sum all preserved.
func TestHistogramMergeProperty(t *testing.T) {
	prop := func(raw []uint16, shardCount uint8) bool {
		shards := int(shardCount%8) + 1
		union, err := NewHistogram(DefaultLatencyBuckets)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Histogram, shards)
		for i := range parts {
			parts[i], err = NewHistogram(DefaultLatencyBuckets)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range raw {
			// Integer-valued floats in [0, 65535] keep float addition
			// exact, so sum comparison is == not ≈. Scale down so values
			// straddle the default bucket bounds.
			v := float64(r) / 1024
			union.Observe(v)
			parts[i%shards].Observe(v)
		}
		merged, err := NewHistogram(DefaultLatencyBuckets)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if union.Count() != uint64(len(raw)) || merged.Count() != union.Count() {
			return false
		}
		wantBuckets, gotBuckets := union.Buckets(), merged.Buckets()
		for i := range wantBuckets {
			if gotBuckets[i] != wantBuckets[i] {
				return false
			}
		}
		wantCum, gotCum := union.Cumulative(), merged.Cumulative()
		for i := range wantCum {
			if gotCum[i] != wantCum[i] {
				return false
			}
		}
		// Scaled uint16 values are sums of exact binary fractions, so
		// exact equality is the correct check here.
		return merged.Sum() == union.Sum()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a, err := NewHistogram([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched bucket counts must fail")
	}
	c, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(1.5)
	before := a.Count()
	if err := a.Merge(c); err == nil {
		t.Fatal("merging mismatched bounds must fail")
	}
	if a.Count() != before {
		t.Fatal("failed merge must leave the receiver unchanged")
	}
}

func TestWriteRuntimeGauges(t *testing.T) {
	var out bytes.Buffer
	WriteRuntimeGauges(&out, "faasbatch")
	doc := out.String()
	for _, ex := range RuntimeExports {
		name := "faasbatch_" + ex.Suffix
		if !strings.Contains(doc, fmt.Sprintf("# HELP %s ", name)) {
			t.Errorf("missing HELP for %s", name)
		}
		if !strings.Contains(doc, fmt.Sprintf("# TYPE %s %s\n", name, ex.Typ)) {
			t.Errorf("missing TYPE for %s", name)
		}
		if !strings.Contains(doc, name+" ") {
			t.Errorf("missing sample for %s", name)
		}
	}
	fams, err := ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("runtime gauges do not parse: %v", err)
	}
	byName := map[string]*PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	g := byName["faasbatch_goroutines"]
	if g == nil || len(g.Samples) != 1 || g.Samples[0].Value < 1 {
		t.Fatalf("faasbatch_goroutines = %+v, want a positive sample", g)
	}
	heap := byName["faasbatch_heap_alloc_bytes"]
	if heap == nil || len(heap.Samples) != 1 || heap.Samples[0].Value <= 0 {
		t.Fatalf("faasbatch_heap_alloc_bytes = %+v, want a positive sample", heap)
	}
}
