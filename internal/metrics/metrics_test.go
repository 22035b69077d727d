package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"faasbatch/internal/sim"
)

func TestRecordTotalIsSumOfComponents(t *testing.T) {
	r := Record{
		Sched: 10 * time.Millisecond,
		Cold:  500 * time.Millisecond,
		Queue: 30 * time.Millisecond,
		Exec:  200 * time.Millisecond,
	}
	if got, want := r.Total(), 740*time.Millisecond; got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

func TestComponentOf(t *testing.T) {
	r := Record{
		Sched: 1 * time.Millisecond,
		Cold:  2 * time.Millisecond,
		Queue: 4 * time.Millisecond,
		Exec:  8 * time.Millisecond,
	}
	cases := []struct {
		c    Component
		want time.Duration
	}{
		{Scheduling, 1 * time.Millisecond},
		{ColdStart, 2 * time.Millisecond},
		{Queuing, 4 * time.Millisecond},
		{Execution, 8 * time.Millisecond},
		{ExecPlusQueue, 12 * time.Millisecond},
		{EndToEnd, 15 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.c.Of(r); got != c.want {
			t.Errorf("%v.Of = %v, want %v", c.c, got, c.want)
		}
	}
	if Component(99).Of(r) != 0 {
		t.Error("unknown component should extract 0")
	}
}

func TestComponentString(t *testing.T) {
	names := map[Component]string{
		Scheduling:    "scheduling",
		ColdStart:     "cold-start",
		Queuing:       "queuing",
		Execution:     "execution",
		ExecPlusQueue: "exec+queue",
		EndToEnd:      "end-to-end",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Component(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown component String = %q", got)
	}
}

func TestExtract(t *testing.T) {
	recs := []Record{
		{Sched: 1 * time.Millisecond, Exec: 10 * time.Millisecond},
		{Sched: 2 * time.Millisecond, Exec: 20 * time.Millisecond},
	}
	got := Extract(recs, Scheduling)
	if len(got) != 2 || got[0] != time.Millisecond || got[1] != 2*time.Millisecond {
		t.Fatalf("Extract(Scheduling) = %v", got)
	}
}

func TestCDFQuantiles(t *testing.T) {
	var vals []time.Duration
	for i := 1; i <= 100; i++ {
		vals = append(vals, time.Duration(i)*time.Millisecond)
	}
	// Shuffle to check sorting.
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	c := NewCDF(vals)
	if got := c.P(0.5); got != 50*time.Millisecond {
		t.Errorf("P(0.5) = %v, want 50ms", got)
	}
	if got := c.P(0.98); got != 98*time.Millisecond {
		t.Errorf("P(0.98) = %v, want 98ms", got)
	}
	if got := c.P(0); got != time.Millisecond {
		t.Errorf("P(0) = %v, want 1ms", got)
	}
	if got := c.P(1); got != 100*time.Millisecond {
		t.Errorf("P(1) = %v, want 100ms", got)
	}
	if got := c.Min(); got != time.Millisecond {
		t.Errorf("Min = %v, want 1ms", got)
	}
	if got := c.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := c.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
	if got := c.Len(); got != 100 {
		t.Errorf("Len = %d, want 100", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond})
	cases := []struct {
		v    time.Duration
		want float64
	}{
		{5 * time.Millisecond, 0},
		{10 * time.Millisecond, 0.25},
		{25 * time.Millisecond, 0.5},
		{40 * time.Millisecond, 1},
		{time.Hour, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.v); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.v, got, cse.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.P(0.5) != 0 || c.At(time.Second) != 0 || c.Min() != 0 || c.Max() != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF should report zeros")
	}
	if pts := c.Points(10); pts != nil {
		t.Fatalf("empty CDF Points = %v, want nil", pts)
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("NewCDF mutated its input: %v", in)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	vals := []time.Duration{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	for i := range vals {
		vals[i] *= time.Millisecond
	}
	pts := NewCDF(vals).Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatalf("points not monotone at %d: %+v", i, pts)
		}
	}
	if pts[9].Fraction != 1 {
		t.Fatalf("last fraction = %v, want 1", pts[9].Fraction)
	}
}

// Property: for any data, quantiles are monotone in q and bounded by
// min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]time.Duration, len(raw))
		for i, r := range raw {
			vals[i] = time.Duration(r%1_000_000) * time.Microsecond
		}
		c := NewCDF(vals)
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.P(q)
			if v < prev || v < c.Min() || v > c.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: At and P are approximate inverses: At(P(q)) >= q.
func TestPropertyAtPInverse(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]time.Duration, len(raw))
		for i, r := range raw {
			vals[i] = time.Duration(r) * time.Millisecond
		}
		c := NewCDF(vals)
		q := float64(qRaw%100) / 100
		return c.At(c.P(q)) >= q-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampler(t *testing.T) {
	eng := sim.New(1)
	mem := int64(0)
	busy := 0.0
	s, err := StartSampler(eng, time.Second, func(now sim.Time) Sample {
		return Sample{T: now, MemBytes: mem, Containers: int(mem / 100), BusyCoreSeconds: busy}
	})
	if err != nil {
		t.Fatalf("StartSampler: %v", err)
	}
	eng.Schedule(1500*time.Millisecond, func() { mem = 1000; busy = 2 })
	eng.RunUntil(sim.Time(3500 * time.Millisecond))
	s.Stop()
	eng.Run()
	samples := s.Samples()
	if len(samples) != 4 { // t=0 (immediate), 1s, 2s, 3s
		t.Fatalf("got %d samples, want 4: %+v", len(samples), samples)
	}
	if samples[1].MemBytes != 0 || samples[2].MemBytes != 1000 {
		t.Fatalf("sample values wrong: %+v", samples)
	}
	if got := s.PeakMemBytes(); got != 1000 {
		t.Errorf("PeakMemBytes = %d, want 1000", got)
	}
	if got := s.PeakContainers(); got != 10 {
		t.Errorf("PeakContainers = %d, want 10", got)
	}
	if got := s.AvgMemBytes(); got != 500 {
		t.Errorf("AvgMemBytes = %v, want 500", got)
	}
	// busy went 0 -> 2 core-seconds over a 3s span on a 2-core node:
	// utilisation = 2 / (3*2) = 1/3.
	if got := s.AvgCPUUtil(2); got < 0.33 || got > 0.34 {
		t.Errorf("AvgCPUUtil = %v, want ~0.333", got)
	}
}

func TestSamplerValidation(t *testing.T) {
	eng := sim.New(1)
	if _, err := StartSampler(eng, time.Second, nil); err == nil {
		t.Error("nil probe accepted, want error")
	}
	if _, err := StartSampler(eng, 0, func(sim.Time) Sample { return Sample{} }); err == nil {
		t.Error("zero period accepted, want error")
	}
}

func TestSamplerEdgeAggregates(t *testing.T) {
	eng := sim.New(1)
	s, err := StartSampler(eng, time.Second, func(now sim.Time) Sample { return Sample{T: now} })
	if err != nil {
		t.Fatalf("StartSampler: %v", err)
	}
	s.Stop()
	if got := s.AvgCPUUtil(4); got != 0 {
		t.Errorf("single-sample AvgCPUUtil = %v, want 0", got)
	}
	if got := s.AvgCPUUtil(0); got != 0 {
		t.Errorf("zero-core AvgCPUUtil = %v, want 0", got)
	}
}

func TestByteUnits(t *testing.T) {
	if got := MiB(1 << 20); got != 1 {
		t.Errorf("MiB(1<<20) = %v, want 1", got)
	}
	if got := GiB(1 << 30); got != 1 {
		t.Errorf("GiB(1<<30) = %v, want 1", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig X", "policy", "latency", "ratio")
	tbl.AddRow("vanilla", 120*time.Millisecond, 1.0)
	tbl.AddRow("faasbatch", 10*time.Millisecond, 0.083)
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tbl.NumRows())
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"Fig X", "policy", "vanilla", "faasbatch", "120ms", "0.083"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestCDFHandlesUnsortedDuplicates(t *testing.T) {
	vals := []time.Duration{5, 5, 5, 1, 1, 9}
	c := NewCDF(vals)
	if !sort.SliceIsSorted(c.sorted, func(i, j int) bool { return c.sorted[i] < c.sorted[j] }) {
		t.Fatal("CDF not sorted")
	}
	if got := c.At(5); got != 5.0/6 {
		t.Fatalf("At(5) = %v, want 5/6", got)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{4, 4}, 1},
		{[]int{6, 2}, 1.5},  // mean 4, max 6
		{[]int{9, 0, 0}, 3}, // one node hogs everything
	}
	for _, c := range cases {
		if got := Imbalance(c.counts); got != c.want {
			t.Errorf("Imbalance(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestLoadCV(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{}, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{5, 5, 5, 5}, 0},
		{[]int{6, 2}, 0.5},           // mean 4, stddev 2
		{[]int{9, 0, 0}, math.Sqrt2}, // mean 3, stddev 3·√2
	}
	for _, c := range cases {
		if got := LoadCV(c.counts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LoadCV(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}
