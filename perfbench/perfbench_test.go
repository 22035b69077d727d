package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test cross-checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark in-process for a one-second window, with
// sim-fleet shrunk to a twentieth of its rate.
func runBench(t *testing.T, workload, trace string, extra ...string) (int, summary, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
		"--out", t.TempDir(), "--sim-scale", "0.05"}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if code == 0 || code == 1 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatalf("%s: last line is not the summary: %v\n%s", workload, err, stdout.String())
		}
	}
	return code, s, stdout.String() + stderr.String()
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// allWorkloads lists every implemented workload, including sparse-warm,
// which BENCHMARK.json leaves out (see README.md).
func allWorkloads() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range allWorkloads() {
		for _, trace := range []string{"0", "1"} {
			code, sum, out := runBench(t, w, trace)
			if code != 0 || !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
				t.Fatalf("%s trace %s: exit %d, summary %+v\n%s", w, trace, code, sum, out)
			}
			want := s.EndToEnd
			if trace == "1" {
				want = s.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w, m.Name)
				}
			}
		}
	}
}

func TestWrongExpectedResultFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads() {
		code, sum, out := runBench(t, w, "0", "--corrupt-expect")
		if code != 1 || sum.Correct {
			t.Errorf("%s with a wrong expected result: exit %d, correct %v, want exit 1 and correct false\n%s", w, code, sum.Correct, out)
		}
	}
}

func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "burst-io", "--seconds", "0"},
		{"--workload", "burst-io", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want exit 2 and no output", args, code, stdout.String())
		}
	}
}

func TestCPUProfileCharging(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "faasbatch/internal/cpusched.(*Pool).poke", "faasbatch/internal/sim.(*Engine).Step"}, "cpusched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "faasbatch/internal/node.New"}, "gc"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := chargePackage(c.stack); got != c.want {
			t.Errorf("chargePackage(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
