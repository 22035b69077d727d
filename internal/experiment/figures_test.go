package experiment

import (
	"strings"
	"testing"

	"faasbatch/internal/workload"
)

// tinyOptions keeps figure runs fast in tests.
var tinyOptions = Options{Scale: 0.05, Seed: 13}

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "headline", "ablation-multiplex", "ablation-keepalive", "ablation-burstiness", "sensitivity", "ext-faults", "ext-cluster", "ext-prewarm", "ext-chains", "ext-dispatch", "ext-autoscale", "ext-routing"}
	if len(figs) != len(want) {
		t.Fatalf("registry has %d figures, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, figs[i].ID, id)
		}
		if figs[i].Title == "" || figs[i].Run == nil {
			t.Errorf("figure %q incomplete", figs[i].ID)
		}
	}
}

func TestFigureByID(t *testing.T) {
	if _, ok := FigureByID("fig11"); !ok {
		t.Error("fig11 not found")
	}
	if _, ok := FigureByID("nope"); ok {
		t.Error("unknown figure found")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Scale != 1.0 || o.Seed != 13 {
		t.Fatalf("DefaultOptions = %+v", o)
	}
	if o.scaled(100) != 100 {
		t.Errorf("scaled(100) = %d at scale 1", o.scaled(100))
	}
	small := Options{Scale: 0.001}
	if small.scaled(100) != 1 {
		t.Errorf("scaled floor broken: %d", small.scaled(100))
	}
}

// runFig runs one figure at tiny scale and returns its output.
func runFig(t *testing.T, id string) string {
	t.Helper()
	fig, ok := FigureByID(id)
	if !ok {
		t.Fatalf("figure %q missing", id)
	}
	var b strings.Builder
	if err := fig.Run(&b, tinyOptions); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestFig1OutputsRatiosNearOne(t *testing.T) {
	out := runFig(t, "fig1")
	if !strings.Contains(out, "sharing/monopoly") {
		t.Fatalf("fig1 output missing ratio column:\n%s", out)
	}
	// Every data row's ratio must be ~1.000 (the motivation result).
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] == "concurrency" || strings.HasPrefix(fields[0], "-") {
			continue
		}
		if !strings.HasPrefix(fields[3], "1.00") && !strings.HasPrefix(fields[3], "0.99") {
			t.Errorf("fig1 ratio %q not ~1.0 in line %q", fields[3], line)
		}
	}
}

func TestFig2OutputsThreeHotFunctions(t *testing.T) {
	out := runFig(t, "fig2")
	for _, fn := range []string{"hotA", "hotB", "hotC"} {
		if !strings.Contains(out, fn) {
			t.Errorf("fig2 missing %s:\n%s", fn, out)
		}
	}
}

func TestFig3OutputsMergedCDF(t *testing.T) {
	out := runFig(t, "fig3")
	if !strings.Contains(out, "100ms") || !strings.Contains(out, "merged CDF") {
		t.Fatalf("fig3 output malformed:\n%s", out)
	}
}

func TestFig4OutputsContentionBlowup(t *testing.T) {
	out := runFig(t, "fig4")
	if !strings.Contains(out, "66ms") {
		t.Errorf("fig4 missing the 66ms base point:\n%s", out)
	}
	// The k=9 row must show a large multiple.
	found := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "9" {
			found = true
			if !strings.HasPrefix(fields[2], "4") && !strings.HasPrefix(fields[2], "5") {
				t.Errorf("fig4 k=9 multiple = %s, want ~49x", fields[2])
			}
		}
	}
	if !found {
		t.Fatalf("fig4 missing k=9 row:\n%s", out)
	}
}

func TestFig5OutputsMemoryGrowth(t *testing.T) {
	out := runFig(t, "fig5")
	if !strings.Contains(out, "9.000") {
		t.Errorf("fig5 missing the 9 MB base point:\n%s", out)
	}
	if !strings.Contains(out, "59.000") {
		t.Errorf("fig5 missing the ~59 MB k=9 point:\n%s", out)
	}
}

func TestFig9MatchesPaperWeights(t *testing.T) {
	out := runFig(t, "fig9")
	for _, want := range []string{"0.551", "[0s, 50ms)", "[1.55s, inf)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 missing %q:\n%s", want, out)
		}
	}
}

func TestFig10OutputsPerSecondCounts(t *testing.T) {
	out := runFig(t, "fig10")
	if !strings.Contains(out, "second") || !strings.Contains(out, "peak") {
		t.Fatalf("fig10 malformed:\n%s", out)
	}
}

func TestFig11And12OutputAllPolicies(t *testing.T) {
	for _, id := range []string{"fig11", "fig12"} {
		out := runFig(t, id)
		for _, p := range []string{"vanilla", "sfs", "kraken", "faasbatch"} {
			if !strings.Contains(out, p) {
				t.Errorf("%s missing policy %s", id, p)
			}
		}
		for _, section := range []string{"scheduling latency", "cold-start latency", "execution latency", "Exec+Queue"} {
			if !strings.Contains(out, section) {
				t.Errorf("%s missing section %q", id, section)
			}
		}
	}
}

func TestFig13And14OutputSweepTables(t *testing.T) {
	for _, id := range []string{"fig13", "fig14"} {
		out := runFig(t, id)
		for _, interval := range SweepIntervals {
			if !strings.Contains(out, interval.String()) {
				t.Errorf("%s missing interval %v", id, interval)
			}
		}
		for _, section := range []string{"system memory", "provisioned containers", "CPU utilisation"} {
			if !strings.Contains(out, section) {
				t.Errorf("%s missing section %q", id, section)
			}
		}
	}
	if out := runFig(t, "fig14"); !strings.Contains(out, "client memory per invocation") {
		t.Error("fig14 missing the (d) panel")
	}
}

func TestHeadlineOutputsPaperVsMeasured(t *testing.T) {
	out := runFig(t, "headline")
	for _, want := range []string{"92.18%", "266.25", "16.5", "0.87 MB", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q:\n%s", want, out)
		}
	}
}

func TestSweepCoversEveryIntervalAndPolicy(t *testing.T) {
	results, err := sweep(workload.IO, tinyOptions)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(results) != len(SweepIntervals) {
		t.Fatalf("sweep covered %d intervals, want %d", len(results), len(SweepIntervals))
	}
	for _, interval := range SweepIntervals {
		for _, p := range AllPolicies {
			if results[interval][p] == nil {
				t.Fatalf("no %v result at %v", p, interval)
			}
		}
	}
}

func TestReduction(t *testing.T) {
	if got := reduction(100, 25); got != 75 {
		t.Errorf("reduction(100,25) = %v", got)
	}
	if got := reduction(0, 5); got != 0 {
		t.Errorf("reduction(0,5) = %v, want 0", got)
	}
	if got := reduction(50, 100); got != -100 {
		t.Errorf("reduction(50,100) = %v", got)
	}
}

func TestEvalTraceShapes(t *testing.T) {
	cpu, err := evalTrace(workload.CPUIntensive, Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatalf("cpu evalTrace: %v", err)
	}
	if cpu.Len() != 80 {
		t.Errorf("cpu trace len = %d, want 80 at scale 0.1", cpu.Len())
	}
	io, err := evalTrace(workload.IO, Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatalf("io evalTrace: %v", err)
	}
	if io.Len() != 40 {
		t.Errorf("io trace len = %d, want 40 (half of the cpu count)", io.Len())
	}
}

func TestAblationMultiplexOutput(t *testing.T) {
	out := runFig(t, "ablation-multiplex")
	for _, want := range []string{"faasbatch (full)", "faasbatch (no multiplexer)", "vanilla", "clients built"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q:\n%s", want, out)
		}
	}
}

func TestExtensionClusterOutput(t *testing.T) {
	out := runFig(t, "ext-cluster")
	for _, want := range []string{"nodes", "fn-affinity", "least-loaded", "round-robin", "imbalance"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-cluster missing %q:\n%s", want, out)
		}
	}
}

func TestAblationBurstinessOutput(t *testing.T) {
	out := runFig(t, "ablation-burstiness")
	for _, want := range []string{"bursty (paper replay)", "steady (Poisson, same volume)", "inv/container"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation-burstiness missing %q:\n%s", want, out)
		}
	}
}

func TestAblationKeepAliveOutput(t *testing.T) {
	out := runFig(t, "ablation-keepalive")
	for _, want := range []string{"keep-alive", "evictions", "vanilla", "faasbatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation-keepalive missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivityOutputAllOrderingsHold(t *testing.T) {
	out := runFig(t, "sensitivity")
	if strings.Contains(out, "false") {
		t.Fatalf("a calibration perturbation flipped a headline ordering:\n%s", out)
	}
	for _, want := range []string{"CreateCPUWork", "ContainerInitCPUWork", "orderings hold"} {
		if !strings.Contains(out, want) {
			t.Errorf("sensitivity missing %q", want)
		}
	}
}

func TestSummarizeWorkload(t *testing.T) {
	sums, err := SummarizeWorkload("io", tinyOptions)
	if err != nil {
		t.Fatalf("SummarizeWorkload: %v", err)
	}
	if len(sums) != 4 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for _, s := range sums {
		if s.Invocations == 0 || s.Containers == 0 || s.TotalP50Millis <= 0 {
			t.Fatalf("empty summary: %+v", s)
		}
		if s.Workload != "io" {
			t.Fatalf("workload = %q", s.Workload)
		}
	}
	if _, err := SummarizeWorkload("bogus", tinyOptions); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

func TestExtensionPrewarmOutput(t *testing.T) {
	out := runFig(t, "ext-prewarm")
	for _, want := range []string{"faasbatch + prewarm", "touches", "cold invocations"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-prewarm missing %q:\n%s", want, out)
		}
	}
}
