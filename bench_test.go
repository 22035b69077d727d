// Benchmarks regenerating the paper's tables and figures, one per
// artefact family, plus ablations of FaaSBatch's design choices and
// micro-benchmarks of the hot primitives.
//
// The figure benches run the same code as cmd/faasbench at reduced scale
// so `go test -bench=.` stays quick; run cmd/faasbench for the full
// paper-scale reproduction.
package faasbatch_test

import (
	"io"
	"testing"
	"time"

	faasbatch "faasbatch"
	"faasbatch/internal/cpusched"
	"faasbatch/internal/experiment"
	"faasbatch/internal/metrics"
	"faasbatch/internal/multiplex"
	"faasbatch/internal/sim"
	"faasbatch/internal/trace"
	"faasbatch/internal/workload"
)

// benchOptions is the reduced scale used by the figure benches.
var benchOptions = experiment.Options{Scale: 0.2, Seed: 13}

// runFigure benches one registry entry.
func runFigure(b *testing.B, id string) {
	b.Helper()
	fig, ok := experiment.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fig.Run(io.Discard, benchOptions); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkFig1SharingVsMonopoly(b *testing.B) { runFigure(b, "fig1") }

func BenchmarkFig2DailyPattern(b *testing.B) { runFigure(b, "fig2") }

func BenchmarkFig3BlobIaT(b *testing.B) { runFigure(b, "fig3") }

func BenchmarkFig4ClientCreation(b *testing.B) { runFigure(b, "fig4") }

func BenchmarkFig5ClientMemory(b *testing.B) { runFigure(b, "fig5") }

func BenchmarkFig9DurationDistribution(b *testing.B) { runFigure(b, "fig9") }

func BenchmarkFig10BurstPattern(b *testing.B) { runFigure(b, "fig10") }

func BenchmarkFig11CPULatency(b *testing.B) { runFigure(b, "fig11") }

func BenchmarkFig12IOLatency(b *testing.B) { runFigure(b, "fig12") }

func BenchmarkFig13CPUSweep(b *testing.B) { runFigure(b, "fig13") }

func BenchmarkFig14IOSweep(b *testing.B) { runFigure(b, "fig14") }

func BenchmarkHeadlineRatios(b *testing.B) { runFigure(b, "headline") }

// benchTrace builds a reduced evaluation trace.
func benchTrace(b *testing.B, kind workload.Kind, n int) trace.Trace {
	b.Helper()
	cfg := trace.DefaultBurstConfig(kind)
	cfg.N = n
	cfg.Span = 20 * time.Second
	tr, err := trace.SynthesizeBurst(cfg)
	if err != nil {
		b.Fatalf("SynthesizeBurst: %v", err)
	}
	return tr
}

// benchPolicyRun benches one policy end to end on a 150-invocation burst.
func benchPolicyRun(b *testing.B, p experiment.PolicyKind, kind workload.Kind, disableMux bool) {
	b.Helper()
	tr := benchTrace(b, kind, 150)
	// Derive Kraken SLOs once, outside the timed loop.
	var slo map[string]time.Duration
	if p == experiment.PolicyKraken {
		derived, err := experiment.SLOFromVanilla(experiment.Config{Policy: experiment.PolicyKraken, Trace: tr, Seed: 1})
		if err != nil {
			b.Fatalf("SLOFromVanilla: %v", err)
		}
		slo = derived
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.Config{
			Policy:           p,
			Trace:            tr,
			Seed:             1,
			SLO:              slo,
			DisableMultiplex: disableMux,
		})
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		if len(res.Records) != tr.Len() {
			b.Fatalf("incomplete run: %d/%d", len(res.Records), tr.Len())
		}
	}
}

// Ablation: the Resource Multiplexer on versus off for FaaSBatch on the
// I/O workload (isolates the §III-D module).
func BenchmarkAblationMultiplexOn(b *testing.B) {
	benchPolicyRun(b, experiment.PolicyFaaSBatch, workload.IO, false)
}

func BenchmarkAblationMultiplexOff(b *testing.B) {
	benchPolicyRun(b, experiment.PolicyFaaSBatch, workload.IO, true)
}

// Ablation: FaaSBatch versus the baselines on identical workloads
// (isolates the Invoke Mapper + Inline-Parallel Producer modules).
func BenchmarkPolicyVanillaIO(b *testing.B) {
	benchPolicyRun(b, experiment.PolicyVanilla, workload.IO, false)
}

func BenchmarkPolicySFSIO(b *testing.B) {
	benchPolicyRun(b, experiment.PolicySFS, workload.IO, false)
}

func BenchmarkPolicyKrakenIO(b *testing.B) {
	benchPolicyRun(b, experiment.PolicyKraken, workload.IO, false)
}

func BenchmarkPolicyFaaSBatchCPU(b *testing.B) {
	benchPolicyRun(b, experiment.PolicyFaaSBatch, workload.CPUIntensive, false)
}

// Micro-benchmarks of the hot primitives.

func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New(1)
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkProcessorSharingPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New(1)
		pool, err := cpusched.NewPool(eng, 32, cpusched.FairShare{})
		if err != nil {
			b.Fatalf("NewPool: %v", err)
		}
		groups := make([]*cpusched.Group, 8)
		for g := range groups {
			groups[g] = pool.NewGroup("g", 0)
		}
		for t := 0; t < 64; t++ {
			groups[t%8].Submit(time.Duration(t+1)*time.Millisecond, func() {})
		}
		eng.Run()
	}
}

func BenchmarkMLFQPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New(1)
		pool, err := cpusched.NewPool(eng, 32, cpusched.NewMLFQ())
		if err != nil {
			b.Fatalf("NewPool: %v", err)
		}
		g := pool.NewGroup("g", 0)
		for t := 0; t < 64; t++ {
			g.Submit(time.Duration(t+1)*time.Millisecond, func() {})
		}
		eng.Run()
	}
}

func BenchmarkMultiplexerHitPath(b *testing.B) {
	c := multiplex.New(multiplex.Config{})
	key := multiplex.NewKey("boto3.client", "s3:KEY")
	c.Begin(key)
	c.Complete(key, "client", 15<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, _ := c.Begin(key); res != multiplex.BeginHit {
			b.Fatal("expected hit")
		}
	}
}

func BenchmarkCDFQuantiles(b *testing.B) {
	vals := make([]time.Duration, 10_000)
	for i := range vals {
		vals[i] = time.Duration(i*7919%100_000) * time.Microsecond
	}
	cdf := metrics.NewCDF(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cdf.P(0.98)
	}
}

func BenchmarkTraceSynthesis(b *testing.B) {
	cfg := trace.DefaultBurstConfig(workload.CPUIntensive)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.SynthesizeBurst(cfg); err != nil {
			b.Fatalf("SynthesizeBurst: %v", err)
		}
	}
}

// Cluster scale-out: the same workload on growing fleets (extension
// beyond the paper's single worker VM).
func benchCluster(b *testing.B, nodes int, bal faasbatch.Balancing) {
	b.Helper()
	tr := benchTrace(b, workload.CPUIntensive, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := faasbatch.ReplayCluster(faasbatch.ClusterReplayConfig{
			Cluster: faasbatch.ClusterConfig{Nodes: nodes, Balancing: bal},
			Trace:   tr,
			Seed:    1,
		})
		if err != nil {
			b.Fatalf("ReplayCluster: %v", err)
		}
		if len(res.Records) != tr.Len() {
			b.Fatal("incomplete cluster run")
		}
	}
}

func BenchmarkCluster1Node(b *testing.B) { benchCluster(b, 1, faasbatch.FnAffinity) }

func BenchmarkCluster4NodesAffinity(b *testing.B) { benchCluster(b, 4, faasbatch.FnAffinity) }

func BenchmarkCluster4NodesRoundRobin(b *testing.B) { benchCluster(b, 4, faasbatch.RoundRobin) }

// Function chains: 3-stage sequential workflows under FaaSBatch vs
// Vanilla (extension; Kraken's original microservice setting).
func benchChain(b *testing.B, p experiment.PolicyKind) {
	b.Helper()
	tr := benchTrace(b, workload.CPUIntensive, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := faasbatch.RunChain(faasbatch.ChainConfig{
			Policy: p,
			Trace:  tr,
			Stages: 3,
			Seed:   1,
		})
		if err != nil {
			b.Fatalf("RunChain: %v", err)
		}
		if len(res.Chains) != tr.Len() {
			b.Fatal("incomplete chain run")
		}
	}
}

func BenchmarkChainsFaaSBatch(b *testing.B) { benchChain(b, experiment.PolicyFaaSBatch) }

func BenchmarkChainsVanilla(b *testing.B) { benchChain(b, experiment.PolicyVanilla) }

// Public facade sanity bench: the exported API drives a full run.
func BenchmarkPublicAPIExperiment(b *testing.B) {
	cfg := faasbatch.DefaultBurstConfig(faasbatch.IO)
	cfg.N = 100
	cfg.Span = 10 * time.Second
	tr, err := faasbatch.SynthesizeBurst(cfg)
	if err != nil {
		b.Fatalf("SynthesizeBurst: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faasbatch.RunExperiment(faasbatch.ExperimentConfig{
			Policy: faasbatch.PolicyFaaSBatch,
			Trace:  tr,
			Seed:   1,
		}); err != nil {
			b.Fatalf("RunExperiment: %v", err)
		}
	}
}
