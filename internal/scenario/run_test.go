package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func loadScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return sc
}

// TestDeterminismCorpus is the reproducibility regression: every sim
// scenario in the committed corpus, run twice with the same seed, must
// produce byte-identical report bodies — and therefore identical hashes
// in the stamped report. One runner is reused across all runs, so the
// engine's Reset path is part of what is being pinned.
func TestDeterminismCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(files))
	}
	runner := NewRunner()
	fresh := NewRunner()
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sc, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if sc.Mode != ModeSim {
				t.Skip("live scenarios are not byte-reproducible")
			}
			first, err := runner.RunBody(sc)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			second, err := runner.RunBody(sc)
			if err != nil {
				t.Fatalf("run 2 (reused engine): %v", err)
			}
			third, err := fresh.RunBody(sc)
			if err != nil {
				t.Fatalf("run 3 (fresh-engine runner): %v", err)
			}
			a, err := first.Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			b, _ := second.Marshal()
			c, _ := third.Marshal()
			if !bytes.Equal(a, b) {
				t.Errorf("reused-engine rerun diverged (%d vs %d bytes)", len(a), len(b))
			}
			if !bytes.Equal(a, c) {
				t.Errorf("fresh-engine rerun diverged (%d vs %d bytes)", len(a), len(c))
			}
			if first.Totals.Submitted == 0 {
				t.Error("scenario submitted nothing; corpus entry is vacuous")
			}
			for _, inv := range first.Violations() {
				t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
			}
		})
	}
}

// TestFailoverScenario digs into the failover corpus entry: the outage
// must actually take workers down (and bring them back), and the
// zero-loss invariant must hold through it.
func TestFailoverScenario(t *testing.T) {
	sc := loadScenario(t, "failover.yaml")
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var downs, ups int
	for _, e := range body.Events {
		switch e.Kind {
		case "outage-down":
			downs++
		case "outage-up":
			ups++
		}
	}
	if downs != 2 || ups != 2 { // zone 1 of 4 zones over 8 workers = 2 workers
		t.Errorf("outage events = %d down / %d up, want 2/2", downs, ups)
	}
	sawDown := false
	for _, s := range body.Samples {
		if s.WorkersDown > 0 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("no sample observed a downed worker during the outage window")
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}
}

// TestPullRoutingScenario drives the pull-policy corpus entry and pins
// the routing report block, then re-runs the same workload under the
// hash policy and checks late binding actually spreads the skewed load
// better than consistent hashing.
func TestPullRoutingScenario(t *testing.T) {
	sc := loadScenario(t, "pull-skew.yaml")
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	r := body.Routing
	if r == nil {
		t.Fatal("routing block missing from the report")
	}
	if r.Policy != "pull" || r.QueueDepth != 1024 {
		t.Errorf("routing echo mismatch: %+v", r)
	}
	if body.Balancing != "pull" {
		t.Errorf("balancing = %q, want pull (routing block overrides dispatch)", body.Balancing)
	}
	if r.Granted < body.Totals.Submitted {
		t.Errorf("granted %d < submitted %d: every admitted invocation needs a lease", r.Granted, body.Totals.Submitted)
	}
	if r.Shed != 0 {
		t.Errorf("queue depth 1024 should not shed, got %d", r.Shed)
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}

	hash := *sc
	hash.Routing = &Routing{Policy: "hash"}
	hashBody, err := NewRunner().RunBody(&hash)
	if err != nil {
		t.Fatalf("hash run: %v", err)
	}
	if hashBody.Routing == nil {
		t.Fatal("hash routing block missing")
	}
	if hashBody.Routing.LoadCVMilli <= r.LoadCVMilli {
		t.Errorf("pull should spread the skew better than hash: pull CV %d, hash CV %d (milli)",
			r.LoadCVMilli, hashBody.Routing.LoadCVMilli)
	}
}

// TestNoisyChaosScenario checks the chaos schedule had teeth: injections
// happened, retries happened, and the declared failure-rate bound still
// held.
func TestNoisyChaosScenario(t *testing.T) {
	sc := loadScenario(t, "noisy-chaos.yaml")
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(body.Chaos) == 0 {
		t.Error("no faults injected despite the noisy phase")
	}
	if body.Totals.Retries == 0 {
		t.Error("no retries despite container crashes")
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}
	// The clean first phase must stay clean: its submissions happen
	// before any rate swap.
	if body.Phases[0].Failed != 0 {
		t.Errorf("clean phase recorded %d failures", body.Phases[0].Failed)
	}
}

// TestAdaptiveDispatchWiring checks the dispatch section reaches the
// schedulers: the bursty corpus entry runs adaptive windows, so adaptive
// counters must move.
func TestAdaptiveDispatchWiring(t *testing.T) {
	sc := loadScenario(t, "bursty.yaml")
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	adaptive := body.Scheduler.FastPathDispatches + body.Scheduler.EarlyCloses + body.Scheduler.WindowDispatches
	if adaptive == 0 {
		t.Error("adaptive dispatch counters all zero; dispatch config not wired through")
	}
	if body.Scheduler.MaxGroupSize > 32 {
		t.Errorf("max group size %d exceeds configured cap 32", body.Scheduler.MaxGroupSize)
	}
}

// TestReportStamping checks hash/timestamp placement: same body, same
// hash; the timestamp lives outside the hashed payload.
func TestReportStamping(t *testing.T) {
	sc := loadScenario(t, "sparse.yaml")
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	r1, err := NewReport(*body, time.Unix(1000, 0))
	if err != nil {
		t.Fatalf("NewReport: %v", err)
	}
	r2, err := NewReport(*body, time.Unix(2000, 0))
	if err != nil {
		t.Fatalf("NewReport: %v", err)
	}
	if r1.BodySHA256 != r2.BodySHA256 {
		t.Error("hash depends on the stamping time")
	}
	if r1.GeneratedAt == r2.GeneratedAt {
		t.Error("timestamps should differ")
	}
	var html bytes.Buffer
	if err := r1.WriteHTML(&html); err != nil {
		t.Fatalf("WriteHTML: %v", err)
	}
	if !bytes.Contains(html.Bytes(), []byte(sc.Name)) {
		t.Error("html summary does not mention the scenario name")
	}
}

// TestControlEventsOutliveWorkload: an outage whose recovery lands after
// the last phase must still be waited for — all-recovered holds because
// the runner's end-of-run is the later of the workload end and the last
// control event, not just the phase timeline.
func TestControlEventsOutliveWorkload(t *testing.T) {
	sc, err := Parse([]byte(`
scenario: late-recovery
fleet:
  workers: 2
  zones: 2
phases:
  - name: p
    duration: 1s
    rate: 0
    outages:
      - zone: 0
        at: 500ms
        duration: 30s
invariants:
  - all-recovered
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, inv := range body.Violations() {
		t.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
	}
	if body.MakespanMillis < 30_000 {
		t.Errorf("makespan %d ms; the run ended before the recovery at ~30.5s", body.MakespanMillis)
	}
}

// pinnedBodySHA256 is the report-body hash of every committed sim
// scenario (scenarios/fleet-1m.yaml aside: it takes ~20 s). A change
// that should not move any report must leave these untouched; one that
// does must update them and say why. Regenerate one with
// `go run ./cmd/faasstress -input <file> -q | grep body_sha256`.
var pinnedBodySHA256 = map[string]string{
	"testdata/bursty.yaml":                     "ef46ee48aed97e7073a24b6df94bbbafaa01aa0a50b3e09ccfa472d4a5cac515",
	"testdata/failover.yaml":                   "c35e9e9d99165a640d747d91221a5a52282671258344b16038c36a69f21acce4",
	"testdata/noisy-chaos.yaml":                "f4e8a1e7b324a4572a081a619c727050177a2cf6400d442a0c579343d1573e71",
	"testdata/pull-skew.yaml":                  "9fd7369ad9f20f4b0536db19e8019aef71a75c0226ede8328b21033540e2793d",
	"testdata/sparse.yaml":                     "f11431852352df217268ab12db35640318dc51960a80afc088cfb2e887155335",
	"../../scenarios/autoscale-burst.yaml":     "abb5c33f13124d3d874c841937d5d0551e07b51585900a4b9a4a21c64f7252fe",
	"../../scenarios/skewed-hot-function.yaml": "8382a69b7888187d132e0ce3271d4397db427a3a1673d6ef65b31051953943c2",
	"../../scenarios/slo-burn.yaml":            "c1e1fff623068d2f8b8258394099a219b6d9cd46f63895a637e7a9b272970934",
	"../../scenarios/smoke.yaml":               "0d6f168ba9db11147d19cf25a7ebc83c81fb36e97054079344a4c185bd5f5c36",
}

// TestScenarioHashesPinned pins every committed scenario's report body
// across commits. TestDeterminismCorpus only compares runs of one
// commit, so a refactor that reorders same-instant sim events — which
// moves reports without making them nondeterministic — would pass it.
// The hashes were taken on linux/amd64; other architectures may fuse
// floating-point multiply-adds and round differently, so they skip.
func TestScenarioHashesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes pinned on amd64, running on %s", runtime.GOARCH)
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner()
	for _, f := range append(corpus, committed...) {
		f := filepath.ToSlash(f)
		if strings.HasSuffix(f, "/fleet-1m.yaml") {
			continue
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			sc, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if sc.Mode != ModeSim {
				t.Skip("live scenarios are not byte-reproducible")
			}
			want, ok := pinnedBodySHA256[f]
			if !ok {
				t.Fatalf("%s has no pinned hash: add it to pinnedBodySHA256", f)
			}
			body, err := runner.RunBody(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			raw, err := body.Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
				t.Errorf("body sha256 = %s, pinned %s", got, want)
			}
		})
	}
}
